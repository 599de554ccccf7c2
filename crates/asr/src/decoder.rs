//! Phoneme assembly and language generation: lexicon-driven word decoding.
//!
//! Implements the last two stages of the paper's Figure 2: the collapsed
//! phoneme stream is split at silences into word chunks, each chunk is
//! matched against the pronunciation lexicon (dictionary correction), and a
//! Viterbi pass over the chunk candidates under the bigram language model
//! picks the final word sequence (language generation). Homophones tie on
//! edit distance, so the language model — which differs per ASR profile —
//! makes the choice.

use mvp_dsp::mfcc::FeatureMatrix;
use mvp_phonetics::{Lexicon, Phoneme};

use crate::ctc::{greedy_phonemes, RunAccumulator};
use crate::lm::{BigramLm, Token};

/// Decoder tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderConfig {
    /// Frames below this run length are treated as transition noise.
    pub min_run: usize,
    /// Word candidates kept per chunk.
    pub top_k: usize,
    /// Weight of the (normalised) phoneme edit distance.
    pub edit_weight: f64,
    /// Weight of the negative LM log-probability.
    pub lm_weight: f64,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig { min_run: 2, top_k: 5, edit_weight: 6.0, lm_weight: 1.0 }
    }
}

/// The word decoder of one ASR profile.
#[derive(Debug, Clone)]
pub struct Decoder {
    vocab: Vec<(String, Vec<Phoneme>)>,
    /// Each vocab word's token in `lm`, resolved once.
    tokens: Vec<Token>,
    lm: BigramLm,
    cfg: DecoderConfig,
}

impl Decoder {
    /// Builds a decoder over every explicit word of `lexicon`, scored by
    /// `lm`.
    ///
    /// # Panics
    ///
    /// Panics if the lexicon has no explicit entries.
    pub fn new(lexicon: &Lexicon, lm: BigramLm, cfg: DecoderConfig) -> Decoder {
        let mut vocab: Vec<(String, Vec<Phoneme>)> =
            lexicon.words().map(|w| (w.to_string(), lexicon.pronounce(w))).collect();
        assert!(!vocab.is_empty(), "decoder needs a non-empty lexicon");
        vocab.sort(); // deterministic candidate ordering
        let tokens = vocab.iter().map(|(word, _)| lm.token(word)).collect();
        Decoder { vocab, tokens, lm, cfg }
    }

    /// The language model scoring word transitions.
    pub fn lm(&self) -> &BigramLm {
        &self.lm
    }

    /// The decoder tuning parameters.
    pub fn config(&self) -> &DecoderConfig {
        &self.cfg
    }

    /// Decodes a logit matrix (`n_frames × n_classes`) to a transcription.
    pub fn decode(&self, logits: &FeatureMatrix) -> String {
        if logits.is_empty() {
            return String::new();
        }
        let seq = greedy_phonemes(logits, self.cfg.min_run);
        self.decode_phonemes(&seq)
    }

    /// Decodes an explicit collapsed phoneme sequence (with SIL word
    /// separators) to a transcription: every word chunk between SILs is
    /// scored against the lexicon and stepped through the Viterbi in turn,
    /// then the best path is read back.
    ///
    /// A stream's incremental decode (`PrefixDecode`, kept by
    /// [`AsrStream`](crate::AsrStream)) runs the same steps one chunk at a
    /// time, as each chunk closes, so its running transcript is
    /// byte-identical to this on the sequence it has seen.
    pub fn decode_phonemes(&self, seq: &[Phoneme]) -> String {
        let mut lattice = Lattice::default();
        let mut rows = EditRows::default();
        for chunk in seq.split(|&p| p == Phoneme::SIL).filter(|c| !c.is_empty()) {
            let cands = self.chunk_candidates(chunk, &mut rows);
            let (col, score) = self.viterbi_step(&lattice, cands);
            lattice.push(col, score);
        }
        self.best_path(&lattice, None)
    }

    /// Advances `state` over the phonemes `runs` has emitted since the
    /// last call. Each phoneme of the open word chunk adds one row to the
    /// chunk's edit distances against every word; each chunk that a SIL
    /// closes takes its candidates from those distances and is stepped
    /// through the Viterbi here, once. Call it after any number of pushes
    /// into `runs`; `runs` must be the accumulator `state` has followed
    /// since both were last reset.
    pub(crate) fn advance_prefix(&self, state: &mut PrefixDecode, runs: &RunAccumulator) {
        let PrefixDecode { next_run, last, open_len, dist, spare, closed } = state;
        runs.emit_from(self.cfg.min_run, next_run, |ph| {
            if *last == Some(ph) {
                return; // collapsed, as in `RunAccumulator::phonemes`
            }
            *last = Some(ph);
            if ph != Phoneme::SIL {
                self.extend_open(dist, spare, *open_len, ph);
                *open_len += 1;
            } else if *open_len > 0 {
                let (col, score) = self.viterbi_step(closed, self.open_candidates(dist, *open_len));
                closed.push(col, score);
                *open_len = 0;
            }
        });
    }

    /// The transcript of the phonemes `state` has seen: one Viterbi step
    /// for the open chunk, if any, then the backtrack. Byte-identical to
    /// [`decode_phonemes`](Self::decode_phonemes) on the accumulator's
    /// [`phonemes`](RunAccumulator::phonemes)`(min_run)`.
    pub(crate) fn decode_prefix(&self, state: &PrefixDecode) -> String {
        if state.open_len == 0 {
            return self.best_path(&state.closed, None);
        }
        let cands = self.open_candidates(&state.dist, state.open_len);
        let (tail, score) = self.viterbi_step(&state.closed, cands);
        self.best_path(&state.closed, Some((&tail, &score)))
    }

    /// Appends phoneme `pa`, the `i`-th of the open chunk, to the chunk's
    /// edit-distance rows against every word (`dist`, concatenated in
    /// vocab order; `spare` is the buffer the new rows are built in).
    fn extend_open(&self, dist: &mut Vec<usize>, spare: &mut Vec<usize>, i: usize, pa: Phoneme) {
        if i == 0 {
            dist.clear();
            for (_, pron) in &self.vocab {
                dist.extend(0..=pron.len());
            }
        }
        spare.resize(dist.len(), 0);
        let mut at = 0;
        for (_, pron) in &self.vocab {
            let end = at + pron.len() + 1;
            edit_row(i, pa, pron, &dist[at..end], &mut spare[at..end]);
            at = end;
        }
        std::mem::swap(dist, spare);
    }

    /// Top-k candidates for an open chunk of `len` phonemes, read off its
    /// edit-distance rows: the list `chunk_candidates` computes from the
    /// phonemes.
    fn open_candidates(&self, dist: &[usize], len: usize) -> Vec<(usize, f64)> {
        let mut top = TopK::new(self.cfg.top_k, self.vocab.len());
        let mut end = 0;
        for (i, (_, pron)) in self.vocab.iter().enumerate() {
            end += pron.len() + 1;
            top.offer(i, normalised(dist[end - 1], len, pron.len()));
        }
        top.best
    }

    /// One Viterbi step from the last column of `lattice` into a word chunk
    /// with candidates `cands`: the candidates with their best
    /// predecessors, and the path score of each. A first chunk starts its
    /// paths from the language model's sentence start.
    fn viterbi_step(&self, lattice: &Lattice, cands: Vec<(usize, f64)>) -> (Column, Vec<f64>) {
        let prev = lattice.cols.last();
        let mut back = Vec::with_capacity(cands.len());
        let mut score = Vec::with_capacity(cands.len());
        for &(w, edit) in &cands {
            let word = self.tokens[w];
            let Some(prev) = prev else {
                score.push(
                    self.cfg.edit_weight * edit
                        - self.cfg.lm_weight * self.lm.log_prob_token(Token::BOS, word),
                );
                back.push(0);
                continue;
            };
            // Candidate lists are never empty (the vocab is asserted
            // non-empty in `new`), so the fallback is never taken.
            let (best_prev, best) = prev
                .cands
                .iter()
                .zip(&lattice.score)
                .enumerate()
                .map(|(pi, (&(pw, _), &s))| {
                    (pi, s - self.cfg.lm_weight * self.lm.log_prob_token(self.tokens[pw], word))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap_or((0, f64::INFINITY));
            score.push(best + self.cfg.edit_weight * edit);
            back.push(best_prev);
        }
        (Column { cands, back }, score)
    }

    /// The best word sequence through `lattice`, extended by an open
    /// `tail` column and its path scores when given.
    fn best_path(&self, lattice: &Lattice, tail: Option<(&Column, &[f64])>) -> String {
        let score = tail.map_or(lattice.score.as_slice(), |(_, s)| s);
        let Some(mut idx) =
            score.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)
        else {
            return String::new();
        };
        let mut words = Vec::with_capacity(lattice.cols.len() + 1);
        for col in tail.map(|(col, _)| col).into_iter().chain(lattice.cols.iter().rev()) {
            words.push(self.vocab[col.cands[idx].0].0.as_str());
            idx = col.back[idx];
        }
        words.reverse();
        words.join(" ")
    }

    /// Top-k `(vocab index, normalised edit distance)` candidates for a
    /// (non-empty) chunk of phonemes, in `(distance, index)` order, with
    /// the DP rows in `rows`.
    ///
    /// Once k candidates are held, a word is skipped when its length
    /// difference, a lower bound on its distance, already reaches the
    /// k-th best, and its DP is abandoned when a row minimum does: the
    /// minimum of a Levenshtein row never falls from one row to the next,
    /// and both bounds are normalised as the distance is, which keeps
    /// their order. A word that only ties the k-th best ranks after it
    /// (words come in index order), so neither prune drops a candidate.
    fn chunk_candidates(&self, chunk: &[Phoneme], rows: &mut EditRows) -> Vec<(usize, f64)> {
        let a = chunk.len();
        let mut top = TopK::new(self.cfg.top_k, self.vocab.len());
        for (i, (_, pron)) in self.vocab.iter().enumerate() {
            let b = pron.len();
            let bar = top.bar();
            let out = |d: usize| bar.is_some_and(|bar| normalised(d, a, b) >= bar);
            if out(a.abs_diff(b)) {
                continue;
            }
            if let Some(d) = rows.distance(chunk, pron, out) {
                top.offer(i, normalised(d, a, b));
            }
        }
        top.best
    }
}

/// The best `k` `(vocab index, normalised edit distance)` candidates
/// offered so far, in `(distance, index)` order. Words are offered in
/// index order, so one that ties a held candidate ranks after it.
struct TopK {
    k: usize,
    best: Vec<(usize, f64)>,
}

impl TopK {
    /// An empty list keeping `k` (at least one) of `n` words.
    fn new(k: usize, n: usize) -> TopK {
        let k = k.max(1);
        TopK { k, best: Vec::with_capacity(k.min(n)) }
    }

    /// The k-th best distance once `k` candidates are held: a word must
    /// score below it to enter.
    fn bar(&self) -> Option<f64> {
        (self.best.len() == self.k).then(|| self.best[self.k - 1].1)
    }

    /// Offers word `i`, which comes after every word offered before it.
    fn offer(&mut self, i: usize, d: f64) {
        if let Some(bar) = self.bar() {
            if d >= bar {
                return;
            }
            self.best.pop();
        }
        let at = self.best.partition_point(|&(_, held)| held <= d);
        self.best.insert(at, (i, d));
    }
}

/// The two Levenshtein DP rows of one decode call, reused for every word.
#[derive(Default)]
struct EditRows {
    prev: Vec<usize>,
    cur: Vec<usize>,
}

impl EditRows {
    /// The edit distance between `a` and `b`, or `None` as soon as
    /// `abandon` holds for the minimum of a DP row, a lower bound on it.
    fn distance(
        &mut self,
        a: &[Phoneme],
        b: &[Phoneme],
        abandon: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        self.prev.clear();
        self.prev.extend(0..=b.len());
        self.cur.resize(b.len() + 1, 0);
        for (i, &pa) in a.iter().enumerate() {
            let min = edit_row(i, pa, b, &self.prev, &mut self.cur);
            if abandon(min) {
                return None;
            }
            std::mem::swap(&mut self.prev, &mut self.cur);
        }
        Some(self.prev[b.len()])
    }
}

/// Edit distance `d` between sequences of lengths `a` and `b`, over the
/// longer one.
fn normalised(d: usize, a: usize, b: usize) -> f64 {
    d as f64 / a.max(b) as f64
}

/// One word chunk of the Viterbi lattice.
#[derive(Debug, Clone, Default)]
struct Column {
    /// Top-k `(vocab index, normalised edit distance)` candidates.
    cands: Vec<(usize, f64)>,
    /// Per candidate, its best predecessor in the previous column.
    back: Vec<usize>,
}

/// The Viterbi lattice over a run of word chunks.
#[derive(Debug, Clone, Default)]
struct Lattice {
    cols: Vec<Column>,
    /// Path score of each candidate of the last column.
    score: Vec<f64>,
}

impl Lattice {
    /// Appends a column and its path scores from [`Decoder::viterbi_step`].
    fn push(&mut self, col: Column, score: Vec<f64>) {
        self.cols.push(col);
        self.score = score;
    }
}

/// The running word decode of one stream, kept by
/// [`AsrStream`](crate::AsrStream).
///
/// The phonemes a [`RunAccumulator`] emits only grow at the end, so a word
/// chunk followed by a SIL is final: [`Decoder::advance_prefix`] scores
/// and steps it once, when that SIL arrives, and keeps its candidates,
/// back-pointers and the score row. The open chunk after the last SIL
/// only grows too, so its edit distances to every word are kept as DP
/// rows that gain one row per phoneme. [`Decoder::decode_prefix`] then
/// costs a top-k over those distances, one Viterbi step and a backtrack,
/// not the whole prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrefixDecode {
    /// Runs of the accumulator already emitted or dropped.
    next_run: usize,
    /// The last phoneme emitted, against which repeats collapse.
    last: Option<Phoneme>,
    /// Phonemes in the open chunk, after the last SIL.
    open_len: usize,
    /// The open chunk's last edit-distance DP row against each word's
    /// pronunciation, concatenated in vocab order.
    dist: Vec<usize>,
    /// The buffer [`Decoder::extend_open`] builds the next rows in.
    spare: Vec<usize>,
    /// The lattice over the closed chunks.
    closed: Lattice,
}

impl PrefixDecode {
    /// Clears the state for a new utterance, keeping capacity.
    pub(crate) fn reset(&mut self) {
        self.next_run = 0;
        self.last = None;
        self.open_len = 0;
        self.closed.cols.clear();
        self.closed.score.clear();
    }
}

/// Levenshtein distance between two phoneme sequences.
pub fn phoneme_edit_distance(a: &[Phoneme], b: &[Phoneme]) -> usize {
    EditRows::default().distance(a, b, |_| false).expect("a DP that never abandons ends")
}

/// One row of the Levenshtein DP: from `prev`, the distances of a
/// sequence's first `i` phonemes to every prefix of `b`, fills `cur` with
/// those of its first `i + 1`, whose last is `pa`. Returns the row's
/// minimum.
fn edit_row(i: usize, pa: Phoneme, b: &[Phoneme], prev: &[usize], cur: &mut [usize]) -> usize {
    cur[0] = i + 1;
    let mut min = cur[0];
    for (j, &pb) in b.iter().enumerate() {
        let sub = prev[j] + usize::from(pa != pb);
        cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        min = min.min(cur[j + 1]);
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_phonetics::Lexicon;

    fn decoder() -> Decoder {
        let lm = BigramLm::train(
            [
                "open the front door",
                "open the back door",
                "i see the sea",
                "we see the sea",
                "the man walked the street",
                "turn on the lights",
            ],
            0.05,
        );
        Decoder::new(&Lexicon::builtin(), lm, DecoderConfig::default())
    }

    /// Builds one-hot logits from a phoneme sequence, `per` frames each.
    fn logits_for(seq: &[Phoneme], per: usize) -> FeatureMatrix {
        let mut m = FeatureMatrix::zeros(0, Phoneme::COUNT);
        for p in seq {
            let mut l = vec![-4.0; Phoneme::COUNT];
            l[p.index()] = 4.0;
            for _ in 0..per {
                m.push_row(&l);
            }
        }
        m
    }

    #[test]
    fn decodes_clean_phoneme_stream() {
        let lex = Lexicon::builtin();
        let d = decoder();
        let seq = lex.pronounce_sentence("open the front door");
        let text = d.decode(&logits_for(&seq, 5));
        assert_eq!(text, "open the front door");
    }

    #[test]
    fn decodes_with_substituted_phoneme() {
        let lex = Lexicon::builtin();
        let d = decoder();
        let mut seq = lex.pronounce_sentence("open the front door");
        // Corrupt one phoneme inside "front".
        let pos = seq.iter().position(|&p| p == Phoneme::F).unwrap();
        seq[pos + 1] = Phoneme::L;
        let text = d.decode(&logits_for(&seq, 5));
        assert_eq!(text, "open the front door");
    }

    #[test]
    fn homophone_resolved_by_language_model() {
        let lex = Lexicon::builtin();
        let d = decoder();
        // "see"/"sea" share a pronunciation; after "the", the LM prefers "sea".
        let seq = lex.pronounce_sentence("i see the sea");
        let text = d.decode(&logits_for(&seq, 5));
        assert_eq!(text, "i see the sea");
    }

    #[test]
    fn empty_logits_empty_text() {
        assert_eq!(decoder().decode(&FeatureMatrix::default()), "");
    }

    #[test]
    fn silence_only_is_empty() {
        let d = decoder();
        let seq = vec![Phoneme::SIL; 4];
        assert_eq!(d.decode(&logits_for(&seq, 4)), "");
    }

    #[test]
    fn edit_distance_basics() {
        use Phoneme::*;
        assert_eq!(phoneme_edit_distance(&[S, IY], &[S, IY]), 0);
        assert_eq!(phoneme_edit_distance(&[S, IY], &[S, EY]), 1);
        assert_eq!(phoneme_edit_distance(&[], &[S, EY]), 2);
    }

    #[test]
    fn lm_weight_zero_falls_back_to_pure_edit_distance() {
        // With the LM silenced, homophone choice is decided by candidate
        // ordering alone, but exact pronunciations still decode correctly.
        let lex = Lexicon::builtin();
        let lm = BigramLm::train(["i see the sea"], 0.05);
        let d =
            Decoder::new(&lex, lm, DecoderConfig { lm_weight: 0.0, ..DecoderConfig::default() });
        let seq = lex.pronounce_sentence("open the front door");
        assert_eq!(d.decode(&logits_for(&seq, 5)), "open the front door");
    }

    #[test]
    fn top_k_one_still_decodes_exact_matches() {
        let lex = Lexicon::builtin();
        let lm = BigramLm::train(["turn on the lights"], 0.05);
        let d = Decoder::new(&lex, lm, DecoderConfig { top_k: 1, ..DecoderConfig::default() });
        let seq = lex.pronounce_sentence("turn on the lights");
        // With k=1 homophone ties resolve to the lexicographically first
        // candidate, so only check WER-0-modulo-homophony.
        let text = d.decode(&logits_for(&seq, 5));
        assert_eq!(lex.pronounce_sentence(&text), lex.pronounce_sentence("turn on the lights"));
    }

    #[test]
    fn noisy_transition_frames_are_ignored() {
        // One-frame glitches between phonemes (below min_run) must not
        // corrupt the decoding.
        let lex = Lexicon::builtin();
        let d = decoder();
        let seq = lex.pronounce_sentence("open the door");
        let mut logits = FeatureMatrix::zeros(0, Phoneme::COUNT);
        for p in &seq {
            let mut l = vec![-4.0; Phoneme::COUNT];
            l[p.index()] = 4.0;
            for _ in 0..5 {
                logits.push_row(&l);
            }
            // Glitch frame.
            let mut g = vec![-4.0; Phoneme::COUNT];
            g[Phoneme::Z.index()] = 4.0;
            logits.push_row(&g);
        }
        assert_eq!(d.decode(&logits), "open the door");
    }

    #[test]
    fn nan_lm_weight_decodes_without_panicking() {
        // A NaN lm_weight poisons every beam score; the total_cmp
        // comparators must order the poisoned scores instead of
        // panicking the way partial_cmp().expect() used to.
        let lex = Lexicon::builtin();
        let lm = BigramLm::train(["open the front door"], 0.05);
        let d = Decoder::new(
            &lex,
            lm,
            DecoderConfig { lm_weight: f64::NAN, ..DecoderConfig::default() },
        );
        let seq = lex.pronounce_sentence("open the front door");
        // The transcript is arbitrary under NaN scoring; surviving the
        // decode is the contract.
        let _ = d.decode(&logits_for(&seq, 5));
    }

    /// A seeded label stream for the prefix-decode property: runs of 1–4
    /// frames over lexicon words with one-frame glitches, and between
    /// words a SIL run with probability `sil_per_mille`/1000 (0 makes the
    /// stream SIL-free). Every fourth stream is labels drawn at random.
    fn label_stream(seed: u64, sil_per_mille: u32, n: usize) -> Vec<usize> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let lex = Lexicon::builtin();
        let words: Vec<&str> = lex.words().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = Vec::with_capacity(n + 8);
        let sil = Phoneme::SIL.index();
        let any = |rng: &mut StdRng| loop {
            let label = rng.gen_range(0..Phoneme::COUNT);
            if label != sil || sil_per_mille > 0 {
                return label;
            }
        };
        let run = |label: usize, rng: &mut StdRng, labels: &mut Vec<usize>| {
            labels.extend(std::iter::repeat_n(label, rng.gen_range(1..=4)));
        };
        while labels.len() < n {
            if rng.gen_range(0..1000) < sil_per_mille {
                run(sil, &mut rng, &mut labels);
            }
            if seed.is_multiple_of(4) {
                let label = any(&mut rng);
                run(label, &mut rng, &mut labels);
                continue;
            }
            for p in lex.pronounce(words[rng.gen_range(0..words.len())]) {
                run(p.index(), &mut rng, &mut labels);
                if rng.gen_range(0..8) == 0 {
                    labels.push(any(&mut rng));
                }
            }
        }
        labels.truncate(n);
        labels
    }

    proptest::proptest! {
        /// The running transcript of the incremental decode equals the
        /// from-scratch decode of the accumulator's phonemes after every
        /// frame, byte for byte — and when the decode catches up only
        /// every few frames.
        #[test]
        fn prefix_decode_matches_from_scratch_after_every_frame(
            seed in 0u64..1_000_000,
            min_run in 1usize..5,
            sil_per_mille in proptest::sample::select(vec![0u32, 150, 600]),
            catch_up in 1usize..4,
        ) {
            let d = Decoder::new(
                &Lexicon::builtin(),
                decoder().lm().clone(),
                DecoderConfig { min_run, ..DecoderConfig::default() },
            );
            let mut acc = RunAccumulator::default();
            let mut state = PrefixDecode::default();
            for (t, label) in label_stream(seed, sil_per_mille, 120).into_iter().enumerate() {
                acc.push_label(label);
                if t % catch_up != 0 {
                    continue;
                }
                d.advance_prefix(&mut state, &acc);
                proptest::prop_assert_eq!(
                    d.decode_prefix(&state),
                    d.decode_phonemes(&acc.phonemes(min_run))
                );
            }
            state.reset();
            acc.reset();
            d.advance_prefix(&mut state, &acc);
            proptest::prop_assert_eq!(d.decode_prefix(&state), "");
        }
    }

    /// The Levenshtein distance as the decoder computed it before
    /// pruning: two fresh rows per word.
    fn oracle_edit_distance(a: &[Phoneme], b: &[Phoneme]) -> usize {
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, &pa) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &pb) in b.iter().enumerate() {
                let sub = prev[j] + usize::from(pa != pb);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    /// The word decode before pruning, kept as the oracle: every word's
    /// full edit distance, one sort truncated to `top_k`, and transitions
    /// scored through the LM by string.
    fn oracle_decode_phonemes(d: &Decoder, seq: &[Phoneme]) -> String {
        let (edit_weight, lm_weight) = (d.cfg.edit_weight, d.cfg.lm_weight);
        let mut lattice = Lattice::default();
        for chunk in seq.split(|&p| p == Phoneme::SIL).filter(|c| !c.is_empty()) {
            let mut cands: Vec<(usize, f64)> = (d.vocab.iter().enumerate())
                .map(|(i, (_, pron))| {
                    (i, normalised(oracle_edit_distance(chunk, pron), chunk.len(), pron.len()))
                })
                .collect();
            cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            cands.truncate(d.cfg.top_k.max(1));
            let mut back = Vec::new();
            let mut score = Vec::new();
            for &(w, edit) in &cands {
                let word = &d.vocab[w].0;
                let Some(prev) = lattice.cols.last() else {
                    score.push(edit_weight * edit - lm_weight * d.lm.log_prob(None, word));
                    back.push(0);
                    continue;
                };
                let (best_prev, best) = (prev.cands.iter().zip(&lattice.score).enumerate())
                    .map(|(pi, (&(pw, _), &s))| {
                        (pi, s - lm_weight * d.lm.log_prob(Some(&d.vocab[pw].0), word))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap_or((0, f64::INFINITY));
                score.push(best + edit_weight * edit);
                back.push(best_prev);
            }
            lattice.push(Column { cands, back }, score);
        }
        d.best_path(&lattice, None)
    }

    /// `n` frames of one-hot logits (±4) over a [`label_stream`], plus
    /// seeded uniform noise of amplitude `noise` per logit: 0 decodes the
    /// labels, 20 is close to random logits.
    fn noisy_label_logits(seed: u64, noise: f64, n: usize) -> FeatureMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut m = FeatureMatrix::zeros(0, Phoneme::COUNT);
        for label in label_stream(seed, 150, n) {
            let row: Vec<f64> = (0..Phoneme::COUNT)
                .map(|c| if c == label { 4.0 } else { -4.0 } + noise * rng.gen_range(-1.0..1.0))
                .collect();
            m.push_row(&row);
        }
        m
    }

    proptest::proptest! {
        /// The pruned, bounded top-k decode with LM scores by token equals
        /// the full-sort oracle byte for byte, on clean, noisy and random
        /// logits, for every `min_run`, a `top_k` of 1, 5 and more than
        /// the vocabulary, and a silenced or NaN language model.
        #[test]
        fn pruned_decode_matches_full_sort_oracle(
            seed in 0u64..1_000_000,
            noise in proptest::sample::select(vec![0.0f64, 3.0, 20.0]),
            min_run in 1usize..5,
            top_k in proptest::sample::select(vec![1usize, 5, usize::MAX]),
            lm_weight in proptest::sample::select(vec![1.0f64, 0.0, f64::NAN]),
            n in 20usize..90,
        ) {
            let d = Decoder::new(
                &Lexicon::builtin(),
                decoder().lm().clone(),
                DecoderConfig { min_run, top_k, lm_weight, ..DecoderConfig::default() },
            );
            let logits = noisy_label_logits(seed, noise, n);
            let seq = greedy_phonemes(&logits, min_run);
            let oracle = oracle_decode_phonemes(&d, &seq);
            proptest::prop_assert_eq!(d.decode(&logits), oracle.clone());
            proptest::prop_assert_eq!(d.decode_phonemes(&seq), oracle);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty lexicon")]
    fn empty_lexicon_rejected() {
        let lm = BigramLm::train(["x"], 0.1);
        Decoder::new(&Lexicon::new(), lm, DecoderConfig::default());
    }
}

//! Bigram language model with add-k smoothing.
//!
//! Each ASR profile trains its language model on a *different* sentence
//! sample, so profiles make different homophone choices during word
//! assembly — one of the benign cross-ASR disagreements the phonetic
//! encoding step of the detector is designed to forgive.

use std::collections::HashMap;

use mvp_artifact::{ArtifactError, ArtifactKind, Decoder, Encoder, Persist};

/// Sentence-start pseudo-token id.
const BOS: usize = 0;

/// A word as one [`BigramLm`] resolves it ([`BigramLm::token`]): the
/// sentence start, a word seen in training, or an unknown word. A decoder
/// resolves its vocabulary once and then scores transitions by token
/// ([`BigramLm::log_prob_token`]), with no per-call string lowercasing or
/// string hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token(Option<usize>);

impl Token {
    /// The sentence start.
    pub(crate) const BOS: Token = Token(Some(BOS));
}

/// A word-level bigram model.
#[derive(Debug, Clone)]
pub struct BigramLm {
    ids: HashMap<String, usize>,
    unigram: Vec<f64>,
    /// `unigram` summed in index order: the denominator's base when the
    /// previous word is unknown.
    total: f64,
    bigram: HashMap<(usize, usize), f64>,
    k: f64,
}

impl BigramLm {
    /// Trains on an iterator of sentences with smoothing constant `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn train<'a>(sentences: impl IntoIterator<Item = &'a str>, k: f64) -> BigramLm {
        assert!(k > 0.0, "smoothing constant must be positive");
        let mut ids = HashMap::new();
        let mut unigram = vec![0.0f64]; // slot 0 = BOS
        let mut bigram: HashMap<(usize, usize), f64> = HashMap::new();
        for sentence in sentences {
            let mut prev = BOS;
            unigram[BOS] += 1.0;
            for word in sentence.split_whitespace() {
                let word = word.to_lowercase();
                let next_id = unigram.len();
                let id = *ids.entry(word).or_insert(next_id);
                if id == unigram.len() {
                    unigram.push(0.0);
                }
                unigram[id] += 1.0;
                *bigram.entry((prev, id)).or_insert(0.0) += 1.0;
                prev = id;
            }
        }
        BigramLm::from_parts(ids, unigram, bigram, k)
    }

    fn from_parts(
        ids: HashMap<String, usize>,
        unigram: Vec<f64>,
        bigram: HashMap<(usize, usize), f64>,
        k: f64,
    ) -> BigramLm {
        let total = unigram.iter().sum();
        BigramLm { ids, unigram, total, bigram, k }
    }

    /// Vocabulary size (distinct words seen in training).
    pub fn vocab_size(&self) -> usize {
        self.ids.len()
    }

    /// The token of `word` (case-insensitive) in this model.
    pub(crate) fn token(&self, word: &str) -> Token {
        Token(self.ids.get(&word.to_lowercase()).copied())
    }

    /// Smoothed log `P(word | prev)`; `prev = None` means sentence start.
    ///
    /// Unknown words receive the smoothed floor probability.
    pub fn log_prob(&self, prev: Option<&str>, word: &str) -> f64 {
        let prev = prev.map_or(Token::BOS, |p| self.token(p));
        self.log_prob_token(prev, self.token(word))
    }

    /// [`log_prob`](Self::log_prob) of tokens this model resolved:
    /// `log_prob(prev, word)` is `log_prob_token` of their tokens, with
    /// [`Token::BOS`] for `prev = None`, bit for bit.
    pub(crate) fn log_prob_token(&self, prev: Token, word: Token) -> f64 {
        let v = self.ids.len() as f64 + 2.0; // + BOS + UNK
        let (num, den) = match (prev.0, word.0) {
            (Some(p), Some(w)) => (
                self.bigram.get(&(p, w)).copied().unwrap_or(0.0) + self.k,
                self.unigram[p] + self.k * v,
            ),
            (Some(p), None) => (self.k, self.unigram[p] + self.k * v),
            (None, Some(w)) => (self.unigram[w] + self.k, self.total + self.k * v),
            (None, None) => (self.k, self.total + self.k * v),
        };
        (num / den).ln()
    }

    /// Log-probability of a word sequence (BOS-anchored product of bigrams).
    pub fn sentence_log_prob(&self, words: &[&str]) -> f64 {
        let mut lp = 0.0;
        let mut prev: Option<&str> = None;
        for &w in words {
            lp += self.log_prob(prev, w);
            prev = Some(w);
        }
        lp
    }
}

impl Persist for BigramLm {
    const KIND: ArtifactKind = ArtifactKind::BIGRAM_LM;
    const SCHEMA_VERSION: u16 = 1;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.k);
        enc.put_f64s(&self.unigram);
        // Hash maps iterate in arbitrary order; serialise sorted so the
        // same model always produces the same bytes.
        let mut words: Vec<(&String, &usize)> = self.ids.iter().collect();
        words.sort();
        enc.put_usize(words.len());
        for (word, &id) in words {
            enc.put_str(word);
            enc.put_usize(id);
        }
        let mut pairs: Vec<(&(usize, usize), &f64)> = self.bigram.iter().collect();
        pairs.sort_by_key(|(k, _)| **k);
        enc.put_usize(pairs.len());
        for (&(prev, next), &count) in pairs {
            enc.put_usize(prev);
            enc.put_usize(next);
            enc.put_f64(count);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        let k = dec.f64()?;
        if !(k > 0.0) {
            return Err(ArtifactError::SchemaMismatch(format!("smoothing constant {k}")));
        }
        let unigram = dec.f64s()?;
        let n_words = dec.usize()?;
        if unigram.len() != n_words + 1 {
            return Err(ArtifactError::SchemaMismatch(format!(
                "unigram table {} entries for {n_words} words",
                unigram.len()
            )));
        }
        let mut ids = HashMap::with_capacity(n_words);
        for _ in 0..n_words {
            let word = dec.str()?;
            let id = dec.usize()?;
            if id == BOS || id >= unigram.len() || ids.insert(word, id).is_some() {
                return Err(ArtifactError::SchemaMismatch("word id table inconsistent".into()));
            }
        }
        let n_pairs = dec.usize()?;
        let mut bigram = HashMap::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            let prev = dec.usize()?;
            let next = dec.usize()?;
            let count = dec.f64()?;
            if prev >= unigram.len() || next >= unigram.len() {
                return Err(ArtifactError::SchemaMismatch("bigram id out of range".into()));
            }
            bigram.insert((prev, next), count);
        }
        Ok(BigramLm::from_parts(ids, unigram, bigram, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BigramLm {
        BigramLm::train(
            [
                "the man walked the dog",
                "the man found the book",
                "the woman found the book",
                "i see the sea",
            ],
            0.1,
        )
    }

    #[test]
    fn frequent_bigrams_beat_rare_ones() {
        let lm = toy();
        assert!(lm.log_prob(Some("the"), "man") > lm.log_prob(Some("the"), "dog"));
        assert!(lm.log_prob(Some("found"), "the") > lm.log_prob(Some("found"), "sea"));
    }

    #[test]
    fn unknown_words_get_floor_probability() {
        let lm = toy();
        let unk = lm.log_prob(Some("the"), "zyzzyva");
        assert!(unk.is_finite());
        assert!(unk < lm.log_prob(Some("the"), "man"));
    }

    #[test]
    fn sentence_scoring_prefers_training_like_text() {
        let lm = toy();
        let good = lm.sentence_log_prob(&["the", "man", "walked", "the", "dog"]);
        let bad = lm.sentence_log_prob(&["dog", "the", "walked", "man", "the"]);
        assert!(good > bad);
    }

    #[test]
    fn homophone_disambiguation_by_context() {
        let lm = BigramLm::train(["i see the sea", "we see the sea", "they see the sea"], 0.05);
        // After "the", the noun "sea" is likelier than the verb "see".
        assert!(lm.log_prob(Some("the"), "sea") > lm.log_prob(Some("the"), "see"));
        // Sentence-initially after "i", "see" is likelier.
        assert!(lm.log_prob(Some("i"), "see") > lm.log_prob(Some("i"), "sea"));
    }

    #[test]
    fn case_insensitive() {
        let lm = toy();
        assert_eq!(lm.log_prob(Some("THE"), "Man"), lm.log_prob(Some("the"), "man"));
    }

    #[test]
    fn persisted_lm_is_deterministic_and_faithful() {
        let lm = toy();
        let mut a = Vec::new();
        lm.write_to(&mut a).unwrap();
        // Same model, fresh hash maps: byte-identical artifact.
        let mut b = Vec::new();
        toy().write_to(&mut b).unwrap();
        assert_eq!(a, b);
        let back = BigramLm::read_from(&a[..]).unwrap();
        assert_eq!(back.vocab_size(), lm.vocab_size());
        for (prev, word) in
            [(None, "the"), (Some("the"), "man"), (Some("found"), "sea"), (Some("x"), "zyzzyva")]
        {
            assert_eq!(back.log_prob(prev, word).to_bits(), lm.log_prob(prev, word).to_bits());
        }
    }

    /// `log_prob` as it was before tokens: both words lowercased and
    /// hashed per call, the unigram total summed per call.
    fn oracle_log_prob(lm: &BigramLm, prev: Option<&str>, word: &str) -> f64 {
        let id = |w: &str| lm.ids.get(&w.to_lowercase()).copied();
        let v = lm.ids.len() as f64 + 2.0;
        let total: f64 = lm.unigram.iter().sum();
        let (num, den) = match (prev.map_or(Some(BOS), id), id(word)) {
            (Some(p), Some(w)) => {
                (lm.bigram.get(&(p, w)).copied().unwrap_or(0.0) + lm.k, lm.unigram[p] + lm.k * v)
            }
            (Some(p), None) => (lm.k, lm.unigram[p] + lm.k * v),
            (None, Some(w)) => (lm.unigram[w] + lm.k, total + lm.k * v),
            (None, None) => (lm.k, total + lm.k * v),
        };
        (num / den).ln()
    }

    #[test]
    fn token_path_equals_string_path_bit_for_bit() {
        let lm = toy();
        let mut words: Vec<&str> = lm.ids.keys().map(String::as_str).collect();
        words.sort();
        words.extend(["zyzzyva", "The"]);
        let prevs = words.iter().map(|&w| (Some(w), lm.token(w)));
        for (prev, prev_token) in prevs.chain([(None, Token::BOS)]) {
            for &word in &words {
                let oracle = oracle_log_prob(&lm, prev, word).to_bits();
                let by_token = lm.log_prob_token(prev_token, lm.token(word));
                assert_eq!(by_token.to_bits(), oracle, "{prev:?} -> {word}");
                assert_eq!(lm.log_prob(prev, word).to_bits(), oracle, "{prev:?} -> {word}");
            }
        }
    }

    #[test]
    fn probabilities_normalise_approximately() {
        // Σ_w P(w | prev) over seen vocab + UNK ≈ 1 (within smoothing mass).
        let lm = toy();
        let mut total = 0.0;
        for w in lm.ids.keys() {
            total += lm.log_prob(Some("the"), w).exp();
        }
        total += lm.log_prob(Some("the"), "zzz-unk").exp();
        assert!(total < 1.0 + 1e-9);
        assert!(total > 0.8, "mass {total}");
    }
}

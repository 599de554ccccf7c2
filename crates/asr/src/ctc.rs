//! CTC: greedy best-path decoding and the forward-backward loss with exact
//! gradients.
//!
//! Silence ([`Phoneme::SIL`]) is a *regular* output symbol (the analogue of
//! DeepSpeech's space character), so CTC targets carry word boundaries; a
//! dedicated blank class sits at index [`Phoneme::COUNT`]. The loss
//! gradient (`softmax − occupancy`) is what the white-box attack pushes
//! back through the acoustic model and MFCC pipeline into the waveform.

use mvp_dsp::kernel;
use mvp_dsp::mfcc::FeatureMatrix;
use mvp_phonetics::Phoneme;

use crate::am::{argmax, softmax_into};

/// The class index used as the CTC blank (one past the phoneme inventory).
pub fn blank_index() -> usize {
    Phoneme::COUNT
}

/// Per-frame argmax labels with runs shorter than `min_run` removed
/// (transition-frame denoising), then collapsed (consecutive duplicates
/// merged).
///
/// The result retains [`Phoneme::SIL`] entries — the word decoder uses them
/// as word-boundary separators. This is one batch drive of a
/// [`RunAccumulator`], so chunked and one-shot decoding share the
/// denoise/collapse logic by construction.
pub fn greedy_phonemes(logits: &FeatureMatrix, min_run: usize) -> Vec<Phoneme> {
    let mut acc = RunAccumulator::default();
    for row in logits.rows() {
        acc.push_logits_row(row);
    }
    acc.phonemes(min_run)
}

/// Incremental greedy best-path state: per-frame argmax labels folded into
/// `(label, run length)` pairs as frames arrive.
///
/// Runs only grow at the end, and a run that has reached `min_run` frames
/// stays emitted, so [`phonemes`](Self::phonemes) only grows at its end
/// too: of all runs, only the last can still turn from dropped to emitted.
/// `emit_from` hands out that growth run by run. The streaming ASR path
/// pushes each new logit row here and feeds the growth to the decoder's
/// incremental word state instead of rebuilding the sequence per poll;
/// [`greedy_phonemes`] drives the same accumulator over a whole matrix, so
/// the final chunked decode is byte-identical to the batch decode.
#[derive(Debug, Clone, Default)]
pub struct RunAccumulator {
    /// `(label, length)` for each maximal run of equal argmax labels.
    runs: Vec<(usize, usize)>,
    n_frames: usize,
}

impl RunAccumulator {
    /// Clears the state for a new utterance, keeping capacity.
    pub fn reset(&mut self) {
        self.runs.clear();
        self.n_frames = 0;
    }

    /// Number of logit frames consumed since the last reset.
    pub fn n_frames(&self) -> usize {
        self.n_frames
    }

    /// Consumes one frame of logits: argmax with the blank class (never
    /// seen in training, so effectively never the argmax) folded into
    /// silence for word chunking.
    pub fn push_logits_row(&mut self, row: &[f64]) {
        let a = argmax(row);
        self.push_label(if a >= Phoneme::COUNT { Phoneme::SIL.index() } else { a });
    }

    /// Consumes one pre-computed frame label.
    pub fn push_label(&mut self, label: usize) {
        self.n_frames += 1;
        match self.runs.last_mut() {
            Some((prev, n)) if *prev == label => *n += 1,
            _ => self.runs.push((label, 1)),
        }
    }

    /// The denoised (runs shorter than `min_run` dropped) and collapsed
    /// phoneme sequence of the frames seen so far.
    pub fn phonemes(&self, min_run: usize) -> Vec<Phoneme> {
        let mut out: Vec<Phoneme> = Vec::new();
        self.emit_from(min_run, &mut 0, |ph| {
            if out.last() != Some(&ph) {
                out.push(ph);
            }
        });
        out
    }

    /// Emits, in order, the phoneme of each run from index `*next` on that
    /// [`phonemes`](Self::phonemes)`(min_run)` keeps (before it collapses
    /// repeats), and moves `*next` past every run whose fate is final: the
    /// emitted runs, and the dropped ones that a later run has closed. A
    /// last run still short of `min_run` stays pending for the next call.
    pub(crate) fn emit_from(
        &self,
        min_run: usize,
        next: &mut usize,
        mut emit: impl FnMut(Phoneme),
    ) {
        for (i, &(label, n)) in self.runs.iter().enumerate().skip(*next) {
            if n >= min_run {
                emit(Phoneme::from_index(label));
            } else if i + 1 == self.runs.len() {
                return;
            }
            *next = i + 1;
        }
    }
}

/// Collapses per-frame labels CTC-style: merge repeats, then drop blanks.
pub fn collapse_labels(labels: &[usize]) -> Vec<usize> {
    let blank = blank_index();
    let mut out = Vec::new();
    let mut prev = usize::MAX;
    for &l in labels {
        if l != prev && l != blank {
            out.push(l);
        }
        prev = l;
    }
    out
}

/// Allocation-free log-sum-exp over a cloneable iterator (the trellis
/// calls this per cell, so a temporary `Vec` here dominated the loss).
/// Summation order matches the historical collect-then-sum form
/// bit-for-bit: same max, same left-to-right accumulation over the
/// finite entries.
fn log_sum_exp(values: impl IntoIterator<Item = f64> + Clone) -> f64 {
    let m = values
        .clone()
        .into_iter()
        .filter(|v| *v > f64::NEG_INFINITY)
        .fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 =
        values.into_iter().filter(|v| *v > f64::NEG_INFINITY).map(|v| (v - m).exp()).sum();
    m + sum.ln()
}

/// CTC negative log-likelihood of `target` (class indices, no blanks) under
/// the per-frame `logits`, together with the gradient w.r.t. the logits.
///
/// Returns `(f64::INFINITY, zeros)` when the target cannot be emitted in
/// the available frames.
///
/// # Panics
///
/// Panics if `logits` is empty or `target` contains the blank.
pub fn ctc_loss_and_grad(logits: &FeatureMatrix, target: &[usize]) -> (f64, FeatureMatrix) {
    let t_len = logits.n_frames();
    assert!(t_len > 0, "no frames");
    let c = logits.dim();
    let blank = blank_index();
    assert!(c > blank, "logit width {c} lacks the blank class {blank}");
    assert!(!target.contains(&blank), "target must not contain the blank");

    // Extended label sequence: blank-interleaved.
    let s_len = 2 * target.len() + 1;
    let ext = |s: usize| -> usize {
        if s.is_multiple_of(2) {
            blank
        } else {
            target[s / 2]
        }
    };
    // Minimum frames needed: every label plus a blank between repeated pairs.
    let mut min_frames = target.len();
    for w in target.windows(2) {
        if w[0] == w[1] {
            min_frames += 1;
        }
    }
    if t_len < min_frames {
        return (f64::INFINITY, FeatureMatrix::zeros(t_len, c));
    }

    // Log-softmax per frame, one contiguous matrix. Frames are
    // independent, so this fans out across kernel workers (results are
    // bit-identical at any worker count).
    let mut y = FeatureMatrix::zeros(t_len, c);
    kernel::par_rows(
        y.as_mut_slice(),
        c,
        || (),
        |(), t, out| {
            softmax_into(logits.row(t), out);
            for o in out.iter_mut() {
                *o = o.max(1e-300).ln();
            }
        },
    );
    let y = y;

    const NEG: f64 = f64::NEG_INFINITY;
    // Forward and backward trellises, flat with stride `s_len`.
    let at = |t: usize, s: usize| t * s_len + s;
    let mut alpha = vec![NEG; t_len * s_len];
    alpha[at(0, 0)] = y.row(0)[ext(0)];
    if s_len > 1 {
        alpha[at(0, 1)] = y.row(0)[ext(1)];
    }
    for t in 1..t_len {
        for s in 0..s_len {
            let mut terms = [alpha[at(t - 1, s)], NEG, NEG];
            if s >= 1 {
                terms[1] = alpha[at(t - 1, s - 1)];
            }
            if s >= 2 && ext(s) != blank && ext(s) != ext(s - 2) {
                terms[2] = alpha[at(t - 1, s - 2)];
            }
            let acc = log_sum_exp(terms);
            alpha[at(t, s)] = if acc == NEG { NEG } else { acc + y.row(t)[ext(s)] };
        }
    }
    let log_p = log_sum_exp([
        alpha[at(t_len - 1, s_len - 1)],
        if s_len >= 2 { alpha[at(t_len - 1, s_len - 2)] } else { NEG },
    ]);
    if log_p == NEG {
        return (f64::INFINITY, FeatureMatrix::zeros(t_len, c));
    }

    // Backward (beta excludes the emission at frame t).
    let mut beta = vec![NEG; t_len * s_len];
    beta[at(t_len - 1, s_len - 1)] = 0.0;
    if s_len >= 2 {
        beta[at(t_len - 1, s_len - 2)] = 0.0;
    }
    for t in (0..t_len - 1).rev() {
        for s in 0..s_len {
            let mut terms = [beta[at(t + 1, s)] + y.row(t + 1)[ext(s)], NEG, NEG];
            if s + 1 < s_len {
                terms[1] = beta[at(t + 1, s + 1)] + y.row(t + 1)[ext(s + 1)];
            }
            if s + 2 < s_len && ext(s + 2) != blank && ext(s + 2) != ext(s) {
                terms[2] = beta[at(t + 1, s + 2)] + y.row(t + 1)[ext(s + 2)];
            }
            beta[at(t, s)] = log_sum_exp(terms);
        }
    }

    // Gradient: softmax − occupancy. Each frame reads only its own
    // trellis column, so the rows fan out across kernel workers with a
    // per-worker (probs, occupancy) scratch pair.
    let mut grad = FeatureMatrix::zeros(t_len, c);
    let (alpha_ref, beta_ref, ext_ref) = (&alpha, &beta, &ext);
    kernel::par_rows(
        grad.as_mut_slice(),
        c,
        || (vec![0.0; c], vec![NEG; c]),
        |(probs, occ_log), t, row| {
            softmax_into(logits.row(t), probs);
            // Occupancy per class at frame t.
            occ_log.fill(NEG);
            for s in 0..s_len {
                let v = alpha_ref[at(t, s)] + beta_ref[at(t, s)];
                if v > NEG {
                    let k = ext_ref(s);
                    occ_log[k] = log_sum_exp([occ_log[k], v]);
                }
            }
            for (k, o) in row.iter_mut().enumerate() {
                let occ = if occ_log[k] == NEG { 0.0 } else { (occ_log[k] - log_p).exp() };
                *o = probs[k] - occ;
            }
        },
    );
    (-log_p, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::N_CLASSES;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_logits(t: usize, c: usize, seed: u64) -> FeatureMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = FeatureMatrix::zeros(t, c);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-2.0..2.0);
        }
        m
    }

    #[test]
    fn greedy_collapses_and_denoises() {
        let mk = |idx: usize| {
            let mut l = vec![0.0; N_CLASSES];
            l[idx] = 10.0;
            l
        };
        let a = Phoneme::AA.index();
        let b = Phoneme::B.index();
        let sil = Phoneme::SIL.index();
        // AA AA AA (B glitch) AA SIL SIL B B
        let logits = FeatureMatrix::from_rows(
            vec![mk(a), mk(a), mk(a), mk(b), mk(a), mk(sil), mk(sil), mk(b), mk(b)],
            N_CLASSES,
        );
        let seq = greedy_phonemes(&logits, 2);
        assert_eq!(seq, vec![Phoneme::AA, Phoneme::SIL, Phoneme::B]);
    }

    #[test]
    fn run_accumulator_matches_batch_greedy_and_resets() {
        let logits = random_logits(40, N_CLASSES, 11);
        for min_run in [1usize, 2, 3] {
            let mut acc = RunAccumulator::default();
            for row in logits.rows() {
                acc.push_logits_row(row);
            }
            assert_eq!(acc.phonemes(min_run), greedy_phonemes(&logits, min_run));
            assert_eq!(acc.n_frames(), 40);
            acc.reset();
            assert_eq!(acc.n_frames(), 0);
            assert!(acc.phonemes(min_run).is_empty());
        }
    }

    #[test]
    fn collapse_labels_drops_blanks_and_repeats() {
        let blank = blank_index();
        let labels = vec![blank, 3, 3, blank, 3, 5, 5, blank];
        assert_eq!(collapse_labels(&labels), vec![3, 3, 5]);
    }

    #[test]
    fn impossible_target_is_infinite() {
        let logits = random_logits(2, N_CLASSES, 1);
        let target = vec![1, 2, 3]; // needs >= 3 frames
        let (loss, grad) = ctc_loss_and_grad(&logits, &target);
        assert!(loss.is_infinite());
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn perfect_path_has_low_loss() {
        let target = vec![Phoneme::AA.index(), Phoneme::B.index()];
        let blank = blank_index();
        let path = [blank, target[0], target[0], blank, target[1], blank];
        let logits = FeatureMatrix::from_rows(
            path.iter()
                .map(|&k| {
                    let mut l = vec![-5.0; N_CLASSES];
                    l[k] = 5.0;
                    l
                })
                .collect(),
            N_CLASSES,
        );
        let (loss, _) = ctc_loss_and_grad(&logits, &target);
        assert!(loss < 0.1, "loss {loss}");
        // A wrong target under the same logits scores much worse.
        let (wrong, _) = ctc_loss_and_grad(&logits, &[Phoneme::S.index()]);
        assert!(wrong > loss + 2.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let t = 6;
        let c = 8; // use a small class count via fake blank? blank index is SIL
                   // Use the real class count so blank_index() is valid.
        let _ = c;
        let logits = random_logits(t, N_CLASSES, 42);
        let target = vec![Phoneme::AA.index(), Phoneme::B.index(), Phoneme::AA.index()];
        let (_, grad) = ctc_loss_and_grad(&logits, &target);
        let eps = 1e-6;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let ti = rng.gen_range(0..t);
            let ci = rng.gen_range(0..N_CLASSES);
            let mut hi = logits.clone();
            hi.row_mut(ti)[ci] += eps;
            let mut lo = logits.clone();
            lo.row_mut(ti)[ci] -= eps;
            let (lh, _) = ctc_loss_and_grad(&hi, &target);
            let (ll, _) = ctc_loss_and_grad(&lo, &target);
            let fd = (lh - ll) / (2.0 * eps);
            assert!(
                (grad.row(ti)[ci] - fd).abs() < 1e-5,
                "({ti},{ci}): analytic {} vs fd {fd}",
                grad.row(ti)[ci]
            );
        }
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let mut logits = random_logits(10, N_CLASSES, 3);
        let target = vec![Phoneme::S.index(), Phoneme::IY.index()];
        let (before, grad) = ctc_loss_and_grad(&logits, &target);
        for (lv, gv) in logits.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *lv -= 0.5 * gv;
        }
        let (after, _) = ctc_loss_and_grad(&logits, &target);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn empty_target_prefers_all_blank() {
        let blank = blank_index();
        let mut logits = random_logits(4, N_CLASSES, 9);
        for t in 0..logits.n_frames() {
            logits.row_mut(t)[blank] = 9.0;
        }
        let (loss, _) = ctc_loss_and_grad(&logits, &[]);
        assert!(loss < 0.5, "loss {loss}");
    }

    #[test]
    fn repeated_labels_need_separating_blank() {
        // Target [X, X] requires at least 3 frames (X, blank, X).
        let target = vec![Phoneme::T.index(), Phoneme::T.index()];
        let logits = random_logits(2, N_CLASSES, 5);
        let (loss, _) = ctc_loss_and_grad(&logits, &target);
        assert!(loss.is_infinite());
        let logits3 = random_logits(3, N_CLASSES, 5);
        let (loss3, _) = ctc_loss_and_grad(&logits3, &target);
        assert!(loss3.is_finite());
    }
}

//! Output-distribution features (DistriBlock / logit-noising style):
//! characterise the target ASR's per-frame output distribution and its
//! decode stability under seeded logit noise.
//!
//! Adversarial perturbations steer the acoustic model through
//! low-margin regions of its decision surface: frame distributions run
//! hotter (higher entropy, lower max probability, thinner top-1/top-2
//! margin) and small logit perturbations flip the decoded string far
//! more often than on benign speech.

use std::borrow::Cow;
use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mvp_asr::am::{softmax_into, N_CLASSES};
use mvp_audio::Waveform;
use mvp_dsp::Mat;

use crate::{drift_similarity, Evidence, Modality, ModalityKind};

/// The output-distribution modality. Features, in order (all oriented
/// higher = more benign-stable):
///
/// 1. `negentropy` — `1 − H/ln C`, mean over frames;
/// 2. `max_prob` — mean per-frame max softmax probability;
/// 3. `margin` — mean per-frame top-1 − top-2 softmax margin;
/// 4. `noise_stability` — mean drift similarity of the decode under
///    seeded Gaussian logit noise vs. the clean decode.
///
/// Noise draw `d` of an `N`-element logit matrix adds, to element `i`,
/// element `d·N + i` of one fixed stream: `noise_scale` times the
/// standard-normal draws of a generator seeded from `seed`. The same
/// stream serves every request, so each instance draws it once, on first
/// use, into a table of at most 2¹⁶ values (512 KiB); a longer stream
/// continues from the generator state the table saved.
#[derive(Debug, Clone)]
pub struct DistributionFeatures {
    noise_draws: usize,
    noise_scale: f64,
    seed: u64,
    noise: OnceLock<NoiseTable>,
}

impl Default for DistributionFeatures {
    fn default() -> DistributionFeatures {
        DistributionFeatures::new(3, 0.5, 0xD157)
    }
}

impl DistributionFeatures {
    /// A modality with explicit noise configuration: `noise_draws`
    /// seeded logit perturbations of standard deviation `noise_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `noise_draws` is zero or `noise_scale` is not positive.
    pub fn new(noise_draws: usize, noise_scale: f64, seed: u64) -> DistributionFeatures {
        assert!(noise_draws > 0, "at least one noise draw is required");
        assert!(noise_scale > 0.0, "noise scale must be positive");
        DistributionFeatures { noise_draws, noise_scale, seed, noise: OnceLock::new() }
    }

    /// The first `len` values of the noise stream, drawn on first use.
    fn noise(&self, len: usize) -> Cow<'_, [f64]> {
        let table = self.noise.get_or_init(|| NoiseTable::new(self.seed, self.noise_scale));
        table.stream(len)
    }
}

/// Values of the noise stream kept per instance: at 8 bytes each, the
/// table holds 512 KiB, whatever the audio length.
const NOISE_TABLE_CAP: usize = 1 << 16;

/// The head of a [`DistributionFeatures`] noise stream and the generator
/// state after it.
#[derive(Clone)]
struct NoiseTable {
    /// The stream's first [`NOISE_TABLE_CAP`] values.
    head: Vec<f64>,
    /// The generator after drawing `head`, from which a longer stream
    /// continues.
    rest: SmallRng,
    scale: f64,
}

impl std::fmt::Debug for NoiseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoiseTable").field("len", &self.head.len()).finish_non_exhaustive()
    }
}

impl NoiseTable {
    fn new(seed: u64, scale: f64) -> NoiseTable {
        let mut rng = SmallRng::seed_from_u64(seed);
        let head = (0..NOISE_TABLE_CAP).map(|_| scale * gaussian(&mut rng)).collect();
        NoiseTable { head, rest: rng, scale }
    }

    /// The stream's first `len` values: borrowed from the table within
    /// the cap, and past it continued from the saved generator state.
    fn stream(&self, len: usize) -> Cow<'_, [f64]> {
        if len <= self.head.len() {
            return Cow::Borrowed(&self.head[..len]);
        }
        let mut rng = self.rest.clone();
        let mut values = Vec::with_capacity(len);
        values.extend_from_slice(&self.head);
        values.extend((self.head.len()..len).map(|_| self.scale * gaussian(&mut rng)));
        Cow::Owned(values)
    }
}

/// A cheap deterministic standard-normal draw (Box–Muller over the
/// shim RNG's uniforms).
fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12f64..1.0);
    let u2: f64 = rng.gen_range(0.0f64..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Modality for DistributionFeatures {
    fn kind(&self) -> ModalityKind {
        ModalityKind::Distribution
    }

    fn feature_dim(&self) -> usize {
        4
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &["negentropy", "max_prob", "margin", "noise_stability"]
    }

    fn n_derived(&self) -> usize {
        0
    }

    /// The features read the target's logits, not derived audio.
    fn derive(&self, _wave: &Waveform, _j: usize) -> Option<Waveform> {
        None
    }

    fn reads_logits(&self) -> bool {
        true
    }

    fn features(&self, evidence: &Evidence<'_>) -> Vec<f64> {
        let (asr, logits) = (evidence.asr, evidence.logits);
        if logits.is_empty() {
            // No frames (empty/near-empty audio): neutral, maximally
            // benign-stable evidence rather than NaNs.
            return vec![1.0; self.feature_dim()];
        }

        let clean = asr.decoder().decode(logits);
        let n = logits.as_slice().len();
        let noise = self.noise(self.noise_draws * n);
        let mut stability = 0.0f64;
        let mut noisy = Mat::zeros(logits.n_rows(), logits.n_cols());
        for d in 0..self.noise_draws {
            let draw = &noise[d * n..(d + 1) * n];
            for ((dst, &src), &z) in
                noisy.as_mut_slice().iter_mut().zip(logits.as_slice()).zip(draw)
            {
                *dst = src + z;
            }
            stability += drift_similarity(&clean, &asr.decoder().decode(&noisy));
        }

        let mut block = frame_statistics(logits);
        block.push(stability / self.noise_draws as f64);
        block
    }
}

/// The first three features of a non-empty logit matrix: mean
/// negentropy, max probability and top-1/top-2 margin of its frames'
/// softmax distributions.
fn frame_statistics(logits: &Mat) -> Vec<f64> {
    let ln_c = (N_CLASSES as f64).ln();
    let mut probs = vec![0.0f64; N_CLASSES];
    let (mut entropy_sum, mut max_sum, mut margin_sum) = (0.0f64, 0.0f64, 0.0f64);
    for frame in logits.rows() {
        softmax_into(frame, &mut probs);
        let mut entropy = 0.0;
        let (mut top1, mut top2) = (0.0f64, 0.0f64);
        for &p in &probs {
            if p > 0.0 {
                entropy -= p * p.ln();
            }
            if p > top1 {
                top2 = top1;
                top1 = p;
            } else if p > top2 {
                top2 = p;
            }
        }
        entropy_sum += entropy / ln_c;
        max_sum += top1;
        margin_sum += top1 - top2;
    }
    let n = logits.n_rows() as f64;
    vec![1.0 - entropy_sum / n, max_sum / n, margin_sum / n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModalityInput;
    use mvp_asr::TrainedAsr;
    use mvp_asr::{Asr, AsrProfile};
    use mvp_audio::synth::{SpeakerProfile, Synthesizer};
    use mvp_audio::Waveform;
    use mvp_phonetics::Lexicon;

    fn scored(wave: &Waveform) -> Vec<f64> {
        let asr = AsrProfile::Ds0.trained();
        let target = asr.transcribe(wave);
        DistributionFeatures::default().score(&ModalityInput::new(&asr, wave, &target)).features
    }

    #[test]
    fn features_are_unit_bounded() {
        let synth = Synthesizer::new(16_000);
        let (wave, _) = synth.synthesize(
            &Lexicon::builtin(),
            "open the front door",
            &SpeakerProfile::default(),
        );
        let f = scored(&wave);
        assert_eq!(f.len(), 4);
        for (i, v) in f.iter().enumerate() {
            assert!((0.0..=1.0).contains(v), "feature {i} = {v}");
        }
    }

    #[test]
    fn empty_audio_is_neutral() {
        let wave = Waveform::from_samples(Vec::new(), 16_000);
        assert_eq!(scored(&wave), vec![1.0; 4]);
    }

    #[test]
    fn deterministic_across_calls() {
        let synth = Synthesizer::new(16_000);
        let (wave, _) =
            synth.synthesize(&Lexicon::builtin(), "good morning", &SpeakerProfile::default());
        assert_eq!(scored(&wave), scored(&wave));
    }

    /// `features` as it was before the table: every call draws its noise
    /// from a generator seeded afresh.
    fn per_call_draw(m: &DistributionFeatures, asr: &TrainedAsr, logits: &Mat) -> Vec<f64> {
        if logits.is_empty() {
            return vec![1.0; 4];
        }
        let clean = asr.decoder().decode(logits);
        let mut rng = SmallRng::seed_from_u64(m.seed);
        let mut stability = 0.0f64;
        let mut noisy = Mat::zeros(logits.n_rows(), logits.n_cols());
        for _ in 0..m.noise_draws {
            for (dst, &src) in noisy.as_mut_slice().iter_mut().zip(logits.as_slice()) {
                *dst = src + m.noise_scale * gaussian(&mut rng);
            }
            stability += drift_similarity(&clean, &asr.decoder().decode(&noisy));
        }
        let mut block = frame_statistics(logits);
        block.push(stability / m.noise_draws as f64);
        block
    }

    fn from_table(m: &DistributionFeatures, asr: &TrainedAsr, logits: &Mat) -> Vec<u64> {
        let wave = Waveform::from_samples(Vec::new(), 16_000);
        let evidence = Evidence { asr, wave: &wave, target_text: "", logits, derived: &[] };
        m.features(&evidence).iter().map(|v| v.to_bits()).collect()
    }

    fn oracle(m: &DistributionFeatures, asr: &TrainedAsr, logits: &Mat) -> Vec<u64> {
        per_call_draw(m, asr, logits).iter().map(|v| v.to_bits()).collect()
    }

    /// `rows` frames of seeded logits uniform in ±`spread`.
    fn random_logits(seed: u64, rows: usize, spread: f64) -> Mat {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = Mat::zeros(rows, N_CLASSES);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-spread..spread);
        }
        m
    }

    /// Matrices from no frame to one whose three draws pass the table's
    /// cap, for the default and two other noise configurations.
    #[test]
    fn table_features_equal_per_call_draw_bit_for_bit() {
        let asr = AsrProfile::Ds0.trained();
        let past_cap = NOISE_TABLE_CAP / (3 * N_CLASSES) + 7;
        assert!(3 * past_cap * N_CLASSES > NOISE_TABLE_CAP);
        for m in [
            DistributionFeatures::default(),
            DistributionFeatures::new(1, 0.25, 7),
            DistributionFeatures::new(5, 1.5, 99),
        ] {
            for (i, rows) in [1, 2, 37, 180, 0, past_cap].into_iter().enumerate() {
                for spread in [1.0, 8.0] {
                    let logits = random_logits(i as u64, rows, spread);
                    assert_eq!(
                        from_table(&m, &asr, &logits),
                        oracle(&m, &asr, &logits),
                        "{m:?} on {rows} frames"
                    );
                }
            }
        }
    }

    /// Two threads racing to draw one instance's table, as the engine's
    /// target worker and an in-process `detect` sharing a registry do.
    #[test]
    fn table_is_drawn_once_for_concurrent_callers() {
        let asr = AsrProfile::Ds0.trained();
        let m = DistributionFeatures::default();
        let past_cap = NOISE_TABLE_CAP / (3 * N_CLASSES) + 1;
        let inputs: Vec<Mat> = [40, past_cap, 3]
            .into_iter()
            .enumerate()
            .map(|(i, rows)| random_logits(100 + i as u64, rows, 6.0))
            .collect();
        let want: Vec<Vec<u64>> = inputs.iter().map(|l| oracle(&m, &asr, l)).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        inputs.iter().map(|l| from_table(&m, &asr, l)).collect()
                    })
                })
                .collect();
            for run in runs {
                let got: Vec<Vec<u64>> = run.join().expect("caller thread");
                assert_eq!(got, want);
            }
        });
    }

    #[test]
    fn confident_logits_score_stabler_than_flat() {
        // Synthetic check of the orientation contract on the entropy /
        // margin features: peaked distributions → higher features.
        let peaked = {
            let mut m = Mat::zeros(4, N_CLASSES);
            for r in 0..4 {
                m.row_mut(r)[r % N_CLASSES] = 12.0;
            }
            m
        };
        let ln_c = (N_CLASSES as f64).ln();
        let mut probs = vec![0.0; N_CLASSES];
        softmax_into(peaked.row(0), &mut probs);
        let entropy: f64 = -probs.iter().filter(|&&p| p > 0.0).map(|&p| p * p.ln()).sum::<f64>();
        assert!(entropy / ln_c < 0.25, "peaked rows should have low entropy");
    }
}

//! Output-distribution features (DistriBlock / logit-noising style):
//! characterise the target ASR's per-frame output distribution and its
//! decode stability under seeded logit noise.
//!
//! Adversarial perturbations steer the acoustic model through
//! low-margin regions of its decision surface: frame distributions run
//! hotter (higher entropy, lower max probability, thinner top-1/top-2
//! margin) and small logit perturbations flip the decoded string far
//! more often than on benign speech.

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
#[derive(Debug, Clone)]
pub struct DistributionFeatures {
    noise_draws: usize,
    noise_scale: f64,
    seed: u64,
}

impl Default for DistributionFeatures {
    fn default() -> DistributionFeatures {
        DistributionFeatures { noise_draws: 3, noise_scale: 0.5, seed: 0xD157 }
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
        DistributionFeatures { noise_draws, noise_scale, seed }
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

        let clean = asr.decoder().decode(logits);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut stability = 0.0f64;
        let mut noisy = Mat::zeros(logits.n_rows(), logits.n_cols());
        for _ in 0..self.noise_draws {
            for (dst, &src) in noisy.as_mut_slice().iter_mut().zip(logits.as_slice()) {
                *dst = src + self.noise_scale * gaussian(&mut rng);
            }
            stability += drift_similarity(&clean, &asr.decoder().decode(&noisy));
        }

        vec![
            1.0 - entropy_sum / n,
            max_sum / n,
            margin_sum / n,
            stability / self.noise_draws as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModalityInput;
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

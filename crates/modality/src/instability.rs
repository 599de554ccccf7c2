//! Variant instability (FraudWhistler-style): transcribe N seeded noisy
//! copies of the input and measure how unstable the prediction is.
//!
//! Benign speech keeps its transcription under mild additive noise;
//! adversarial perturbations are fragile, so noisy variants snap back
//! toward the host utterance (or to something else entirely) and the
//! per-variant transcriptions disagree with the clean one. The feature
//! block these statistics form is what `mvp_ml::OneClassScorer` is
//! fitted on when the block is fused (benign-only training — no AE data
//! needed).

use mvp_asr::AsrScratch;
use mvp_audio::noise::mix_at_snr;
use mvp_audio::{NoiseKind, Waveform};

use crate::{drift_similarity, Modality, ModalityInput, ModalityKind, ModalityScore};

/// The variant-instability modality. Features, in order (higher = more
/// benign-stable):
///
/// 1. `mean_agreement` — mean drift similarity of variant
///    transcriptions vs. the clean one;
/// 2. `min_agreement` — the worst variant's drift similarity;
/// 3. `exact_frac` — fraction of variants whose transcription is
///    byte-identical to the clean one.
#[derive(Debug, Clone)]
pub struct VariantInstability {
    n_variants: usize,
    snr_db: f64,
    seed: u64,
}

impl Default for VariantInstability {
    fn default() -> VariantInstability {
        VariantInstability { n_variants: 4, snr_db: 20.0, seed: 0x5EED }
    }
}

impl VariantInstability {
    /// A modality with explicit perturbation configuration:
    /// `n_variants` white-noise mixes at `snr_db` dB SNR, seeded from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_variants` is zero.
    pub fn new(n_variants: usize, snr_db: f64, seed: u64) -> VariantInstability {
        assert!(n_variants > 0, "at least one variant is required");
        VariantInstability { n_variants, snr_db, seed }
    }

    /// Number of perturbed variants per score.
    pub fn n_variants(&self) -> usize {
        self.n_variants
    }
}

impl Modality for VariantInstability {
    fn kind(&self) -> ModalityKind {
        ModalityKind::Instability
    }

    fn feature_dim(&self) -> usize {
        3
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &["mean_agreement", "min_agreement", "exact_frac"]
    }

    fn score(&self, input: &ModalityInput<'_>) -> ModalityScore {
        let n = input.wave.samples().len();
        if n == 0 {
            return ModalityScore { features: vec![1.0; self.feature_dim()] };
        }
        let variants: Vec<Waveform> = (0..self.n_variants)
            .map(|i| {
                let noise =
                    NoiseKind::White.generate(n, input.wave.sample_rate(), self.seed + i as u64);
                mix_at_snr(input.wave, &noise, self.snr_db)
            })
            .collect();
        let refs: Vec<&Waveform> = variants.iter().collect();
        let texts = input.asr.transcribe_batch_with(&refs, &mut AsrScratch::default());

        let clean = input.target_text;
        let agreements: Vec<f64> = texts.iter().map(|t| drift_similarity(clean, t)).collect();
        let mean = agreements.iter().sum::<f64>() / agreements.len() as f64;
        let min = agreements.iter().copied().fold(f64::INFINITY, f64::min);
        let exact =
            texts.iter().filter(|t| t.as_str() == clean).count() as f64 / texts.len() as f64;
        ModalityScore { features: vec![mean, min, exact] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_asr::{Asr, AsrProfile};
    use mvp_audio::synth::{SpeakerProfile, Synthesizer};
    use mvp_phonetics::Lexicon;

    fn scored(wave: &Waveform) -> Vec<f64> {
        let asr = AsrProfile::Ds0.trained();
        let target = asr.transcribe(wave);
        VariantInstability::default().score(&ModalityInput::new(&asr, wave, &target)).features
    }

    #[test]
    fn benign_speech_is_noise_stable() {
        let synth = Synthesizer::new(16_000);
        let (wave, _) = synth.synthesize(
            &Lexicon::builtin(),
            "the man walked the street",
            &SpeakerProfile::default(),
        );
        let f = scored(&wave);
        assert_eq!(f.len(), 3);
        assert!(f[0] > 0.6, "mean agreement {}", f[0]);
        assert!(f[1] <= f[0], "min {} must not exceed mean {}", f[1], f[0]);
        assert!((0.0..=1.0).contains(&f[2]), "exact fraction {}", f[2]);
    }

    #[test]
    fn empty_audio_is_neutral() {
        assert_eq!(scored(&Waveform::from_samples(Vec::new(), 16_000)), vec![1.0; 3]);
    }

    #[test]
    fn seeded_scoring_is_deterministic() {
        let synth = Synthesizer::new(16_000);
        let (wave, _) =
            synth.synthesize(&Lexicon::builtin(), "turn on the light", &SpeakerProfile::default());
        assert_eq!(scored(&wave), scored(&wave));
    }
}

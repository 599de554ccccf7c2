//! Transform-and-compare (WaveGuard-style): re-transcribe the audio
//! after small audio-domain transforms and measure transcription drift.
//!
//! Benign speech is robust to mild quantization, resampling and
//! low-pass filtering; adversarial perturbations are crafted against the
//! exact input signal and often do not survive them, so the transformed
//! transcription drifts away from the original one.

use mvp_asr::AsrScratch;
use mvp_audio::{resample, Waveform};

use crate::{drift_similarity, Modality, ModalityInput, ModalityKind, ModalityScore};

/// An input-purification transform over a [`Waveform`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AudioTransform {
    /// Quantize-dequantize: round every sample to `bits`-bit resolution.
    Quantize {
        /// Bit depth of the quantization grid (≥ 2).
        bits: u32,
    },
    /// Downsample to `rate` Hz and back up to the original rate.
    DownUpsample {
        /// Intermediate sample rate in Hz.
        rate: u32,
    },
    /// Single-pole low-pass filter.
    LowPass {
        /// −3 dB cutoff frequency in Hz.
        cutoff_hz: f64,
    },
}

impl AudioTransform {
    /// Stable lowercase name (feature names, tables).
    pub fn name(self) -> &'static str {
        match self {
            AudioTransform::Quantize { .. } => "quantize",
            AudioTransform::DownUpsample { .. } => "down_upsample",
            AudioTransform::LowPass { .. } => "low_pass",
        }
    }

    /// Applies the transform, returning a new waveform at the input's
    /// sample rate and length.
    pub fn apply(self, wave: &Waveform) -> Waveform {
        match self {
            AudioTransform::Quantize { bits } => {
                let levels = (1u32 << bits.clamp(2, 16)) - 1;
                let step = 2.0 / levels as f32;
                let samples = wave
                    .samples()
                    .iter()
                    .map(|&s| ((s.clamp(-1.0, 1.0) + 1.0) / step).round() * step - 1.0)
                    .collect();
                Waveform::from_samples(samples, wave.sample_rate())
            }
            AudioTransform::DownUpsample { rate } => {
                let down = resample(wave, rate);
                let up = resample(&down, wave.sample_rate());
                // Linear resampling can come back a sample short; pad so
                // downstream framing sees the original length.
                let mut samples = up.samples().to_vec();
                samples.resize(wave.samples().len(), 0.0);
                Waveform::from_samples(samples, wave.sample_rate())
            }
            AudioTransform::LowPass { cutoff_hz } => {
                let dt = 1.0 / wave.sample_rate() as f64;
                let rc = 1.0 / (2.0 * std::f64::consts::PI * cutoff_hz.max(1.0));
                let alpha = (dt / (rc + dt)) as f32;
                let mut y = 0.0f32;
                let samples = wave
                    .samples()
                    .iter()
                    .map(|&s| {
                        y += alpha * (s - y);
                        y
                    })
                    .collect();
                Waveform::from_samples(samples, wave.sample_rate())
            }
        }
    }
}

/// The default transform set: 8-bit quantization, an 8 kHz resampling
/// round trip, and a 3.5 kHz low-pass — the mild end of WaveGuard's
/// sweep, chosen to keep benign drift near zero.
pub const DEFAULT_TRANSFORMS: [AudioTransform; 3] = [
    AudioTransform::Quantize { bits: 8 },
    AudioTransform::DownUpsample { rate: 8_000 },
    AudioTransform::LowPass { cutoff_hz: 3_500.0 },
];

/// The transform-and-compare modality: one similarity feature per
/// transform (similarity of the re-transcription to the original target
/// transcription; higher = more stable = more benign-like).
#[derive(Debug, Clone)]
pub struct TransformCompare {
    transforms: Vec<AudioTransform>,
}

impl Default for TransformCompare {
    fn default() -> TransformCompare {
        TransformCompare { transforms: DEFAULT_TRANSFORMS.to_vec() }
    }
}

impl TransformCompare {
    /// A modality over a custom transform set.
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub fn new(transforms: Vec<AudioTransform>) -> TransformCompare {
        assert!(!transforms.is_empty(), "at least one transform is required");
        TransformCompare { transforms }
    }

    /// The transforms, in feature order.
    pub fn transforms(&self) -> &[AudioTransform] {
        &self.transforms
    }
}

impl Modality for TransformCompare {
    fn kind(&self) -> ModalityKind {
        ModalityKind::Transform
    }

    fn feature_dim(&self) -> usize {
        self.transforms.len()
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &["sim_quantize", "sim_down_upsample", "sim_low_pass"]
    }

    fn score(&self, input: &ModalityInput<'_>) -> ModalityScore {
        let transformed: Vec<Waveform> =
            self.transforms.iter().map(|t| t.apply(input.wave)).collect();
        let refs: Vec<&Waveform> = transformed.iter().collect();
        // The scratch plan amortises pipeline buffers across the batch —
        // the same zero-steady-state-allocation seam the serve workers use.
        let texts = input.asr.transcribe_batch_with(&refs, &mut AsrScratch::default());
        let features = texts.iter().map(|text| drift_similarity(input.target_text, text)).collect();
        ModalityScore { features }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_asr::{Asr, AsrProfile};
    use mvp_audio::synth::{SpeakerProfile, Synthesizer};
    use mvp_phonetics::Lexicon;

    fn clean_utterance() -> Waveform {
        let synth = Synthesizer::new(16_000);
        synth
            .synthesize(
                &Lexicon::builtin(),
                "the man walked the street",
                &SpeakerProfile::default(),
            )
            .0
    }

    #[test]
    fn transforms_preserve_rate_and_length() {
        let wave = clean_utterance();
        for t in DEFAULT_TRANSFORMS {
            let out = t.apply(&wave);
            assert_eq!(out.sample_rate(), wave.sample_rate(), "{}", t.name());
            assert_eq!(out.samples().len(), wave.samples().len(), "{}", t.name());
        }
    }

    #[test]
    fn quantize_snaps_to_grid() {
        let wave = Waveform::from_samples(vec![0.1004, -0.73, 0.5], 16_000);
        let out = AudioTransform::Quantize { bits: 4 }.apply(&wave);
        let step = 2.0 / 15.0f32;
        for &s in out.samples() {
            let k = (s + 1.0) / step;
            assert!((k - k.round()).abs() < 1e-4, "sample {s} off-grid");
        }
    }

    #[test]
    fn low_pass_attenuates_high_frequency() {
        let rate = 16_000u32;
        let hf: Vec<f32> = (0..rate as usize)
            .map(|i| (2.0 * std::f32::consts::PI * 7_000.0 * i as f32 / rate as f32).sin())
            .collect();
        let wave = Waveform::from_samples(hf, rate);
        let out = AudioTransform::LowPass { cutoff_hz: 500.0 }.apply(&wave);
        assert!(out.rms() < wave.rms() * 0.3, "rms {} vs {}", out.rms(), wave.rms());
    }

    #[test]
    fn benign_audio_is_transform_stable() {
        let wave = clean_utterance();
        let asr = AsrProfile::Ds0.trained();
        let target = asr.transcribe(&wave);
        let modality = TransformCompare::default();
        let score = modality.score(&ModalityInput::new(&asr, &wave, &target));
        assert_eq!(score.features.len(), 3);
        for (f, t) in score.features.iter().zip(DEFAULT_TRANSFORMS) {
            assert!(*f > 0.6, "{}: drift similarity {f}", t.name());
        }
    }

    #[test]
    fn score_is_deterministic() {
        let wave = clean_utterance();
        let asr = AsrProfile::Ds0.trained();
        let target = asr.transcribe(&wave);
        let modality = TransformCompare::default();
        let input = ModalityInput::new(&asr, &wave, &target);
        assert_eq!(modality.score(&input), modality.score(&input));
    }
}

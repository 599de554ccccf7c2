#![warn(missing_docs)]

//! mvp-modality: detection modalities beyond transcription similarity.
//!
//! The paper's detector reduces every audio to one signal — cross-ASR
//! transcription similarity. The related work contributes three further
//! families of AE evidence that need nothing the workspace does not
//! already compute:
//!
//! - [`TransformCompare`] (WaveGuard): re-transcribe the audio after
//!   small audio-domain transforms (quantization, resampling, low-pass)
//!   and measure transcription drift. Benign speech survives the
//!   transforms; brittle adversarial perturbations often do not.
//! - [`DistributionFeatures`] (DistriBlock / logit noising): summarise
//!   the target ASR's output distribution — per-frame entropy, max
//!   softmax probability, top-1/top-2 margin — and measure decode
//!   stability under seeded logit noise.
//! - [`VariantInstability`] (FraudWhistler): transcribe N seeded noisy
//!   copies of the input and measure prediction instability; the
//!   statistics feed `mvp_ml::OneClassScorer` when fused.
//!
//! Every modality implements the [`Modality`] trait and is addressed by a
//! [`ModalityKind`]; a [`ModalityRegistry`] evaluates an ordered set of
//! modalities with per-modality spans and timings. **Feature
//! orientation:** every feature is scaled so that *higher means more
//! benign-stable* (matching the similarity scores' geometry), so one
//! classifier convention covers the fused vector and ROC analyses can
//! treat low scores as adversarial everywhere.
//!
//! This crate sits *below* `mvp-ears` in the workspace: the detection
//! system owns a registry and fuses modality features with its
//! similarity scores, so the crate only depends on the audio/ASR/text
//! layers.

pub mod distribution;
pub mod instability;
pub mod transform;

pub use distribution::DistributionFeatures;
pub use instability::VariantInstability;
pub use transform::{AudioTransform, TransformCompare};

use mvp_asr::TrainedAsr;
use mvp_audio::Waveform;
use mvp_phonetics::{Encoder as PhoneticEncoder, PhoneticEncoder as _};
use mvp_textsim::Similarity;

/// The modality families this crate ships, addressable by name and by a
/// stable persistence tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModalityKind {
    /// Transform-and-compare re-transcription drift.
    Transform,
    /// Output-distribution features over the logit matrix.
    Distribution,
    /// Prediction instability across seeded perturbed variants.
    Instability,
}

impl ModalityKind {
    /// Every kind, in registry/fusion order.
    pub const ALL: [ModalityKind; 3] =
        [ModalityKind::Transform, ModalityKind::Distribution, ModalityKind::Instability];

    /// Stable lowercase name (CLI `--modalities` values, audit records).
    pub fn name(self) -> &'static str {
        match self {
            ModalityKind::Transform => "transform",
            ModalityKind::Distribution => "distribution",
            ModalityKind::Instability => "instability",
        }
    }

    /// Parses a [`name`](Self::name); `None` for unknown names.
    pub fn parse(name: &str) -> Option<ModalityKind> {
        ModalityKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Stable persistence tag (`FusionLayout` / snapshot encoding).
    pub fn tag(self) -> u8 {
        match self {
            ModalityKind::Transform => 1,
            ModalityKind::Distribution => 2,
            ModalityKind::Instability => 3,
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<ModalityKind> {
        ModalityKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Feature width of this kind's default configuration — the widths
    /// persisted fusion layouts rely on.
    pub fn feature_dim(self) -> usize {
        match self {
            ModalityKind::Transform => transform::TransformCompare::default().feature_dim(),
            ModalityKind::Distribution => {
                distribution::DistributionFeatures::default().feature_dim()
            }
            ModalityKind::Instability => instability::VariantInstability::default().feature_dim(),
        }
    }

    /// Builds this kind's default-configured modality.
    pub fn build(self) -> Box<dyn Modality> {
        match self {
            ModalityKind::Transform => Box::new(transform::TransformCompare::default()),
            ModalityKind::Distribution => Box::new(distribution::DistributionFeatures::default()),
            ModalityKind::Instability => Box::new(instability::VariantInstability::default()),
        }
    }

    /// The static span name under which this modality is traced.
    pub fn span_name(self) -> &'static str {
        match self {
            ModalityKind::Transform => "modality.transform",
            ModalityKind::Distribution => "modality.distribution",
            ModalityKind::Instability => "modality.instability",
        }
    }
}

impl std::fmt::Display for ModalityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a modality may consult for one audio: the waveform, the
/// target ASR, and the target's (already computed) transcription.
#[derive(Debug, Clone, Copy)]
pub struct ModalityInput<'a> {
    /// The target recogniser (owns front end, acoustic model, decoder).
    pub asr: &'a TrainedAsr,
    /// The audio under test.
    pub wave: &'a Waveform,
    /// The target ASR's transcription of `wave`, computed by the caller
    /// (detection systems and serving layers always have it already).
    pub target_text: &'a str,
}

impl<'a> ModalityInput<'a> {
    /// Bundles the borrowed pieces.
    pub fn new(asr: &'a TrainedAsr, wave: &'a Waveform, target_text: &'a str) -> ModalityInput<'a> {
        ModalityInput { asr, wave, target_text }
    }
}

/// One modality's verdict evidence for one audio.
#[derive(Debug, Clone, PartialEq)]
pub struct ModalityScore {
    /// Fixed-width feature block, higher = more benign-stable; width is
    /// the modality's [`feature_dim`](Modality::feature_dim).
    pub features: Vec<f64>,
}

/// A detection modality: reduces one audio to a fixed-width block of
/// stability features.
pub trait Modality: Send + Sync {
    /// The kind this modality instantiates.
    fn kind(&self) -> ModalityKind;
    /// Width of the feature block [`score`](Self::score) produces.
    fn feature_dim(&self) -> usize;
    /// Static names of the features, in block order.
    fn feature_names(&self) -> &'static [&'static str];
    /// Scores one audio. Deterministic: same input, same features.
    fn score(&self, input: &ModalityInput<'_>) -> ModalityScore;
}

/// A scored modality with its evaluation time, as produced by
/// [`ModalityRegistry::score_all`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModalityOutcome {
    /// Which modality produced the block.
    pub kind: ModalityKind,
    /// The feature block, higher = more benign-stable.
    pub features: Vec<f64>,
    /// Wall time spent scoring this modality.
    pub elapsed_us: u64,
}

/// An ordered, duplicate-free set of modalities evaluated together.
///
/// Iteration order is registration order; fused feature layouts depend
/// on it, so a registry restored from a snapshot must be built from the
/// same kind sequence.
#[derive(Default)]
pub struct ModalityRegistry {
    entries: Vec<Box<dyn Modality>>,
}

impl std::fmt::Debug for ModalityRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModalityRegistry").field("kinds", &self.kinds()).finish()
    }
}

impl ModalityRegistry {
    /// An empty registry (similarity-only detection).
    pub fn empty() -> ModalityRegistry {
        ModalityRegistry { entries: Vec::new() }
    }

    /// Builds a registry of default-configured modalities in the given
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on duplicate kinds.
    pub fn from_kinds(kinds: &[ModalityKind]) -> ModalityRegistry {
        let mut registry = ModalityRegistry::empty();
        for &kind in kinds {
            registry.push(kind.build());
        }
        registry
    }

    /// Appends a modality.
    ///
    /// # Panics
    ///
    /// Panics if its kind is already registered.
    pub fn push(&mut self, modality: Box<dyn Modality>) {
        assert!(
            self.entries.iter().all(|m| m.kind() != modality.kind()),
            "modality {} registered twice",
            modality.kind()
        );
        self.entries.push(modality);
    }

    /// Number of registered modalities.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no modality is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered modalities, in evaluation order.
    pub fn modalities(&self) -> &[Box<dyn Modality>] {
        &self.entries
    }

    /// The registered kinds, in evaluation order.
    pub fn kinds(&self) -> Vec<ModalityKind> {
        self.entries.iter().map(|m| m.kind()).collect()
    }

    /// Total width of the concatenated feature blocks.
    pub fn feature_dim(&self) -> usize {
        self.entries.iter().map(|m| m.feature_dim()).sum()
    }

    /// Scores every registered modality, each under its own trace span
    /// and with its own wall-time measurement.
    pub fn score_all(&self, input: &ModalityInput<'_>) -> Vec<ModalityOutcome> {
        self.entries.iter().map(|m| Self::score_one(m.as_ref(), input)).collect()
    }

    /// Scores the subset of registered modalities selected by `keep`
    /// (called with each modality's kind), preserving registry order.
    pub fn score_where(
        &self,
        input: &ModalityInput<'_>,
        mut keep: impl FnMut(ModalityKind) -> bool,
    ) -> Vec<ModalityOutcome> {
        self.entries
            .iter()
            .filter(|m| keep(m.kind()))
            .map(|m| Self::score_one(m.as_ref(), input))
            .collect()
    }

    fn score_one(modality: &dyn Modality, input: &ModalityInput<'_>) -> ModalityOutcome {
        let _span = mvp_obs::span!(modality.kind().span_name());
        let started = std::time::Instant::now();
        let score = modality.score(input);
        debug_assert_eq!(score.features.len(), modality.feature_dim());
        ModalityOutcome {
            kind: modality.kind(),
            features: score.features,
            elapsed_us: started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        }
    }
}

/// The drift similarity every modality uses to compare transcriptions:
/// Jaro-Winkler over Metaphone encodings, mirroring the detection
/// system's default `PE_JaroWinkler` similarity method (this crate sits
/// below `mvp-ears`, so it cannot borrow the method type itself).
///
/// Two empty transcriptions are identical (similarity 1).
pub fn drift_similarity(a: &str, b: &str) -> f64 {
    let ea = PhoneticEncoder::Metaphone.encode_sentence(a);
    let eb = PhoneticEncoder::Metaphone.encode_sentence(b);
    if ea.is_empty() && eb.is_empty() {
        return 1.0;
    }
    Similarity::JaroWinkler.score(&ea, &eb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_tags_round_trip() {
        for kind in ModalityKind::ALL {
            assert_eq!(ModalityKind::parse(kind.name()), Some(kind));
            assert_eq!(ModalityKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(ModalityKind::parse("similarity"), None);
        assert_eq!(ModalityKind::from_tag(0), None);
        assert_eq!(ModalityKind::from_tag(9), None);
    }

    #[test]
    fn default_builds_match_declared_dims() {
        for kind in ModalityKind::ALL {
            let m = kind.build();
            assert_eq!(m.kind(), kind);
            assert_eq!(m.feature_dim(), kind.feature_dim());
            assert_eq!(m.feature_names().len(), m.feature_dim(), "{kind}");
        }
    }

    #[test]
    fn registry_orders_and_sums_dims() {
        let registry = ModalityRegistry::from_kinds(&ModalityKind::ALL);
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.kinds(), ModalityKind::ALL.to_vec());
        assert_eq!(
            registry.feature_dim(),
            ModalityKind::ALL.iter().map(|k| k.feature_dim()).sum::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn registry_rejects_duplicates() {
        ModalityRegistry::from_kinds(&[ModalityKind::Transform, ModalityKind::Transform]);
    }

    #[test]
    fn drift_similarity_bounds() {
        assert_eq!(drift_similarity("", ""), 1.0);
        assert_eq!(drift_similarity("open the door", "open the door"), 1.0);
        let s = drift_similarity("open the door", "close the window");
        assert!((0.0..1.0).contains(&s), "{s}");
    }
}

//! Similarity + modality fusion: the [`FusedClassifier`] extends the
//! paper's similarity-score vector with the feature blocks of
//! `mvp-modality` detectors and (when the instability modality is
//! present) a benign-only one-class score derived from its block.
//!
//! The fused feature vector is laid out as
//!
//! ```text
//! [ sim_0 .. sim_{A-1} | block(kind_0) | block(kind_1) | .. | oneclass? ]
//! ```
//!
//! where `A` is the auxiliary count and the blocks appear in registry
//! order. Every raw entry is oriented higher = more benign-stable; the
//! derived one-class feature is mapped through `1 / (1 + score)` so it
//! shares that orientation. The [`FusionLayout`] pins this geometry and
//! travels with the classifier through the artifact plane, so a restored
//! classifier refuses vectors of the wrong shape instead of silently
//! misreading them.

use mvp_artifact::{ArtifactError, ArtifactKind, Decoder, Encoder, Persist};
use mvp_ml::{Classifier, ClassifierKind, Dataset, FittedClassifier, Mat, OneClassScorer};
use mvp_modality::ModalityKind;

/// Quantile of benign one-class scores used as the anomaly threshold
/// when fitting the instability scorer.
const ONE_CLASS_QUANTILE: f64 = 0.95;

/// The shape of a fused feature vector: how many similarity scores lead
/// it and which modality blocks follow, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionLayout {
    n_similarity: usize,
    blocks: Vec<ModalityKind>,
}

impl FusionLayout {
    /// A layout of `n_similarity` similarity scores followed by the
    /// default-width feature blocks of `blocks`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `n_similarity` is zero, `blocks` is empty (use the
    /// plain [`FittedClassifier`] for similarity-only detection), or a
    /// kind repeats.
    pub fn new(n_similarity: usize, blocks: Vec<ModalityKind>) -> FusionLayout {
        assert!(n_similarity > 0, "at least one similarity score is required");
        assert!(!blocks.is_empty(), "fusion without modality blocks is similarity-only");
        for (i, kind) in blocks.iter().enumerate() {
            assert!(!blocks[..i].contains(kind), "modality {kind} appears twice in layout");
        }
        FusionLayout { n_similarity, blocks }
    }

    /// Number of leading similarity scores.
    pub fn n_similarity(&self) -> usize {
        self.n_similarity
    }

    /// The modality blocks, in vector order.
    pub fn blocks(&self) -> &[ModalityKind] {
        &self.blocks
    }

    /// Width of the raw vector callers supply: similarity scores plus
    /// concatenated modality blocks (no derived features).
    pub fn raw_dim(&self) -> usize {
        self.n_similarity + self.blocks.iter().map(|k| k.feature_dim()).sum::<usize>()
    }

    /// Width of the vector the inner classifier sees:
    /// [`raw_dim`](Self::raw_dim) plus the derived one-class feature when
    /// the instability block is present.
    pub fn fused_dim(&self) -> usize {
        self.raw_dim() + usize::from(self.has_instability())
    }

    /// Whether the layout carries the instability block (and therefore a
    /// derived one-class feature).
    pub fn has_instability(&self) -> bool {
        self.blocks.contains(&ModalityKind::Instability)
    }

    /// The index range of `kind`'s block within a raw vector.
    pub fn block_range(&self, kind: ModalityKind) -> Option<std::ops::Range<usize>> {
        let mut offset = self.n_similarity;
        for &block in &self.blocks {
            let width = block.feature_dim();
            if block == kind {
                return Some(offset..offset + width);
            }
            offset += width;
        }
        None
    }
}

/// A classifier over fused similarity + modality features, with an
/// optional benign-only one-class scorer over the instability block.
#[derive(Debug, Clone)]
pub struct FusedClassifier {
    layout: FusionLayout,
    instability: Option<OneClassScorer>,
    classifier: FittedClassifier,
}

impl FusedClassifier {
    /// Fits the fusion on raw feature rows (`[similarity .. | modality
    /// blocks ..]`, one row per sample, see [`FusionLayout::raw_dim`]).
    ///
    /// When the layout carries the instability block, a
    /// [`OneClassScorer`] is first fitted on the *benign* rows' block
    /// (no adversarial data touches it) and its score is appended to
    /// every row as a derived feature before the inner classifier fits.
    ///
    /// # Panics
    ///
    /// Panics if either class is empty or a row width differs from the
    /// layout's raw width.
    pub fn fit(
        layout: FusionLayout,
        benign: &Mat,
        adversarial: &Mat,
        kind: ClassifierKind,
    ) -> FusedClassifier {
        assert!(!benign.is_empty() && !adversarial.is_empty(), "empty training class");
        let dim = layout.raw_dim();
        assert!(
            benign.n_cols() == dim && adversarial.n_cols() == dim,
            "raw feature rows must match the layout width ({dim})"
        );

        let instability = layout.block_range(ModalityKind::Instability).map(|range| {
            let block = Mat::from_rows(
                benign.rows().map(|r| r[range.clone()].to_vec()).collect(),
                range.len(),
            );
            OneClassScorer::fit_benign(&block, ONE_CLASS_QUANTILE)
        });

        let augment = |rows: &Mat| {
            Mat::from_rows(
                rows.rows().map(|r| augment_row(&layout, instability.as_ref(), r)).collect(),
                layout.fused_dim(),
            )
        };
        let data = Dataset::from_classes(augment(benign), augment(adversarial));
        let classifier = FittedClassifier::fit(kind, &data);
        FusedClassifier { layout, instability, classifier }
    }

    /// The fused vector shape this classifier was fitted for.
    pub fn layout(&self) -> &FusionLayout {
        &self.layout
    }

    /// The benign-only scorer over the instability block, when fitted.
    pub fn one_class(&self) -> Option<&OneClassScorer> {
        self.instability.as_ref()
    }

    /// The inner classifier over the augmented vector.
    pub fn classifier(&self) -> &FittedClassifier {
        &self.classifier
    }

    /// Extends a raw feature row with the derived one-class feature (a
    /// no-op when the layout has no instability block). Exposed so
    /// benches can score the exact vector the inner classifier sees.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not match the layout's raw width.
    pub fn augment(&self, raw: &[f64]) -> Vec<f64> {
        augment_row(&self.layout, self.instability.as_ref(), raw)
    }

    /// Classifies a raw feature row (`[similarity .. | blocks ..]`).
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not match the layout's raw width.
    pub fn is_adversarial(&self, raw: &[f64]) -> bool {
        self.classifier.predict(&self.augment(raw)) == 1
    }
}

fn augment_row(layout: &FusionLayout, scorer: Option<&OneClassScorer>, raw: &[f64]) -> Vec<f64> {
    assert_eq!(raw.len(), layout.raw_dim(), "raw feature row width");
    let mut fused = raw.to_vec();
    if let Some(scorer) = scorer {
        let range = layout
            .block_range(ModalityKind::Instability)
            .expect("scorer implies instability block");
        // Map the anomaly score (0 at the benign mean, unbounded above)
        // into (0, 1] with the fused orientation: higher = benign-stable.
        fused.push(1.0 / (1.0 + scorer.score(&raw[range])));
    }
    fused
}

impl Persist for FusedClassifier {
    const KIND: ArtifactKind = ArtifactKind::FUSED_CLASSIFIER;
    const SCHEMA_VERSION: u16 = 1;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.layout.n_similarity);
        enc.put_usize(self.layout.blocks.len());
        for kind in &self.layout.blocks {
            enc.put_u8(kind.tag());
        }
        enc.put_bool(self.instability.is_some());
        if let Some(scorer) = &self.instability {
            scorer.encode(enc);
        }
        self.classifier.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        let n_similarity = dec.usize()?;
        let n_blocks = dec.usize()?;
        if n_similarity == 0 || n_blocks == 0 {
            return Err(ArtifactError::SchemaMismatch(format!(
                "fusion layout {n_similarity} similarity scores, {n_blocks} blocks"
            )));
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let tag = dec.u8()?;
            let kind = ModalityKind::from_tag(tag)
                .ok_or_else(|| ArtifactError::SchemaMismatch(format!("modality tag {tag}")))?;
            if blocks.contains(&kind) {
                return Err(ArtifactError::SchemaMismatch(format!(
                    "modality {kind} appears twice in layout"
                )));
            }
            blocks.push(kind);
        }
        let layout = FusionLayout { n_similarity, blocks };
        let instability = if dec.bool()? { Some(OneClassScorer::decode(dec)?) } else { None };
        if instability.is_some() != layout.has_instability() {
            return Err(ArtifactError::SchemaMismatch(
                "one-class scorer presence disagrees with layout".into(),
            ));
        }
        if let Some(scorer) = &instability {
            let width = ModalityKind::Instability.feature_dim();
            if scorer.dim() != width {
                return Err(ArtifactError::SchemaMismatch(format!(
                    "one-class scorer dimension {} for a {width}-wide instability block",
                    scorer.dim()
                )));
            }
        }
        let classifier = FittedClassifier::decode(dec)?;
        Ok(FusedClassifier { layout, instability, classifier })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_layout() -> FusionLayout {
        FusionLayout::new(3, ModalityKind::ALL.to_vec())
    }

    /// Synthetic raw rows: benign rows sit near 0.9 everywhere, AEs near
    /// 0.2, with a deterministic jitter so the one-class fit has spread.
    fn raw_rows(layout: &FusionLayout, base: f64, n: usize) -> Mat {
        Mat::from_rows(
            (0..n)
                .map(|i| {
                    let jitter = (i % 7) as f64 * 0.01;
                    vec![base + jitter; layout.raw_dim()]
                })
                .collect(),
            layout.raw_dim(),
        )
    }

    #[test]
    fn layout_dims_and_ranges() {
        let layout = full_layout();
        assert_eq!(layout.n_similarity(), 3);
        let blocks_width: usize = ModalityKind::ALL.iter().map(|k| k.feature_dim()).sum();
        assert_eq!(layout.raw_dim(), 3 + blocks_width);
        assert!(layout.has_instability());
        assert_eq!(layout.fused_dim(), layout.raw_dim() + 1);

        let transform = layout.block_range(ModalityKind::Transform).unwrap();
        assert_eq!(transform.start, 3);
        assert_eq!(transform.len(), ModalityKind::Transform.feature_dim());
        let instability = layout.block_range(ModalityKind::Instability).unwrap();
        assert_eq!(instability.end, layout.raw_dim());

        let no_instability = FusionLayout::new(2, vec![ModalityKind::Distribution]);
        assert!(!no_instability.has_instability());
        assert_eq!(no_instability.fused_dim(), no_instability.raw_dim());
        assert_eq!(no_instability.block_range(ModalityKind::Instability), None);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn layout_rejects_duplicates() {
        FusionLayout::new(1, vec![ModalityKind::Transform, ModalityKind::Transform]);
    }

    #[test]
    fn fit_separates_and_augments() {
        let layout = full_layout();
        let benign = raw_rows(&layout, 0.88, 30);
        let aes = raw_rows(&layout, 0.2, 30);
        let fused = FusedClassifier::fit(layout.clone(), &benign, &aes, ClassifierKind::Svm);

        assert!(fused.one_class().is_some());
        assert_eq!(fused.augment(benign.row(0)).len(), layout.fused_dim());
        assert!(!fused.is_adversarial(&vec![0.9; layout.raw_dim()]));
        assert!(fused.is_adversarial(&vec![0.15; layout.raw_dim()]));
    }

    #[test]
    fn one_class_feature_tracks_benign_distance() {
        let layout = full_layout();
        let benign = raw_rows(&layout, 0.88, 30);
        let aes = raw_rows(&layout, 0.2, 30);
        let fused = FusedClassifier::fit(layout.clone(), &benign, &aes, ClassifierKind::Svm);
        let near = fused.augment(&vec![0.9; layout.raw_dim()]);
        let far = fused.augment(&vec![0.1; layout.raw_dim()]);
        let derived_near = *near.last().unwrap();
        let derived_far = *far.last().unwrap();
        assert!((0.0..=1.0).contains(&derived_near));
        assert!(derived_near > derived_far, "{derived_near} vs {derived_far}");
    }

    #[test]
    fn no_instability_layout_skips_one_class() {
        let layout = FusionLayout::new(2, vec![ModalityKind::Transform]);
        let benign = raw_rows(&layout, 0.9, 20);
        let aes = raw_rows(&layout, 0.25, 20);
        let fused = FusedClassifier::fit(layout.clone(), &benign, &aes, ClassifierKind::Knn);
        assert!(fused.one_class().is_none());
        assert_eq!(fused.augment(benign.row(0)).len(), layout.raw_dim());
    }

    #[test]
    fn round_trips_through_persist_with_identical_verdicts() {
        let layout = full_layout();
        let benign = raw_rows(&layout, 0.88, 30);
        let aes = raw_rows(&layout, 0.2, 30);
        let fused = FusedClassifier::fit(layout.clone(), &benign, &aes, ClassifierKind::Svm);

        let mut bytes = Vec::new();
        fused.write_to(&mut bytes).unwrap();
        let restored = FusedClassifier::read_from(&bytes[..]).unwrap();

        assert_eq!(restored.layout(), fused.layout());
        for base in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let row = vec![base; layout.raw_dim()];
            assert_eq!(restored.augment(&row), fused.augment(&row), "base {base}");
            assert_eq!(restored.is_adversarial(&row), fused.is_adversarial(&row), "base {base}");
        }
    }

    #[test]
    fn corrupted_artifact_is_refused() {
        let layout = full_layout();
        let benign = raw_rows(&layout, 0.88, 30);
        let aes = raw_rows(&layout, 0.2, 30);
        let fused = FusedClassifier::fit(layout, &benign, &aes, ClassifierKind::Svm);
        let mut bytes = Vec::new();
        fused.write_to(&mut bytes).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(FusedClassifier::read_from(&bytes[..]).is_err());
    }

    #[test]
    fn wrong_width_rows_rejected() {
        let layout = full_layout();
        let benign = raw_rows(&layout, 0.88, 10);
        let aes = raw_rows(&layout, 0.2, 10);
        let fused = FusedClassifier::fit(layout, &benign, &aes, ClassifierKind::Svm);
        let result = std::panic::catch_unwind(|| fused.is_adversarial(&[0.5, 0.5]));
        assert!(result.is_err());
    }
}

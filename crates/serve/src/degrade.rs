//! Graceful degradation: classifying with a *partial* score vector.
//!
//! When an auxiliary ASR misses its deadline (or is administratively
//! disabled with a zero deadline), the engine still owes the caller a
//! verdict. The policy tries, in order:
//!
//! 1. a classifier trained on exactly the surviving auxiliary subset,
//! 2. a benign-fitted [`ThresholdDetector`] over the mean available score
//!    (the paper's §V-G unseen-attack detector, which needs no AE data),
//! 3. a fixed neutral verdict (not adversarial) as the last resort.
//!
//! Which tier answered is reported in the verdict so callers can weigh
//! degraded answers accordingly.

use std::collections::HashMap;

use mvp_ears::{fit_classifier, ThresholdDetector};
use mvp_ml::{Classifier, ClassifierKind, Dataset, Mat};

/// Which fallback tier produced a degraded verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackTier {
    /// A classifier trained on the exact surviving auxiliary subset.
    SubsetClassifier,
    /// Benign-threshold test on the mean of the available scores.
    MeanThreshold,
    /// No trained fallback applied; the neutral default verdict.
    Default,
}

impl FallbackTier {
    /// Stable lowercase name, used in audit records and bench output.
    pub fn name(self) -> &'static str {
        match self {
            FallbackTier::SubsetClassifier => "subset_classifier",
            FallbackTier::MeanThreshold => "mean_threshold",
            FallbackTier::Default => "default",
        }
    }
}

/// Subset-classifier training is exhaustive (every non-empty proper
/// subset) up to this many auxiliaries; beyond it only leave-one-out
/// subsets are trained, since 2^n blows up and deadline misses rarely
/// drop more than one recogniser at a time.
const EXHAUSTIVE_SUBSET_LIMIT: usize = 6;

/// The degraded-mode decision policy for one detection system.
pub struct DegradePolicy {
    n_aux: usize,
    subsets: HashMap<u64, Box<dyn Classifier + Send + Sync>>,
    threshold: Option<ThresholdDetector>,
}

impl std::fmt::Debug for DegradePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradePolicy")
            .field("n_aux", &self.n_aux)
            .field("subset_classifiers", &self.subsets.len())
            .field("has_threshold", &self.threshold.is_some())
            .finish()
    }
}

impl DegradePolicy {
    /// A policy with no trained fallbacks: every degraded request gets
    /// the [`FallbackTier::Default`] verdict.
    pub fn untrained(n_aux: usize) -> DegradePolicy {
        DegradePolicy { n_aux, subsets: HashMap::new(), threshold: None }
    }

    /// Trains the fallback ladder from full-dimension score vectors (the
    /// same data used to train the primary classifier).
    ///
    /// Subset classifiers are fitted by projecting the training vectors
    /// onto each auxiliary subset; the threshold detector is fitted on
    /// the mean benign score with the given FPR budget.
    ///
    /// # Panics
    ///
    /// Panics if either class is empty, any vector's dimension differs
    /// from `n_aux`, or `max_fpr` is outside `(0, 1)`.
    pub fn trained(
        n_aux: usize,
        benign_scores: &[Vec<f64>],
        ae_scores: &[Vec<f64>],
        kind: ClassifierKind,
        max_fpr: f64,
    ) -> DegradePolicy {
        assert!(n_aux > 0, "need at least one auxiliary");
        assert!(!benign_scores.is_empty() && !ae_scores.is_empty(), "empty training class");
        assert!(
            benign_scores.iter().chain(ae_scores).all(|v| v.len() == n_aux),
            "score vectors must have one entry per auxiliary ({n_aux})"
        );

        let mut subsets = HashMap::new();
        for mask in Self::fallback_masks(n_aux) {
            let kept: Vec<usize> = (0..n_aux).filter(|i| mask & (1 << i) != 0).collect();
            let project = |vectors: &[Vec<f64>]| -> Mat {
                let mut m = Mat::zeros(vectors.len(), kept.len());
                for (r, v) in vectors.iter().enumerate() {
                    for (c, &i) in kept.iter().enumerate() {
                        m.row_mut(r)[c] = v[i];
                    }
                }
                m
            };
            let data = Dataset::from_classes(project(benign_scores), project(ae_scores));
            subsets.insert(mask, fit_classifier(kind, &data));
        }

        let benign_means: Vec<f64> =
            benign_scores.iter().map(|v| v.iter().sum::<f64>() / v.len() as f64).collect();
        let threshold = ThresholdDetector::fit_benign(&benign_means, max_fpr);

        DegradePolicy { n_aux, subsets, threshold: Some(threshold) }
    }

    /// The auxiliary count this policy was built for.
    pub fn n_aux(&self) -> usize {
        self.n_aux
    }

    /// Number of subset classifiers held.
    pub fn n_subset_classifiers(&self) -> usize {
        self.subsets.len()
    }

    /// The benign-fitted mean-score threshold, when trained. Audit
    /// records carry it so [`FallbackTier::MeanThreshold`] verdicts are
    /// reconstructible offline.
    pub fn mean_threshold(&self) -> Option<f64> {
        self.threshold.as_ref().map(ThresholdDetector::threshold)
    }

    /// Classifies from the surviving auxiliaries: `available` pairs each
    /// auxiliary index (0-based) with its similarity score. Returns the
    /// verdict and the tier that produced it.
    ///
    /// An empty `available` slice (every auxiliary missed) always falls
    /// through to [`FallbackTier::Default`].
    pub fn classify(&self, available: &[(usize, f64)]) -> (bool, FallbackTier) {
        if !available.is_empty() {
            let mask = available.iter().fold(0u64, |m, &(i, _)| m | (1 << i));
            if let Some(clf) = self.subsets.get(&mask) {
                // Feature order must match training order: ascending index.
                let mut sorted: Vec<(usize, f64)> = available.to_vec();
                sorted.sort_by_key(|&(i, _)| i);
                let features: Vec<f64> = sorted.iter().map(|&(_, s)| s).collect();
                return (clf.predict(&features) == 1, FallbackTier::SubsetClassifier);
            }
            if let Some(thr) = &self.threshold {
                let mean = available.iter().map(|&(_, s)| s).sum::<f64>() / available.len() as f64;
                return (thr.is_adversarial(mean), FallbackTier::MeanThreshold);
            }
        }
        (false, FallbackTier::Default)
    }

    /// The auxiliary-subset masks to train: every non-empty proper subset
    /// for small systems, leave-one-out subsets otherwise.
    fn fallback_masks(n_aux: usize) -> Vec<u64> {
        let full: u64 = (1 << n_aux) - 1;
        if n_aux <= EXHAUSTIVE_SUBSET_LIMIT {
            (1..full).collect()
        } else {
            (0..n_aux).map(|drop| full & !(1 << drop)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Well-separated synthetic scores: benign similarities high,
    /// adversarial low — matching the paper's score geometry.
    fn training_scores(n_aux: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let benign: Vec<Vec<f64>> = (0..20)
            .map(|i| (0..n_aux).map(|j| 0.85 + 0.01 * ((i + j) % 10) as f64).collect())
            .collect();
        let aes: Vec<Vec<f64>> = (0..20)
            .map(|i| (0..n_aux).map(|j| 0.05 + 0.01 * ((i * 3 + j) % 10) as f64).collect())
            .collect();
        (benign, aes)
    }

    #[test]
    fn subset_classifier_separates_trained_geometry() {
        let (benign, aes) = training_scores(3);
        let policy = DegradePolicy::trained(3, &benign, &aes, ClassifierKind::Knn, 0.05);
        // All non-empty proper subsets of 3 auxiliaries: 2^3 - 2 = 6.
        assert_eq!(policy.n_subset_classifiers(), 6);
        // Aux 1 missing: subset {0, 2}.
        let (benign_verdict, tier) = policy.classify(&[(0, 0.9), (2, 0.88)]);
        assert_eq!(tier, FallbackTier::SubsetClassifier);
        assert!(!benign_verdict);
        let (ae_verdict, _) = policy.classify(&[(0, 0.07), (2, 0.1)]);
        assert!(ae_verdict);
    }

    #[test]
    fn unknown_mask_falls_back_to_threshold() {
        let (benign, aes) = training_scores(8);
        let policy = DegradePolicy::trained(8, &benign, &aes, ClassifierKind::Knn, 0.05);
        // Only leave-one-out masks trained for 8 auxiliaries.
        assert_eq!(policy.n_subset_classifiers(), 8);
        // Two auxiliaries missing: no subset classifier for that mask.
        let available: Vec<(usize, f64)> = (0..6).map(|i| (i, 0.9)).collect();
        let (verdict, tier) = policy.classify(&available);
        assert_eq!(tier, FallbackTier::MeanThreshold);
        assert!(!verdict);
        let low: Vec<(usize, f64)> = (0..6).map(|i| (i, 0.02)).collect();
        let (verdict, tier) = policy.classify(&low);
        assert_eq!(tier, FallbackTier::MeanThreshold);
        assert!(verdict);
    }

    #[test]
    fn untrained_policy_defaults_benign() {
        let policy = DegradePolicy::untrained(3);
        let (verdict, tier) = policy.classify(&[(0, 0.01)]);
        assert_eq!(tier, FallbackTier::Default);
        assert!(!verdict);
    }

    #[test]
    fn empty_availability_defaults() {
        let (benign, aes) = training_scores(2);
        let policy = DegradePolicy::trained(2, &benign, &aes, ClassifierKind::Knn, 0.05);
        let (verdict, tier) = policy.classify(&[]);
        assert_eq!(tier, FallbackTier::Default);
        assert!(!verdict);
    }

    #[test]
    fn classify_is_order_insensitive() {
        let (benign, aes) = training_scores(3);
        let policy = DegradePolicy::trained(3, &benign, &aes, ClassifierKind::Knn, 0.05);
        let a = policy.classify(&[(0, 0.9), (2, 0.1)]);
        let b = policy.classify(&[(2, 0.1), (0, 0.9)]);
        assert_eq!(a, b);
    }
}

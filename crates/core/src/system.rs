//! The MVP-EARS detection system (paper Figure 3).
//!
//! An audio is fed to the target ASR and every auxiliary ASR *in parallel*
//! (one thread per recogniser, results collected over a channel — the
//! multiversion-programming execution model). The similarity-calculation
//! component reduces the transcriptions to one score per auxiliary, and a
//! binary classifier over the score vector produces the verdict.

use std::sync::Arc;

use mvp_asr::{Asr, AsrProfile, TrainedAsr};
use mvp_audio::Waveform;
use mvp_ml::{Classifier, ClassifierKind, Dataset, FittedClassifier, Mat};
use mvp_modality::{ModalityInput, ModalityKind, ModalityOutcome, ModalityRegistry};

use crate::fusion::{FusedClassifier, FusionLayout};
use crate::similarity::SimilarityMethod;

/// The verdict for one audio input.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Whether the classifier flagged the audio as adversarial.
    pub is_adversarial: bool,
    /// One similarity score per auxiliary ASR (the classifier features).
    pub scores: Vec<f64>,
    /// The target ASR's transcription.
    pub target_transcription: String,
    /// The auxiliary transcriptions, in auxiliary order.
    pub auxiliary_transcriptions: Vec<String>,
    /// Every registered modality's feature block with its timing, in
    /// registry order; empty when the verdict came from similarity alone.
    pub modalities: Vec<ModalityOutcome>,
    /// Whether the verdict came from the fused classifier.
    pub fused: bool,
    /// Whether a streaming early-exit rule fired this verdict before
    /// end-of-stream (see `stream::EarlyExit`). Always `false` for
    /// one-shot detection.
    pub early_exit: bool,
}

/// A configured (and optionally trained) MVP-EARS detection system.
pub struct DetectionSystem {
    target: Arc<TrainedAsr>,
    auxiliaries: Vec<Arc<TrainedAsr>>,
    method: SimilarityMethod,
    classifier: Option<FittedClassifier>,
    modalities: ModalityRegistry,
    fused: Option<FusedClassifier>,
}

impl std::fmt::Debug for DetectionSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionSystem")
            .field("name", &self.name())
            .field("method", &self.method)
            .field("trained", &self.classifier.is_some())
            .field("modalities", &self.modalities.kinds())
            .field("fused", &self.fused.is_some())
            .finish()
    }
}

impl DetectionSystem {
    /// Starts a builder with `target` as the target ASR profile.
    pub fn builder(target: AsrProfile) -> DetectionSystemBuilder {
        Self::builder_for(target.trained())
    }

    /// Starts a builder from an already-trained target ASR — the entry
    /// point for warm starts, where the model came off disk rather than
    /// from a profile's training recipe.
    pub fn builder_for(target: Arc<TrainedAsr>) -> DetectionSystemBuilder {
        DetectionSystemBuilder {
            target,
            auxiliaries: Vec::new(),
            method: SimilarityMethod::default(),
            modalities: Vec::new(),
        }
    }

    /// The paper's notation, e.g. `"DS0+{DS1, GCS, AT}"`.
    pub fn name(&self) -> String {
        format!(
            "{}+{{{}}}",
            self.target.name(),
            self.auxiliaries.iter().map(|a| a.name()).collect::<Vec<_>>().join(", ")
        )
    }

    /// Number of auxiliary ASRs (= classifier feature dimension).
    pub fn n_auxiliaries(&self) -> usize {
        self.auxiliaries.len()
    }

    /// The similarity method in use.
    pub fn method(&self) -> SimilarityMethod {
        self.method
    }

    /// The target ASR.
    pub fn target(&self) -> &TrainedAsr {
        &self.target
    }

    /// The auxiliary ASRs, in score-vector order.
    pub fn auxiliaries(&self) -> &[Arc<TrainedAsr>] {
        &self.auxiliaries
    }

    /// The trained classifier, if [`train`](Self::train) has run.
    pub fn classifier(&self) -> Option<&FittedClassifier> {
        self.classifier.as_ref()
    }

    /// Installs an externally trained classifier (e.g. one restored from a
    /// persisted snapshot). Callers must pair the classifier with the
    /// auxiliary set it was trained for — feature dimension is checked at
    /// prediction time, not here.
    pub fn set_classifier(&mut self, classifier: FittedClassifier) {
        self.classifier = Some(classifier);
    }

    /// The registered detection modalities (empty = similarity-only).
    pub fn modalities(&self) -> &ModalityRegistry {
        &self.modalities
    }

    /// The fused similarity + modality classifier, if
    /// [`train_fused`](Self::train_fused) has run (or a restored one was
    /// installed).
    pub fn fused_classifier(&self) -> Option<&FusedClassifier> {
        self.fused.as_ref()
    }

    /// Whether a fused classifier is available, so
    /// [`detect`](Self::detect) will use the modality plane.
    pub fn is_fused(&self) -> bool {
        self.fused.is_some()
    }

    /// The fused feature layout this system produces, or `None` when no
    /// modality is registered.
    pub fn fusion_layout(&self) -> Option<FusionLayout> {
        if self.modalities.is_empty() {
            return None;
        }
        Some(FusionLayout::new(self.n_auxiliaries(), self.modalities.kinds()))
    }

    /// Installs an externally trained fused classifier (e.g. one
    /// restored from a persisted snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the classifier's layout does not match this system's
    /// auxiliary count and registered modalities.
    pub fn set_fused_classifier(&mut self, fused: FusedClassifier) {
        let expected = self.fusion_layout().expect("no modalities registered");
        assert_eq!(
            *fused.layout(),
            expected,
            "fused classifier layout does not match the system's modalities"
        );
        self.fused = Some(fused);
    }

    /// Scores every registered modality on `wave` (the caller supplies
    /// the target transcription it already has), in registry order.
    pub fn score_modalities(&self, wave: &Waveform, target_text: &str) -> Vec<ModalityOutcome> {
        self.modalities.score_all(&ModalityInput::new(&self.target, wave, target_text))
    }

    /// The raw fused feature row for `wave`: similarity scores followed
    /// by the concatenated modality blocks (see
    /// [`FusionLayout::raw_dim`]).
    pub fn raw_feature_row(&self, wave: &Waveform) -> Vec<f64> {
        let (target, auxiliaries) = self.transcripts(wave);
        let scores = self.scores_from_transcripts(&target, &auxiliaries);
        fused_row(&scores, &self.score_modalities(wave, &target))
    }

    /// Trains the fused classifier from benign and adversarial audio:
    /// every wave is reduced to its raw fused feature row and
    /// [`FusedClassifier::fit`] runs over the two classes (fitting the
    /// benign-only one-class scorer along the way when the instability
    /// modality is registered).
    ///
    /// # Panics
    ///
    /// Panics if no modality is registered or either set is empty.
    pub fn train_fused(
        &mut self,
        benign: &[Waveform],
        adversarial: &[Waveform],
        kind: ClassifierKind,
    ) {
        assert!(!benign.is_empty() && !adversarial.is_empty(), "empty training class");
        let layout = self.fusion_layout().expect("no modalities registered");
        let rows = |waves: &[Waveform]| {
            Mat::from_rows(
                waves.iter().map(|w| self.raw_feature_row(w)).collect(),
                layout.raw_dim(),
            )
        };
        let (neg, pos) = (rows(benign), rows(adversarial));
        self.fused = Some(FusedClassifier::fit(layout, &neg, &pos, kind));
    }

    /// Trains the fused classifier directly on raw feature rows — the
    /// cached-dataset analogue of [`train_on_mats`](Self::train_on_mats)
    /// for the fused plane.
    ///
    /// # Panics
    ///
    /// Panics if no modality is registered, either class is empty, or a
    /// matrix width differs from the fusion layout's raw width.
    pub fn train_fused_on_mats(&mut self, benign: Mat, adversarial: Mat, kind: ClassifierKind) {
        let layout = self.fusion_layout().expect("no modalities registered");
        self.fused = Some(FusedClassifier::fit(layout, &benign, &adversarial, kind));
    }

    /// Every recogniser in execution order: the target first, then the
    /// auxiliaries. This is the seam a serving layer uses to pin one
    /// persistent worker per recogniser instead of spawning threads per
    /// call — see `mvp-serve`.
    pub fn recognizers(&self) -> Vec<Arc<TrainedAsr>> {
        std::iter::once(&self.target).chain(&self.auxiliaries).cloned().collect()
    }

    /// Number of recognisers (`1 + n_auxiliaries`).
    pub fn n_recognizers(&self) -> usize {
        1 + self.auxiliaries.len()
    }

    /// Splits a per-recogniser transcription vector (in
    /// [`recognizers`](Self::recognizers) order) into
    /// `(target, auxiliaries)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty vector.
    pub fn split_transcripts(mut texts: Vec<String>) -> (String, Vec<String>) {
        assert!(!texts.is_empty(), "no transcriptions");
        let auxiliaries = texts.split_off(1);
        (texts.pop().expect("target transcript present"), auxiliaries)
    }

    /// Transcribes `wave` on the target and every auxiliary concurrently
    /// (one short-lived thread per recogniser).
    ///
    /// Returns `(target transcription, auxiliary transcriptions)`.
    pub fn transcripts(&self, wave: &Waveform) -> (String, Vec<String>) {
        let _span = mvp_obs::span!("detect.transcribe");
        let asrs = self.recognizers();
        let texts = std::thread::scope(|scope| {
            let handles: Vec<_> =
                asrs.iter().map(|asr| scope.spawn(move || asr.transcribe(wave))).collect();
            // Joined in recogniser order; a recogniser's panic resumes here.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        Self::split_transcripts(texts)
    }

    /// The similarity-score feature vector for `wave` (one score per
    /// auxiliary).
    pub fn score_vector(&self, wave: &Waveform) -> Vec<f64> {
        let (target, auxiliaries) = self.transcripts(wave);
        self.scores_from_transcripts(&target, &auxiliaries)
    }

    /// Scores from already-computed transcriptions.
    pub fn scores_from_transcripts(&self, target: &str, auxiliaries: &[String]) -> Vec<f64> {
        let _span = mvp_obs::span!("detect.similarity");
        auxiliaries.iter().map(|a| self.method.score(target, a)).collect()
    }

    /// Trains the binary classifier from benign and adversarial audio.
    ///
    /// # Panics
    ///
    /// Panics if either set is empty.
    pub fn train(&mut self, benign: &[Waveform], adversarial: &[Waveform], kind: ClassifierKind) {
        assert!(!benign.is_empty() && !adversarial.is_empty(), "empty training class");
        let dim = self.n_auxiliaries();
        let mut neg = Mat::zeros(0, dim);
        for w in benign {
            neg.push_row(&self.score_vector(w));
        }
        let mut pos = Mat::zeros(0, dim);
        for w in adversarial {
            pos.push_row(&self.score_vector(w));
        }
        self.train_on_mats(neg, pos, kind);
    }

    /// Trains the classifier directly on score vectors — used both to
    /// avoid re-transcribing cached datasets and to train *proactively* on
    /// synthesized MAE feature vectors (§V-H), where no audio exists.
    ///
    /// # Panics
    ///
    /// Panics if either set is empty or vectors have the wrong dimension.
    pub fn train_on_scores(
        &mut self,
        benign_scores: &[Vec<f64>],
        ae_scores: &[Vec<f64>],
        kind: ClassifierKind,
    ) {
        let dim = self.n_auxiliaries();
        assert!(
            benign_scores.iter().chain(ae_scores).all(|v| v.len() == dim),
            "score vectors must have one entry per auxiliary ({dim})"
        );
        self.train_on_mats(
            Mat::from_rows(benign_scores.to_vec(), dim),
            Mat::from_rows(ae_scores.to_vec(), dim),
            kind,
        );
    }

    /// Trains the classifier from contiguous score matrices (one row per
    /// sample) — the data-plane entry point the other `train*` methods
    /// funnel into.
    ///
    /// # Panics
    ///
    /// Panics if either class is empty or a matrix width differs from the
    /// auxiliary count.
    pub fn train_on_mats(&mut self, benign_scores: Mat, ae_scores: Mat, kind: ClassifierKind) {
        assert!(!benign_scores.is_empty() && !ae_scores.is_empty(), "empty training class");
        let dim = self.n_auxiliaries();
        assert!(
            benign_scores.n_cols() == dim && ae_scores.n_cols() == dim,
            "score matrices must have one column per auxiliary ({dim})"
        );
        let data = Dataset::from_classes(benign_scores, ae_scores);
        self.classifier = Some(FittedClassifier::fit(kind, &data));
    }

    /// Whether [`train`](Self::train) (or
    /// [`train_on_scores`](Self::train_on_scores)) has run.
    pub fn is_trained(&self) -> bool {
        self.classifier.is_some()
    }

    /// Classifies a score vector with the trained classifier.
    ///
    /// # Panics
    ///
    /// Panics if the system is untrained.
    pub fn classify_scores(&self, scores: &[f64]) -> bool {
        let _span = mvp_obs::span!("detect.classify");
        let clf = self.classifier.as_ref().expect("detection system is untrained");
        clf.predict(scores) == 1
    }

    /// Completes the detection pipeline from already-computed
    /// transcriptions — the one place a verdict is decided, shared by
    /// [`detect`](Self::detect), streams and serving layers that obtained
    /// the transcriptions through their own workers. Given every
    /// registered modality's outcome, already scored and in registry
    /// order ([`score_modalities`](Self::score_modalities) in process,
    /// `ModalityRegistry::assemble` from served work), on a system with a
    /// fused classifier, the fused classifier decides (`Detection::fused`
    /// is true); otherwise the paper's similarity classifier decides.
    ///
    /// # Panics
    ///
    /// Panics if the deciding classifier is untrained; see
    /// [`DetectionSystem::train`] and [`DetectionSystem::train_fused`].
    pub fn detect_from_transcripts(
        &self,
        target: String,
        auxiliaries: Vec<String>,
        modalities: Option<Vec<ModalityOutcome>>,
    ) -> Detection {
        let scores = self.scores_from_transcripts(&target, &auxiliaries);
        let (is_adversarial, modalities, fused) = match (modalities, &self.fused) {
            (Some(modalities), Some(fused)) => {
                (fused.is_adversarial(&fused_row(&scores, &modalities)), modalities, true)
            }
            _ => (self.classify_scores(&scores), Vec::new(), false),
        };
        Detection {
            is_adversarial,
            fused,
            scores,
            target_transcription: target,
            auxiliary_transcriptions: auxiliaries,
            modalities,
            early_exit: false,
        }
    }

    /// Runs the full detection pipeline on `wave`: the fused verdict when
    /// a fused classifier is installed, otherwise the paper's
    /// similarity-only pipeline (see
    /// [`detect_from_transcripts`](Self::detect_from_transcripts)).
    ///
    /// # Panics
    ///
    /// Panics if the system is untrained; see [`DetectionSystem::train`]
    /// and [`DetectionSystem::train_fused`].
    pub fn detect(&self, wave: &Waveform) -> Detection {
        let _span = mvp_obs::span!("detect");
        let (target, auxiliaries) = self.transcripts(wave);
        let modalities = self.fused.is_some().then(|| self.score_modalities(wave, &target));
        self.detect_from_transcripts(target, auxiliaries, modalities)
    }
}

/// The raw fused feature row: the similarity scores followed by each
/// modality's block, in registry order (the [`FusionLayout`] raw layout).
fn fused_row(scores: &[f64], modalities: &[ModalityOutcome]) -> Vec<f64> {
    let mut row = scores.to_vec();
    for outcome in modalities {
        row.extend_from_slice(&outcome.features);
    }
    row
}

/// Fits the paper-configured classifier of `kind`, keeping `Send + Sync`
/// bounds (the `ClassifierKind::build` trait object deliberately does not
/// carry them). Public so serving layers can train additional classifiers
/// (e.g. per-auxiliary-subset fallbacks) with the exact configuration the
/// detection system itself uses.
pub fn fit_classifier(kind: ClassifierKind, data: &Dataset) -> Box<dyn Classifier + Send + Sync> {
    match kind {
        ClassifierKind::Svm => {
            let mut m = mvp_ml::Svm::new(mvp_ml::Kernel::Polynomial { degree: 3, coef0: 1.0 }, 1.0);
            m.fit(data);
            Box::new(m)
        }
        ClassifierKind::Knn => {
            let mut m = mvp_ml::Knn::new(10);
            m.fit(data);
            Box::new(m)
        }
        ClassifierKind::RandomForest => {
            let mut m = mvp_ml::RandomForest::new(40, 200);
            m.fit(data);
            Box::new(m)
        }
    }
}

/// Builder for [`DetectionSystem`].
#[derive(Debug)]
pub struct DetectionSystemBuilder {
    target: Arc<TrainedAsr>,
    auxiliaries: Vec<Arc<TrainedAsr>>,
    method: SimilarityMethod,
    modalities: Vec<ModalityKind>,
}

impl DetectionSystemBuilder {
    /// Adds an auxiliary ASR profile.
    pub fn auxiliary(mut self, profile: AsrProfile) -> Self {
        self.auxiliaries.push(profile.trained());
        self
    }

    /// Adds an already-trained auxiliary (e.g. a custom model).
    pub fn auxiliary_asr(mut self, asr: Arc<TrainedAsr>) -> Self {
        self.auxiliaries.push(asr);
        self
    }

    /// Adds an auxiliary at an explicit numeric precision: the PVP axis,
    /// where `DS1@int8` is a *different ensemble member* from `DS1@f64`
    /// even though both share one set of trained weights.
    pub fn auxiliary_variant(mut self, variant: mvp_asr::PrecisionVariant) -> Self {
        self.auxiliaries.push(variant.trained());
        self
    }

    /// Overrides the similarity method (default `PE_JaroWinkler`).
    pub fn method(mut self, method: SimilarityMethod) -> Self {
        self.method = method;
        self
    }

    /// Registers a detection modality (default configuration). Order of
    /// calls is registry — and fused-feature — order.
    pub fn modality(mut self, kind: ModalityKind) -> Self {
        self.modalities.push(kind);
        self
    }

    /// Registers several modalities at once, in order.
    pub fn modality_kinds(mut self, kinds: &[ModalityKind]) -> Self {
        self.modalities.extend_from_slice(kinds);
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if no auxiliary was added or a modality was registered
    /// twice.
    pub fn build(self) -> DetectionSystem {
        assert!(!self.auxiliaries.is_empty(), "at least one auxiliary ASR is required");
        DetectionSystem {
            target: self.target,
            auxiliaries: self.auxiliaries,
            method: self.method,
            classifier: None,
            modalities: ModalityRegistry::from_kinds(&self.modalities),
            fused: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_audio::synth::{SpeakerProfile, Synthesizer};
    use mvp_ml::ClassifierKind;
    use mvp_phonetics::Lexicon;

    fn ds0_ds1() -> DetectionSystem {
        DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Ds1).build()
    }

    #[test]
    fn name_follows_paper_notation() {
        let s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .auxiliary(AsrProfile::Gcs)
            .build();
        assert_eq!(s.name(), "DS0+{DS1, GCS}");
    }

    #[test]
    fn benign_audio_scores_high() {
        let s = ds0_ds1();
        let synth = Synthesizer::new(16_000);
        let (wave, _) = synth.synthesize(
            &Lexicon::builtin(),
            "the man walked the street",
            &SpeakerProfile::default(),
        );
        let scores = s.score_vector(&wave);
        assert_eq!(scores.len(), 1);
        assert!(scores[0] > 0.7, "benign score {}", scores[0]);
    }

    #[test]
    fn train_on_scores_and_classify() {
        let mut s = ds0_ds1();
        assert!(!s.is_trained());
        let benign: Vec<Vec<f64>> = (0..30).map(|i| vec![0.85 + (i % 10) as f64 * 0.01]).collect();
        let aes: Vec<Vec<f64>> = (0..30).map(|i| vec![0.2 + (i % 10) as f64 * 0.01]).collect();
        s.train_on_scores(&benign, &aes, ClassifierKind::Svm);
        assert!(s.is_trained());
        assert!(s.classify_scores(&[0.1]));
        assert!(!s.classify_scores(&[0.95]));
    }

    #[test]
    fn nan_bearing_scores_yield_a_verdict_not_a_panic() {
        // Regression: a degenerate feature (NaN similarity score) must
        // degrade to *some* verdict in every classifier family — a serve
        // worker must never abort on one bad dimension.
        let mut s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .auxiliary(AsrProfile::Gcs)
            .build();
        let benign: Vec<Vec<f64>> =
            (0..30).map(|i| vec![0.85 + (i % 10) as f64 * 0.01; 2]).collect();
        let aes: Vec<Vec<f64>> = (0..30).map(|i| vec![0.2 + (i % 10) as f64 * 0.01; 2]).collect();
        for kind in ClassifierKind::ALL {
            s.train_on_scores(&benign, &aes, kind);
            let _ = s.classify_scores(&[f64::NAN, 0.9]);
            let _ = s.classify_scores(&[f64::NAN, f64::NAN]);
        }
    }

    #[test]
    fn precision_variant_auxiliary_joins_the_ensemble() {
        use mvp_asr::PrecisionVariant;
        let s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary_variant(PrecisionVariant::int8(AsrProfile::Ds0))
            .auxiliary(AsrProfile::Ds1)
            .build();
        assert_eq!(s.name(), "DS0+{DS0-I8, DS1}");
        let synth = Synthesizer::new(16_000);
        let (wave, _) =
            synth.synthesize(&Lexicon::builtin(), "open the door", &SpeakerProfile::default());
        let scores = s.score_vector(&wave);
        assert_eq!(scores.len(), 2);
        // The int8 sibling shares its parent's weights, so on benign audio
        // it is the *most* agreeing auxiliary in the ensemble.
        assert!(scores[0] > 0.8, "int8 sibling diverged on benign audio: {scores:?}");
    }

    #[test]
    #[should_panic(expected = "untrained")]
    fn detect_before_training_panics() {
        let s = ds0_ds1();
        let wave = Waveform::from_samples(vec![0.0; 1600], 16_000);
        s.detect(&wave);
    }

    #[test]
    #[should_panic(expected = "auxiliary")]
    fn builder_requires_auxiliary() {
        DetectionSystem::builder(AsrProfile::Ds0).build();
    }

    #[test]
    fn multi_aux_score_dimensions_and_training() {
        let mut s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .auxiliary(AsrProfile::Gcs)
            .auxiliary(AsrProfile::At)
            .build();
        assert_eq!(s.n_auxiliaries(), 3);
        // Three-dimensional score vectors train and classify.
        let benign: Vec<Vec<f64>> =
            (0..20).map(|i| vec![0.9, 0.92, 0.88 + (i % 5) as f64 * 0.01]).collect();
        let aes: Vec<Vec<f64>> =
            (0..20).map(|i| vec![0.3, 0.25 + (i % 5) as f64 * 0.01, 0.4]).collect();
        for kind in ClassifierKind::ALL {
            s.train_on_scores(&benign, &aes, kind);
            assert!(s.classify_scores(&[0.2, 0.3, 0.35]), "{kind}");
            assert!(!s.classify_scores(&[0.95, 0.9, 0.93]), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "one entry per auxiliary")]
    fn wrong_score_dimension_rejected() {
        let mut s = ds0_ds1();
        s.train_on_scores(&[vec![0.9, 0.8]], &[vec![0.1, 0.2]], ClassifierKind::Svm);
    }

    #[test]
    fn method_override_changes_scores() {
        use mvp_textsim::Similarity;
        let jaccard =
            crate::similarity::SimilarityMethod { base: Similarity::Jaccard, phonetic: None };
        let s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .method(jaccard)
            .build();
        assert_eq!(s.method().name(), "Jaccard");
        let scores = s.scores_from_transcripts("open the door", &["close the door".to_string()]);
        assert!((scores[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn recognizers_order_is_target_first() {
        let s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .auxiliary(AsrProfile::At)
            .build();
        let names: Vec<String> = s.recognizers().iter().map(|a| a.name().to_string()).collect();
        assert_eq!(names, ["DS0", "DS1", "AT"]);
        assert_eq!(s.n_recognizers(), 3);
    }

    #[test]
    fn detect_from_transcripts_matches_detect_shape() {
        let mut s = ds0_ds1();
        let benign: Vec<Vec<f64>> = (0..30).map(|i| vec![0.85 + (i % 10) as f64 * 0.01]).collect();
        let aes: Vec<Vec<f64>> = (0..30).map(|i| vec![0.2 + (i % 10) as f64 * 0.01]).collect();
        s.train_on_scores(&benign, &aes, ClassifierKind::Svm);
        let d = s.detect_from_transcripts(
            "open the door".to_string(),
            vec!["open the door".to_string()],
            None,
        );
        assert!(!d.is_adversarial);
        assert_eq!(d.scores.len(), 1);
        let d2 = s.detect_from_transcripts(
            "open the door".to_string(),
            vec!["completely unrelated words here".to_string()],
            None,
        );
        assert!(d2.is_adversarial);
    }

    #[test]
    fn builder_registers_modalities_in_order() {
        let s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .modality(mvp_modality::ModalityKind::Distribution)
            .modality(mvp_modality::ModalityKind::Transform)
            .build();
        assert_eq!(
            s.modalities().kinds(),
            vec![mvp_modality::ModalityKind::Distribution, mvp_modality::ModalityKind::Transform]
        );
        let layout = s.fusion_layout().unwrap();
        assert_eq!(layout.n_similarity(), 1);
        assert!(!s.is_fused());
    }

    #[test]
    fn similarity_only_system_has_no_fusion_layout() {
        assert!(ds0_ds1().fusion_layout().is_none());
    }

    #[test]
    fn fused_training_and_detection() {
        use mvp_modality::ModalityKind;
        let synth = Synthesizer::new(16_000);
        let lexicon = Lexicon::builtin();
        let sentences =
            ["the man walked the street", "turn on the light", "good morning", "open the door"];
        let benign: Vec<Waveform> = sentences
            .iter()
            .map(|s| synth.synthesize(&lexicon, s, &SpeakerProfile::default()).0)
            .collect();
        // Stand-in AEs: loud white noise transcribes unstably and
        // disagrees across ASRs, which is all the fit needs here.
        let adversarial: Vec<Waveform> =
            (0..4).map(|i| mvp_audio::NoiseKind::White.generate(16_000, 16_000, 7 + i)).collect();

        let mut s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .modality_kinds(&ModalityKind::ALL)
            .build();
        s.train_fused(&benign, &adversarial, ClassifierKind::Svm);
        assert!(s.is_fused());
        let layout = s.fusion_layout().unwrap();
        assert_eq!(s.fused_classifier().unwrap().layout(), &layout);
        // Instability is registered, so the benign-only scorer fitted.
        assert!(s.fused_classifier().unwrap().one_class().is_some());

        let d = s.detect(&benign[0]);
        assert!(d.fused);
        let kinds: Vec<ModalityKind> = d.modalities.iter().map(|o| o.kind).collect();
        assert_eq!(kinds, layout.blocks());
        let features: usize = d.modalities.iter().map(|o| o.features.len()).sum();
        assert_eq!(features, layout.raw_dim() - layout.n_similarity());
        assert!(!d.is_adversarial, "benign audio flagged by fused detector");
    }

    #[test]
    #[should_panic(expected = "no modalities registered")]
    fn train_fused_requires_modalities() {
        let mut s = ds0_ds1();
        let wave = Waveform::from_samples(vec![0.0; 160], 16_000);
        s.train_fused(&[wave.clone()], &[wave], ClassifierKind::Svm);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_fused_classifier_rejected() {
        use mvp_modality::ModalityKind;
        let mk = |kinds: &[ModalityKind]| {
            DetectionSystem::builder(AsrProfile::Ds0)
                .auxiliary(AsrProfile::Ds1)
                .modality_kinds(kinds)
                .build()
        };
        let mut donor = mk(&[ModalityKind::Transform]);
        let dim = donor.fusion_layout().unwrap().raw_dim();
        let rows = |base: f64| {
            Mat::from_rows((0..10).map(|i| vec![base + (i % 5) as f64 * 0.01; dim]).collect(), dim)
        };
        donor.train_fused_on_mats(rows(0.9), rows(0.2), ClassifierKind::Svm);
        let fused = donor.fused_classifier().unwrap().clone();
        mk(&[ModalityKind::Distribution]).set_fused_classifier(fused);
    }

    #[test]
    fn parallel_transcripts_ordered() {
        let s = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .auxiliary(AsrProfile::Gcs)
            .build();
        let synth = Synthesizer::new(16_000);
        let (wave, _) =
            synth.synthesize(&Lexicon::builtin(), "good morning", &SpeakerProfile::default());
        let (target, aux) = s.transcripts(&wave);
        assert_eq!(aux.len(), 2);
        // Deterministic across calls (ordering is by ASR index, not thread
        // completion).
        let (t2, a2) = s.transcripts(&wave);
        assert_eq!(target, t2);
        assert_eq!(aux, a2);
    }
}

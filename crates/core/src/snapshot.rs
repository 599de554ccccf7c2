//! Whole-system checkpointing: a [`DetectionSystemSnapshot`] captures every
//! trained component of a [`DetectionSystem`] — target ASR, auxiliaries,
//! similarity method and the fitted classifier — as one artifact, so a
//! serving process can warm-start with verdicts bit-identical to the
//! process that trained it.

use std::sync::Arc;

use mvp_artifact::{ArtifactError, ArtifactKind, Decoder, Encoder, Persist};
use mvp_asr::TrainedAsr;
use mvp_ml::FittedClassifier;
use mvp_modality::ModalityKind;
use mvp_phonetics::Encoder as PhoneticEncoder;
use mvp_textsim::Similarity;

use crate::fusion::FusedClassifier;
use crate::similarity::SimilarityMethod;
use crate::system::DetectionSystem;

/// A point-in-time copy of a detection system's trained state.
///
/// Capture with [`capture`](Self::capture), persist through
/// [`Persist`], and rebuild a working system with
/// [`restore`](Self::restore).
#[derive(Debug)]
pub struct DetectionSystemSnapshot {
    target: Arc<TrainedAsr>,
    auxiliaries: Vec<Arc<TrainedAsr>>,
    method: SimilarityMethod,
    classifier: Option<FittedClassifier>,
    modalities: Vec<ModalityKind>,
    fused: Option<FusedClassifier>,
}

fn base_tag(s: Similarity) -> u8 {
    match s {
        Similarity::Cosine => 0,
        Similarity::Jaccard => 1,
        Similarity::JaroWinkler => 2,
        Similarity::Levenshtein => 3,
        Similarity::Dice => 4,
    }
}

fn base_from_tag(tag: u8) -> Result<Similarity, ArtifactError> {
    Ok(match tag {
        0 => Similarity::Cosine,
        1 => Similarity::Jaccard,
        2 => Similarity::JaroWinkler,
        3 => Similarity::Levenshtein,
        4 => Similarity::Dice,
        other => {
            return Err(ArtifactError::SchemaMismatch(format!("similarity tag {other}")));
        }
    })
}

fn phonetic_tag(p: Option<PhoneticEncoder>) -> u8 {
    match p {
        None => 0,
        Some(PhoneticEncoder::Metaphone) => 1,
        Some(PhoneticEncoder::Soundex) => 2,
        Some(PhoneticEncoder::RefinedSoundex) => 3,
        Some(PhoneticEncoder::Nysiis) => 4,
    }
}

fn phonetic_from_tag(tag: u8) -> Result<Option<PhoneticEncoder>, ArtifactError> {
    Ok(match tag {
        0 => None,
        1 => Some(PhoneticEncoder::Metaphone),
        2 => Some(PhoneticEncoder::Soundex),
        3 => Some(PhoneticEncoder::RefinedSoundex),
        4 => Some(PhoneticEncoder::Nysiis),
        other => {
            return Err(ArtifactError::SchemaMismatch(format!("phonetic tag {other}")));
        }
    })
}

impl DetectionSystemSnapshot {
    /// Captures `system`'s trained state. The ASR models are shared (the
    /// snapshot holds the same `Arc`s), the classifier is cloned.
    pub fn capture(system: &DetectionSystem) -> DetectionSystemSnapshot {
        let mut recognizers = system.recognizers();
        let auxiliaries = recognizers.split_off(1);
        let target = recognizers.pop().expect("target recogniser present");
        DetectionSystemSnapshot {
            target,
            auxiliaries,
            method: system.method(),
            classifier: system.classifier().cloned(),
            modalities: system.modalities().kinds(),
            fused: system.fused_classifier().cloned(),
        }
    }

    /// Rebuilds a working detection system from the snapshot.
    pub fn restore(self) -> DetectionSystem {
        let mut builder = DetectionSystem::builder_for(self.target)
            .method(self.method)
            .modality_kinds(&self.modalities);
        for aux in self.auxiliaries {
            builder = builder.auxiliary_asr(aux);
        }
        let mut system = builder.build();
        if let Some(classifier) = self.classifier {
            system.set_classifier(classifier);
        }
        if let Some(fused) = self.fused {
            system.set_fused_classifier(fused);
        }
        system
    }

    /// The paper-notation name of the system this snapshot restores to.
    pub fn name(&self) -> String {
        format!(
            "{}+{{{}}}",
            mvp_asr::Asr::name(&*self.target),
            self.auxiliaries
                .iter()
                .map(|a| mvp_asr::Asr::name(&**a))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    /// Whether the snapshot carries a fitted classifier.
    pub fn is_trained(&self) -> bool {
        self.classifier.is_some()
    }

    /// The modality kinds the restored system will register, in order.
    pub fn modalities(&self) -> &[ModalityKind] {
        &self.modalities
    }

    /// Whether the snapshot carries a fused classifier.
    pub fn is_fused(&self) -> bool {
        self.fused.is_some()
    }
}

impl Persist for DetectionSystemSnapshot {
    const KIND: ArtifactKind = ArtifactKind::DETECTION_SNAPSHOT;
    // v2 appended the modality-kind list and the optional fused
    // classifier to the v1 layout.
    const SCHEMA_VERSION: u16 = 2;

    fn encode(&self, enc: &mut Encoder) {
        self.target.encode(enc);
        enc.put_usize(self.auxiliaries.len());
        for aux in &self.auxiliaries {
            aux.encode(enc);
        }
        enc.put_u8(base_tag(self.method.base));
        enc.put_u8(phonetic_tag(self.method.phonetic));
        enc.put_bool(self.classifier.is_some());
        if let Some(classifier) = &self.classifier {
            classifier.encode(enc);
        }
        enc.put_usize(self.modalities.len());
        for kind in &self.modalities {
            enc.put_u8(kind.tag());
        }
        enc.put_bool(self.fused.is_some());
        if let Some(fused) = &self.fused {
            fused.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        let target = Arc::new(TrainedAsr::decode(dec)?);
        let n_aux = dec.usize()?;
        if n_aux == 0 {
            return Err(ArtifactError::SchemaMismatch("snapshot with no auxiliaries".into()));
        }
        let auxiliaries = (0..n_aux)
            .map(|_| TrainedAsr::decode(dec).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let method = SimilarityMethod {
            base: base_from_tag(dec.u8()?)?,
            phonetic: phonetic_from_tag(dec.u8()?)?,
        };
        let classifier = if dec.bool()? { Some(FittedClassifier::decode(dec)?) } else { None };
        let n_modalities = dec.usize()?;
        let mut modalities = Vec::with_capacity(n_modalities);
        for _ in 0..n_modalities {
            let tag = dec.u8()?;
            let kind = ModalityKind::from_tag(tag)
                .ok_or_else(|| ArtifactError::SchemaMismatch(format!("modality tag {tag}")))?;
            if modalities.contains(&kind) {
                return Err(ArtifactError::SchemaMismatch(format!(
                    "modality {kind} appears twice in snapshot"
                )));
            }
            modalities.push(kind);
        }
        let fused = if dec.bool()? { Some(FusedClassifier::decode(dec)?) } else { None };
        if fused.is_some() && modalities.is_empty() {
            return Err(ArtifactError::SchemaMismatch(
                "fused classifier without registered modalities".into(),
            ));
        }
        Ok(DetectionSystemSnapshot { target, auxiliaries, method, classifier, modalities, fused })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_asr::AsrProfile;
    use mvp_ml::ClassifierKind;

    fn trained_system() -> DetectionSystem {
        let mut system =
            DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Ds1).build();
        let benign: Vec<Vec<f64>> = (0..30).map(|i| vec![0.85 + (i % 10) as f64 * 0.01]).collect();
        let aes: Vec<Vec<f64>> = (0..30).map(|i| vec![0.2 + (i % 10) as f64 * 0.01]).collect();
        system.train_on_scores(&benign, &aes, ClassifierKind::Svm);
        system
    }

    #[test]
    fn snapshot_round_trips_with_identical_verdicts() {
        let system = trained_system();
        let snap = DetectionSystemSnapshot::capture(&system);
        assert!(snap.is_trained());
        assert_eq!(snap.name(), system.name());

        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let restored = DetectionSystemSnapshot::read_from(&bytes[..]).unwrap().restore();

        assert_eq!(restored.name(), system.name());
        assert_eq!(restored.method(), system.method());
        assert!(restored.is_trained());
        for s in [0.05, 0.2, 0.5, 0.8, 0.95] {
            assert_eq!(restored.classify_scores(&[s]), system.classify_scores(&[s]), "score {s}");
        }
        let d1 = system.detect_from_transcripts(
            "open the door".to_string(),
            vec!["open the door".to_string()],
            None,
        );
        let d2 = restored.detect_from_transcripts(
            "open the door".to_string(),
            vec!["open the door".to_string()],
            None,
        );
        assert_eq!(d1.is_adversarial, d2.is_adversarial);
        assert_eq!(d1.scores, d2.scores);
    }

    #[test]
    fn restored_asrs_transcribe_identically() {
        use mvp_audio::synth::{SpeakerProfile, Synthesizer};
        use mvp_phonetics::Lexicon;
        let system = trained_system();
        let mut bytes = Vec::new();
        DetectionSystemSnapshot::capture(&system).write_to(&mut bytes).unwrap();
        let restored = DetectionSystemSnapshot::read_from(&bytes[..]).unwrap().restore();
        let synth = Synthesizer::new(16_000);
        let (wave, _) =
            synth.synthesize(&Lexicon::builtin(), "turn off the light", &SpeakerProfile::default());
        assert_eq!(restored.transcripts(&wave), system.transcripts(&wave));
    }

    #[test]
    fn untrained_snapshot_restores_untrained() {
        let system = DetectionSystem::builder(AsrProfile::Ds0).auxiliary(AsrProfile::Ds1).build();
        let snap = DetectionSystemSnapshot::capture(&system);
        assert!(!snap.is_trained());
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let restored = DetectionSystemSnapshot::read_from(&bytes[..]).unwrap().restore();
        assert!(!restored.is_trained());
        assert_eq!(restored.n_auxiliaries(), 1);
    }

    #[test]
    fn fused_snapshot_round_trips() {
        use mvp_ml::Mat;
        use mvp_modality::ModalityKind;
        let mut system = DetectionSystem::builder(AsrProfile::Ds0)
            .auxiliary(AsrProfile::Ds1)
            .modality_kinds(&ModalityKind::ALL)
            .build();
        let dim = system.fusion_layout().unwrap().raw_dim();
        let rows = |base: f64| {
            Mat::from_rows((0..20).map(|i| vec![base + (i % 7) as f64 * 0.01; dim]).collect(), dim)
        };
        system.train_fused_on_mats(rows(0.88), rows(0.2), ClassifierKind::Svm);

        let snap = DetectionSystemSnapshot::capture(&system);
        assert!(snap.is_fused());
        assert_eq!(snap.modalities(), &ModalityKind::ALL);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let restored = DetectionSystemSnapshot::read_from(&bytes[..]).unwrap().restore();

        assert!(restored.is_fused());
        assert_eq!(restored.modalities().kinds(), system.modalities().kinds());
        let (orig, rest) =
            (system.fused_classifier().unwrap(), restored.fused_classifier().unwrap());
        assert_eq!(orig.layout(), rest.layout());
        for base in [0.1, 0.4, 0.6, 0.9] {
            let row = vec![base; dim];
            assert_eq!(orig.is_adversarial(&row), rest.is_adversarial(&row), "base {base}");
            assert_eq!(orig.augment(&row), rest.augment(&row), "base {base}");
        }
    }

    #[test]
    fn corrupted_snapshot_is_refused() {
        let system = trained_system();
        let mut bytes = Vec::new();
        DetectionSystemSnapshot::capture(&system).write_to(&mut bytes).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        assert!(DetectionSystemSnapshot::read_from(&bytes[..]).is_err());
    }

    #[test]
    fn serialization_is_deterministic() {
        let system = trained_system();
        let mut a = Vec::new();
        let mut b = Vec::new();
        DetectionSystemSnapshot::capture(&system).write_to(&mut a).unwrap();
        DetectionSystemSnapshot::capture(&system).write_to(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn method_tags_round_trip_every_combination() {
        let bases = [
            Similarity::Cosine,
            Similarity::Jaccard,
            Similarity::JaroWinkler,
            Similarity::Levenshtein,
            Similarity::Dice,
        ];
        let phonetics = [
            None,
            Some(PhoneticEncoder::Metaphone),
            Some(PhoneticEncoder::Soundex),
            Some(PhoneticEncoder::RefinedSoundex),
            Some(PhoneticEncoder::Nysiis),
        ];
        for base in bases {
            assert_eq!(base_from_tag(base_tag(base)).unwrap(), base);
        }
        for phonetic in phonetics {
            assert_eq!(phonetic_from_tag(phonetic_tag(phonetic)).unwrap(), phonetic);
        }
        assert!(matches!(base_from_tag(5), Err(ArtifactError::SchemaMismatch(_))));
        assert!(matches!(phonetic_from_tag(5), Err(ArtifactError::SchemaMismatch(_))));
    }
}

//! End-to-end engine tests for fused serving: fused verdicts equal to
//! in-process detection when the engine names the whole registry,
//! similarity-only verdicts without it, and config validation.

use std::sync::Arc;

use mvp_audio::synth::{SpeakerProfile, Synthesizer};
use mvp_ears::DetectionSystem;
use mvp_ml::{ClassifierKind, Mat};
use mvp_modality::ModalityKind;
use mvp_phonetics::Lexicon;
use mvp_serve::{DegradePolicy, DetectionEngine, EngineConfig, Verdict, VerdictKind};

/// A system with every modality registered, a trained similarity
/// classifier, and a fused classifier fitted on well-separated
/// synthetic raw rows (high = benign, matching feature orientation).
fn fused_system(kinds: &[ModalityKind]) -> Arc<DetectionSystem> {
    let mut system = DetectionSystem::builder(mvp_asr::AsrProfile::Ds0)
        .auxiliary(mvp_asr::AsrProfile::Ds1)
        .modality_kinds(kinds)
        .build();
    let benign: Vec<Vec<f64>> = (0..30).map(|i| vec![0.85 + (i % 10) as f64 * 0.01]).collect();
    let aes: Vec<Vec<f64>> = (0..30).map(|i| vec![0.2 + (i % 10) as f64 * 0.01]).collect();
    system.train_on_scores(&benign, &aes, ClassifierKind::Svm);
    let dim = system.fusion_layout().unwrap().raw_dim();
    let rows = |base: f64| {
        Mat::from_rows((0..24).map(|i| vec![base + (i % 6) as f64 * 0.01; dim]).collect(), dim)
    };
    system.train_fused_on_mats(rows(0.85), rows(0.15), ClassifierKind::Svm);
    Arc::new(system)
}

fn speech() -> mvp_audio::Waveform {
    let synth = Synthesizer::new(16_000);
    let (wave, _) =
        synth.synthesize(&Lexicon::builtin(), "open the door", &SpeakerProfile::default());
    wave
}

/// Bit patterns of a float sequence, so equality means bit-identical.
fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
    values.into_iter().map(|v| v.to_bits()).collect()
}

/// Asserts a served verdict is the in-process detection bit for bit:
/// the decision, the fused flag, every score and every modality feature.
fn assert_matches_detect(verdict: &Verdict, system: &DetectionSystem, wave: &mvp_audio::Waveform) {
    let expected = system.detect(wave);
    assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial));
    assert_eq!(verdict.fused, expected.fused);
    let scores: Vec<f64> = verdict.scores.iter().map(|s| s.expect("every auxiliary")).collect();
    assert_eq!(bits(&scores), bits(&expected.scores));
    assert_eq!(verdict.modalities.len(), expected.modalities.len());
    for (served, local) in verdict.modalities.iter().zip(&expected.modalities) {
        assert_eq!(served.kind, local.kind);
        assert_eq!(bits(&served.features), bits(&local.features), "{}", local.kind);
    }
}

#[test]
fn full_modality_mix_produces_fused_verdicts() {
    let system = fused_system(&ModalityKind::ALL);
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig {
        modalities: ModalityKind::ALL.to_vec(),
        cache_cap: 8,
        ..EngineConfig::default()
    };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let verdict = engine.submit(speech()).unwrap().wait();
    assert_eq!(verdict.kind, VerdictKind::Full);
    assert!(verdict.fused, "every modality scored on a fused engine");
    assert!(verdict.is_adversarial.is_some());
    assert_eq!(verdict.modalities.len(), ModalityKind::ALL.len());
    for (outcome, kind) in verdict.modalities.iter().zip(ModalityKind::ALL) {
        assert_eq!(outcome.kind, kind);
        assert_eq!(outcome.features.len(), kind.feature_dim());
        assert!(outcome.features.iter().all(|f| f.is_finite()));
    }
    assert_matches_detect(&verdict, &system, &speech());

    // A cache-hit replay answers with the cached fused verdict, scoring
    // no modality again.
    let replay = engine.submit(speech()).unwrap().wait();
    assert!(replay.from_cache);
    assert!(replay.fused);
    assert_eq!(replay.modalities.len(), ModalityKind::ALL.len());
    assert_matches_detect(&replay, &system, &speech());

    let snap = engine.stats();
    assert_eq!(snap.fused_verdicts, 2);
    assert_eq!(snap.modality_scored, ModalityKind::ALL.len() as u64);
    engine.shutdown();
}

#[test]
fn similarity_only_engine_is_unchanged() {
    let system = fused_system(&ModalityKind::ALL);
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let engine = DetectionEngine::start(Arc::clone(&system), policy, EngineConfig::default());
    let verdict = engine.submit(speech()).unwrap().wait();
    assert_eq!(verdict.kind, VerdictKind::Full);
    assert!(!verdict.fused);
    assert!(verdict.modalities.is_empty());
    assert_eq!(engine.stats().modality_scored, 0);
    engine.shutdown();
}

#[test]
#[should_panic(expected = "not registered")]
fn unregistered_modality_in_config_is_rejected() {
    let mut system = DetectionSystem::builder(mvp_asr::AsrProfile::Ds0)
        .auxiliary(mvp_asr::AsrProfile::Ds1)
        .build();
    let benign: Vec<Vec<f64>> = (0..20).map(|_| vec![0.9]).collect();
    let aes: Vec<Vec<f64>> = (0..20).map(|_| vec![0.1]).collect();
    system.train_on_scores(&benign, &aes, ClassifierKind::Svm);
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config =
        EngineConfig { modalities: vec![ModalityKind::Transform], ..EngineConfig::default() };
    let _ = DetectionEngine::start(Arc::new(system), policy, config);
}

#[test]
#[should_panic(expected = "whole registry")]
fn partial_modality_mix_is_rejected() {
    let system = fused_system(&ModalityKind::ALL);
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config =
        EngineConfig { modalities: vec![ModalityKind::Transform], ..EngineConfig::default() };
    let _ = DetectionEngine::start(system, policy, config);
}

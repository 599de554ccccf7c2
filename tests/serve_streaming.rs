//! Streaming-path tests for the serving engine: chunked ingress must be
//! byte-identical to the one-shot API when early exit is off (over
//! arbitrary chunk boundaries, down to one-sample chunks), early exit
//! must fire `Adversarial` before end-of-stream and never `Benign`, and
//! `wait_timeout` must hand the ticket back intact.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;

use mvp_ears_suite::asr::AsrProfile;
use mvp_ears_suite::audio::Waveform;
use mvp_ears_suite::corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears_suite::ears::{DetectionSystem, EarlyExit};
use mvp_ears_suite::ml::ClassifierKind;
use mvp_ears_suite::serve::{DegradePolicy, DetectionEngine, EngineConfig, VerdictKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn training_scores(n_aux: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let benign: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..n_aux).map(|j| 0.82 + 0.015 * ((i + j) % 10) as f64).collect())
        .collect();
    let aes: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..n_aux).map(|j| 0.03 + 0.015 * ((i * 3 + j) % 10) as f64).collect())
        .collect();
    (benign, aes)
}

fn trained_system() -> Arc<DetectionSystem> {
    let mut system = DetectionSystem::builder(AsrProfile::Ds0)
        .auxiliary(AsrProfile::Ds1)
        .auxiliary(AsrProfile::Gcs)
        .build();
    let (benign, aes) = training_scores(system.n_auxiliaries());
    system.train_on_scores(&benign, &aes, ClassifierKind::Knn);
    Arc::new(system)
}

/// A system whose classifier calls *everything* adversarial: benign
/// training scores sit at an unreachable 5.0, so any real similarity
/// vector is nearer the adversarial cluster.
fn always_adversarial_system() -> Arc<DetectionSystem> {
    let mut system = DetectionSystem::builder(AsrProfile::Ds0)
        .auxiliary(AsrProfile::Ds1)
        .auxiliary(AsrProfile::Gcs)
        .build();
    let n_aux = system.n_auxiliaries();
    let benign: Vec<Vec<f64>> = (0..8).map(|_| vec![5.0; n_aux]).collect();
    let aes: Vec<Vec<f64>> = (0..8).map(|i| vec![0.1 + 0.05 * (i % 8) as f64; n_aux]).collect();
    system.train_on_scores(&benign, &aes, ClassifierKind::Knn);
    Arc::new(system)
}

fn no_deadline_config() -> EngineConfig {
    EngineConfig { deadline_ms: 60_000, ..EngineConfig::default() }
}

/// Pushes `wave` through a fresh stream in the given chunk sizes
/// (cycled until the samples run out) and returns the final verdict.
fn stream_in_chunks(
    engine: &DetectionEngine,
    wave: &Waveform,
    sizes: &[usize],
) -> mvp_ears_suite::serve::Verdict {
    let mut handle = engine.submit_stream().expect("stream accepted");
    let samples = wave.samples();
    let mut offset = 0usize;
    let mut k = 0usize;
    while offset < samples.len() {
        let take = sizes[k % sizes.len()].max(1).min(samples.len() - offset);
        handle.push(&samples[offset..offset + take]).expect("chunk accepted");
        offset += take;
        k += 1;
    }
    handle.finish().expect("stream answered")
}

/// Shared fixture for the parity tests: one engine (early exit off),
/// one noise waveform, and the one-shot detection it must reproduce.
struct ParityFixture {
    system: Arc<DetectionSystem>,
    engine: DetectionEngine,
    wave: Waveform,
}

fn parity_fixture() -> &'static ParityFixture {
    static FIXTURE: OnceLock<ParityFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let system = trained_system();
        let policy = DegradePolicy::untrained(system.n_auxiliaries());
        let engine = DetectionEngine::start(Arc::clone(&system), policy, no_deadline_config());
        let mut rng = StdRng::seed_from_u64(20_260_807);
        let samples: Vec<f32> = (0..4_000).map(|_| rng.gen_range(-0.4f32..0.4)).collect();
        let wave = Waveform::from_samples(samples, 16_000);
        ParityFixture { system, engine, wave }
    })
}

#[test]
fn chunked_stream_matches_one_shot_detection() {
    let system = trained_system();
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let engine = DetectionEngine::start(Arc::clone(&system), policy, no_deadline_config());

    let corpus =
        CorpusBuilder::new(CorpusConfig { size: 2, seed: 913, ..CorpusConfig::default() }).build();
    for utterance in corpus.utterances() {
        let expected = system.detect(&utterance.wave);
        let verdict = stream_in_chunks(&engine, &utterance.wave, &[1_600]);
        assert_eq!(verdict.kind, VerdictKind::Full);
        assert!(!verdict.early_exit);
        assert!(!verdict.from_cache, "streams bypass the cache");
        assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial));
        let scores: Vec<f64> = verdict.scores.iter().map(|s| s.expect("full vector")).collect();
        assert_eq!(scores, expected.scores, "chunked scores must be byte-identical");
        assert_eq!(
            verdict.target_transcription.as_deref(),
            Some(expected.target_transcription.as_str())
        );
    }

    let stats = engine.stats();
    assert_eq!(stats.streams_opened, 2);
    assert_eq!(stats.streams_completed, 2);
    assert_eq!(stats.stream_early_exits, 0);
    assert_eq!(stats.cache_hits, 0);
    engine.shutdown();
}

#[test]
fn one_sample_chunks_match_one_shot_detection() {
    // The degenerate boundary: every chunk carries a single sample.
    let fixture = parity_fixture();
    let expected = fixture.system.detect(&fixture.wave);
    let verdict = stream_in_chunks(&fixture.engine, &fixture.wave, &[1]);
    assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial));
    let scores: Vec<f64> = verdict.scores.iter().map(|s| s.expect("full vector")).collect();
    assert_eq!(scores, expected.scores);
    assert_eq!(
        verdict.target_transcription.as_deref(),
        Some(expected.target_transcription.as_str())
    );
}

proptest! {
    #[test]
    fn random_chunk_boundaries_match_one_shot(sizes in vec(1usize..3_000, 1..6)) {
        let fixture = parity_fixture();
        let expected = fixture.system.detect(&fixture.wave);
        let verdict = stream_in_chunks(&fixture.engine, &fixture.wave, &sizes);
        prop_assert_eq!(verdict.kind, VerdictKind::Full);
        prop_assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial));
        let scores: Vec<f64> =
            verdict.scores.iter().map(|s| s.expect("full vector")).collect();
        prop_assert_eq!(scores, expected.scores.clone());
        prop_assert_eq!(
            verdict.target_transcription.as_deref(),
            Some(expected.target_transcription.as_str())
        );
    }
}

#[test]
fn early_exit_fires_adversarial_before_end_of_stream() {
    let system = always_adversarial_system();
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig {
        early_exit: Some(EarlyExit { threshold: 2.0, margin: 0.0, horizon: 1, min_frames: 1 }),
        ..no_deadline_config()
    };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let mut rng = StdRng::seed_from_u64(7);
    let mut handle = engine.submit_stream().expect("stream accepted");
    let mut fired_after_chunks = None;
    for chunk_idx in 0..32 {
        let chunk: Vec<f32> = (0..1_600).map(|_| rng.gen_range(-0.4f32..0.4)).collect();
        handle.push(&chunk).expect("chunk accepted");
        // The collector evaluates asynchronously; give it a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.try_verdict().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if handle.try_verdict().is_some() {
            fired_after_chunks = Some(chunk_idx + 1);
            break;
        }
    }
    let fired_after_chunks = fired_after_chunks.expect("early verdict must fire");
    assert!(fired_after_chunks < 32, "verdict should arrive before the stream ends");

    let verdict = handle.finish().expect("stream answered");
    assert!(verdict.early_exit, "verdict must be marked early");
    assert_eq!(verdict.is_adversarial, Some(true), "early exit only ever fires Adversarial");
    assert_eq!(verdict.kind, VerdictKind::Full);

    assert_eq!(engine.stats().stream_early_exits, 1);
    // finish() returned the cached early verdict without waiting for the
    // recognisers to flush; completion lands asynchronously.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().streams_completed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(engine.stats().streams_completed, 1);
    engine.shutdown();
}

#[test]
fn early_exit_never_fires_benign_before_end_of_stream() {
    // A benign utterance under an armed early-exit rule: the verdict
    // must wait for end-of-stream and carry early_exit = false.
    let system = trained_system();
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig { early_exit: Some(EarlyExit::default()), ..no_deadline_config() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let corpus =
        CorpusBuilder::new(CorpusConfig { size: 1, seed: 913, ..CorpusConfig::default() }).build();
    let wave = &corpus.utterances()[0].wave;
    let expected = system.detect(wave);
    assert!(!expected.is_adversarial, "fixture must be benign for this test");

    let mut handle = engine.submit_stream().expect("stream accepted");
    for chunk in wave.samples().chunks(1_600) {
        handle.push(chunk).expect("chunk accepted");
    }
    // No amount of waiting may produce a pre-finish Benign verdict.
    std::thread::sleep(Duration::from_millis(150));
    assert!(handle.try_verdict().is_none(), "Benign must wait for end-of-stream");
    let verdict = handle.finish().expect("stream answered");
    assert!(!verdict.early_exit);
    assert_eq!(verdict.is_adversarial, Some(false));
    assert_eq!(engine.stats().stream_early_exits, 0);
    engine.shutdown();
}

#[test]
fn streams_degrade_like_one_shots_when_an_auxiliary_is_disabled() {
    // A stream is one request lifecycle like a one-shot submit: the
    // disabled auxiliary is never dispatched, its deadline passes at
    // finish, and the degrade policy answers.
    let system = trained_system();
    let n_aux = system.n_auxiliaries();
    let (benign, aes) = training_scores(n_aux);
    let policy = DegradePolicy::trained(n_aux, &benign, &aes, ClassifierKind::Knn, 0.05);
    let config = EngineConfig { aux_deadline_ms: vec![Some(0)], ..no_deadline_config() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let corpus =
        CorpusBuilder::new(CorpusConfig { size: 1, seed: 913, ..CorpusConfig::default() }).build();
    let wave = &corpus.utterances()[0].wave;
    let streamed = stream_in_chunks(&engine, wave, &[1_600]);
    let subset = mvp_ears_suite::serve::FallbackTier::SubsetClassifier;
    assert_eq!(streamed.kind, VerdictKind::Degraded(subset));
    assert!(streamed.is_adversarial.is_some());
    assert_eq!(streamed.scores[0], None, "disabled auxiliary must not score");
    assert!(streamed.scores[1].is_some());

    // The same audio submitted one-shot gets the same degraded verdict.
    let one_shot = engine.detect_blocking(wave.clone()).expect("accepted");
    assert_eq!(one_shot.kind, streamed.kind);
    assert_eq!(one_shot.is_adversarial, streamed.is_adversarial);
    assert_eq!(one_shot.scores, streamed.scores);

    let stats = engine.stats();
    assert_eq!(stats.degraded, 2);
    assert_eq!(stats.streams_completed, 1);
    engine.shutdown();
}

#[test]
fn wait_timeout_returns_the_ticket_then_the_verdict() {
    let system = trained_system();
    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig {
        // A lone request sits in the batcher for the full delay window,
        // so a short timeout reliably expires first.
        max_batch: 16,
        max_delay_ms: 1_000,
        ..no_deadline_config()
    };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let corpus =
        CorpusBuilder::new(CorpusConfig { size: 1, seed: 913, ..CorpusConfig::default() }).build();
    let wave = Arc::new(corpus.utterances()[0].wave.clone());

    let pending = engine.submit(Arc::clone(&wave)).expect("queue has room");
    let pending = pending
        .wait_timeout(Duration::from_millis(50))
        .expect_err("verdict cannot be ready inside the batcher delay window");
    // The returned ticket is still live: a blocking wait completes.
    let verdict = pending.wait();
    assert_eq!(verdict.kind, VerdictKind::Full);
    engine.shutdown();
}

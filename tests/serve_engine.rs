//! End-to-end tests for the serving engine: verdict parity with the
//! one-shot detection API under concurrent load, cache-hit behaviour,
//! graceful degradation when an auxiliary is deadline-disabled, warm
//! starts from a persisted detection-system snapshot, and engines that
//! leave the process-global kernel thread count alone.

use std::sync::Arc;

use mvp_ears_suite::asr::{Asr, AsrProfile, AsrScratch};
use mvp_ears_suite::audio::Waveform;
use mvp_ears_suite::corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears_suite::ears::DetectionSystem;
use mvp_ears_suite::ml::ClassifierKind;
use mvp_ears_suite::serve::{
    DegradePolicy, DetectionEngine, EngineConfig, FallbackTier, VerdictKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Well-separated synthetic training scores matching the paper's score
/// geometry (benign similarities high, adversarial low), so training is
/// deterministic and needs no attack run.
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

/// Mixed test traffic: N clean utterances plus N noise bursts (which no
/// ASR agrees on, standing in for adversarial audio).
fn test_waves(n: usize) -> Vec<Arc<Waveform>> {
    let corpus =
        CorpusBuilder::new(CorpusConfig { size: n, seed: 913, ..CorpusConfig::default() }).build();
    let mut waves: Vec<Arc<Waveform>> =
        corpus.utterances().iter().map(|u| Arc::new(u.wave.clone())).collect();
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..n {
        let samples: Vec<f32> = (0..6_000).map(|_| rng.gen_range(-0.4f32..0.4)).collect();
        waves.push(Arc::new(Waveform::from_samples(samples, 16_000)));
    }
    waves
}

#[test]
fn engine_verdicts_match_one_shot_detection() {
    let system = trained_system();
    let waves = test_waves(3);

    let expected: Vec<_> = waves.iter().map(|w| system.detect(w)).collect();

    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig {
        // The burst below (every wave plus a duplicate of the first)
        // fills exactly one batch, and the delay never flushes it early.
        max_batch: waves.len() + 1,
        max_delay_ms: 60_000,
        deadline_ms: 60_000, // no deadline may fire in this test
        ..EngineConfig::default()
    };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    // Submit everything up front so requests overlap in flight; the
    // duplicate joins the first wave's request inside the batch.
    let burst = waves.iter().chain([&waves[0]]);
    let pending: Vec<_> =
        burst.map(|w| engine.submit(Arc::clone(w)).expect("queue has room")).collect();
    for (pending, expected) in pending.into_iter().zip(expected.iter().chain([&expected[0]])) {
        let verdict = pending.wait();
        assert_eq!(verdict.kind, VerdictKind::Full);
        assert!(!verdict.from_cache);
        assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial));
        let scores: Vec<f64> = verdict.scores.iter().map(|s| s.expect("full vector")).collect();
        assert_eq!(scores, expected.scores);
        assert_eq!(
            verdict.target_transcription.as_deref(),
            Some(expected.target_transcription.as_str())
        );
    }

    // An exact replay is answered from the cache with the same verdict.
    let replay = engine.submit(Arc::clone(&waves[0])).expect("queue has room").wait();
    assert!(replay.from_cache);
    assert_eq!(replay.kind, VerdictKind::Full);
    assert_eq!(replay.is_adversarial, Some(expected[0].is_adversarial));

    let stats = engine.stats();
    assert_eq!(stats.submitted, waves.len() as u64 + 2);
    assert_eq!(stats.completed, waves.len() as u64 + 2);
    assert_eq!(stats.batches, 1, "the burst is one micro-batch; the replay is a cache hit");
    assert_eq!(stats.mean_batch_size, (waves.len() + 1) as f64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.deadline_failures, 0);
    assert_eq!(stats.degraded, 0);
    assert!(stats.cache_hits >= 1, "replay must hit the cache");
    assert_eq!(stats.stream_early_exits, 0, "a replayed verdict is no early exit");
    assert_eq!(stats.queue_depth, 0, "every answered request has left the ingress queue");
    engine.shutdown();
}

#[test]
fn engines_leave_the_kernel_thread_count_alone() {
    let threads = mvp_ears_suite::dsp::kernel::threads();
    let system = trained_system();
    let start = || {
        let policy = DegradePolicy::untrained(system.n_auxiliaries());
        DetectionEngine::start(Arc::clone(&system), policy, EngineConfig::default())
    };
    let first = start();
    assert_eq!(mvp_ears_suite::dsp::kernel::threads(), threads, "engine start");
    let second = start();
    assert_eq!(mvp_ears_suite::dsp::kernel::threads(), threads, "a second engine's start");
    first.shutdown();
    assert_eq!(mvp_ears_suite::dsp::kernel::threads(), threads, "one engine's shutdown");
    second.shutdown();
    assert_eq!(mvp_ears_suite::dsp::kernel::threads(), threads, "the last engine's shutdown");
}

#[test]
fn degraded_mode_still_answers_every_request() {
    let system = trained_system();
    let n_aux = system.n_auxiliaries();
    let waves = test_waves(3);

    let (benign, aes) = training_scores(n_aux);
    let policy = DegradePolicy::trained(n_aux, &benign, &aes, ClassifierKind::Knn, 0.05);
    let config = EngineConfig {
        // Auxiliary 0 (DS1) never dispatched: deterministic degraded mode.
        aux_deadline_ms: vec![Some(0)],
        deadline_ms: 60_000,
        ..EngineConfig::default()
    };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let pending: Vec<_> =
        waves.iter().map(|w| engine.submit(Arc::clone(w)).expect("queue has room")).collect();
    for pending in pending {
        let verdict = pending.wait();
        // Every request is answered, by the subset classifier for the
        // surviving auxiliary.
        assert_eq!(verdict.kind, VerdictKind::Degraded(FallbackTier::SubsetClassifier));
        assert!(verdict.is_adversarial.is_some());
        assert!(verdict.scores[0].is_none(), "disabled auxiliary must not score");
        assert!(verdict.scores[1].is_some());
    }

    let stats = engine.stats();
    assert_eq!(stats.completed, waves.len() as u64);
    assert_eq!(stats.degraded, waves.len() as u64);
    assert_eq!(stats.deadline_failures, 0);
    // Partial transcription vectors are never cached.
    assert_eq!(stats.cache_hits, 0);
    engine.shutdown();
}

#[test]
fn warm_start_round_trips_through_the_model_dir() {
    let dir = std::env::temp_dir().join(format!("mvp-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let waves = test_waves(2);
    let config = EngineConfig {
        deadline_ms: 60_000,
        model_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };

    // Cold start: no snapshot on disk yet, so the closure trains and the
    // engine persists the system.
    let n_aux = {
        let system = trained_system();
        let n_aux = system.n_auxiliaries();
        let policy = DegradePolicy::untrained(n_aux);
        let (engine, warm) = DetectionEngine::start_or_warm(policy, config.clone(), || {
            Arc::try_unwrap(trained_system()).expect("sole owner")
        })
        .expect("cold start");
        assert!(!warm, "first start must be cold");
        let verdict = engine.detect_blocking(Arc::clone(&waves[0])).expect("accepted");
        assert_eq!(verdict.kind, VerdictKind::Full);
        engine.shutdown();
        n_aux
    };
    assert!(dir.join(DetectionEngine::SNAPSHOT_FILE).is_file(), "snapshot persisted");

    // Warm start: the snapshot is loaded, the cold closure must not run,
    // and verdicts match the one-shot API on the restored system.
    let expected: Vec<_> = {
        let system = trained_system();
        waves.iter().map(|w| system.detect(w)).collect()
    };
    let policy = DegradePolicy::untrained(n_aux);
    let (engine, warm) = DetectionEngine::start_or_warm(policy, config.clone(), || {
        panic!("warm start must not train")
    })
    .expect("warm start");
    assert!(warm, "second start must be warm");
    for (wave, expected) in waves.iter().zip(&expected) {
        let verdict = engine.detect_blocking(Arc::clone(wave)).expect("accepted");
        assert_eq!(verdict.kind, VerdictKind::Full);
        assert_eq!(verdict.is_adversarial, Some(expected.is_adversarial));
        let scores: Vec<f64> = verdict.scores.iter().map(|s| s.expect("full vector")).collect();
        assert_eq!(scores, expected.scores, "warm verdicts must be bit-identical");
    }
    engine.shutdown();

    // A corrupted snapshot is refused with a typed error, not retrained.
    let path = dir.join(DetectionEngine::SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("snapshot writable");
    let policy = DegradePolicy::untrained(n_aux);
    let err = DetectionEngine::start_or_warm(policy, config, || {
        panic!("corrupt snapshot must not fall back to training")
    })
    .expect_err("corrupt snapshot must be refused");
    assert!(!err.is_not_found(), "corruption is not a cache miss: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_scratch_reuse_is_byte_identical_to_one_shot() {
    // The serve workers hold one scratch plan for their whole lifetime;
    // reusing it across batches must never leak state between requests.
    let asr = AsrProfile::Ds0.trained();
    let waves = test_waves(2);
    let refs: Vec<&Waveform> = waves.iter().map(Arc::as_ref).collect();

    let one_shot: Vec<String> = refs.iter().map(|w| asr.transcribe(w)).collect();

    let mut scratch = AsrScratch::default();
    let first = asr.transcribe_batch_with(&refs, &mut scratch);
    let second = asr.transcribe_batch_with(&refs, &mut scratch);
    assert_eq!(first, one_shot, "fresh scratch must match the allocating path");
    assert_eq!(second, one_shot, "reused scratch must match the allocating path");

    // Equal transcripts can hide a sub-ulp drift that flips a verdict
    // near the decision boundary later: the served logits must equal the
    // in-process ones bit for bit, through a reused scratch too.
    let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for round in 0..2 {
        for wave in &refs {
            asr.transcribe_batch_with(&[wave], &mut scratch);
            let served = bits(scratch.logits().as_slice());
            assert_eq!(served, bits(asr.logits(wave).as_slice()), "round {round}");
        }
    }
}

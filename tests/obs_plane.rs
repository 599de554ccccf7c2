//! Integration tests for the observability plane on the serving path:
//! every verdict — full, cache hit, degraded, shed — leaves a JSONL audit
//! record that reconstructs the decision, and the Prometheus exposition
//! agrees with the stats snapshot (one storage cell, no dual bookkeeping).

use std::path::PathBuf;
use std::sync::Arc;

use mvp_ears_suite::asr::AsrProfile;
use mvp_ears_suite::audio::Waveform;
use mvp_ears_suite::corpus::{CorpusBuilder, CorpusConfig};
use mvp_ears_suite::ears::DetectionSystem;
use mvp_ears_suite::ml::ClassifierKind;
use mvp_ears_suite::obs::json::{parse, Value};
use mvp_ears_suite::obs::AuditLog;
use mvp_ears_suite::serve::{
    DegradePolicy, DetectionEngine, EngineConfig, SubmitError, VerdictKind,
};

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

fn test_waves(n: usize) -> Vec<Arc<Waveform>> {
    let corpus =
        CorpusBuilder::new(CorpusConfig { size: n, seed: 515, ..CorpusConfig::default() }).build();
    corpus.utterances().iter().map(|u| Arc::new(u.wave.clone())).collect()
}

/// A fresh audit log in the temp dir, unique per test.
fn audit_log(tag: &str) -> (Arc<AuditLog>, PathBuf) {
    let path =
        std::env::temp_dir().join(format!("mvp-obs-plane-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let log = AuditLog::create(&path, 1 << 20).expect("audit log in temp dir");
    (Arc::new(log), path)
}

/// Reads, deletes and parses the audit file into one `Value` per line.
fn read_records(path: &PathBuf) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("audit file readable");
    let _ = std::fs::remove_file(path);
    text.lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("unparseable audit line: {e}: {line}")))
        .collect()
}

fn str_field<'a>(record: &'a Value, key: &str) -> &'a str {
    record.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("no string `{key}`"))
}

#[test]
fn full_and_cache_hit_verdicts_are_audited() {
    let system = trained_system();
    let n_aux = system.n_auxiliaries();
    let waves = test_waves(2);
    let (audit, path) = audit_log("full");

    let policy = DegradePolicy::untrained(n_aux);
    let config =
        EngineConfig { deadline_ms: 60_000, audit: Some(audit), ..EngineConfig::default() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let verdicts: Vec<_> =
        waves.iter().map(|w| engine.detect_blocking(Arc::clone(w)).expect("accepted")).collect();
    let replay = engine.detect_blocking(Arc::clone(&waves[0])).expect("accepted");
    assert!(replay.from_cache, "replay must hit the cache");
    engine.shutdown();

    let records = read_records(&path);
    assert_eq!(records.len(), waves.len() + 1, "one record per verdict");
    let cached: Vec<bool> =
        records.iter().map(|r| r.get("cache").unwrap().as_bool().unwrap()).collect();
    assert_eq!(cached.iter().filter(|&&c| c).count(), 1, "exactly one cache-hit record");

    for (record, verdict) in records.iter().zip(verdicts.iter().chain([&replay])) {
        assert_eq!(str_field(record, "event"), "verdict");
        assert_eq!(str_field(record, "kind"), "full");
        assert!(record.get("tier").unwrap().is_null(), "full verdicts have no fallback tier");
        assert_eq!(
            record.get("adversarial").unwrap().as_bool(),
            verdict.is_adversarial,
            "the record must reconstruct the decision"
        );
        assert_eq!(record.get("target").unwrap().as_str(), verdict.target_transcription.as_deref());
        // Per-auxiliary transcript and similarity score, in order.
        let aux = record.get("aux").unwrap().as_arr().unwrap();
        assert_eq!(aux.len(), n_aux);
        for (j, entry) in aux.iter().enumerate() {
            assert_eq!(entry.get("i").unwrap().as_f64(), Some(j as f64));
            assert!(entry.get("text").unwrap().as_str().is_some());
            assert_eq!(entry.get("score").unwrap().as_f64(), verdict.scores[j]);
        }
        // Per-stage micro-timings add up to a plausible total.
        let timing = record.get("timing").unwrap();
        let total = timing.get("total_us").unwrap().as_f64().unwrap();
        assert!(total >= 0.0);
        assert!(timing.get("queue_us").unwrap().as_f64().is_some());
        assert!(timing.get("transcribe_us").unwrap().as_arr().is_some());
    }

    // The computed (non-cache) records carry their batch and stage times.
    let computed = &records[0];
    assert!(computed.get("batch").unwrap().as_f64().is_some());
    let transcribe =
        computed.get("timing").unwrap().get("transcribe_us").unwrap().as_arr().unwrap();
    assert_eq!(transcribe.len(), n_aux + 1, "one transcribe time per recogniser");
}

#[test]
fn degraded_verdicts_record_their_tier() {
    let system = trained_system();
    let n_aux = system.n_auxiliaries();
    let waves = test_waves(2);
    let (audit, path) = audit_log("degraded");

    let (benign, aes) = training_scores(n_aux);
    let policy = DegradePolicy::trained(n_aux, &benign, &aes, ClassifierKind::Knn, 0.05);
    let config = EngineConfig {
        aux_deadline_ms: vec![Some(0)], // auxiliary 0 never dispatched
        deadline_ms: 60_000,
        audit: Some(audit),
        ..EngineConfig::default()
    };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);
    for wave in &waves {
        let verdict = engine.detect_blocking(Arc::clone(wave)).expect("accepted");
        assert!(matches!(verdict.kind, VerdictKind::Degraded(_)));
    }
    engine.shutdown();

    let records = read_records(&path);
    assert_eq!(records.len(), waves.len());
    for record in &records {
        assert_eq!(str_field(record, "kind"), "degraded");
        assert_eq!(str_field(record, "tier"), "subset_classifier");
        assert!(record.get("adversarial").unwrap().as_bool().is_some());
        let aux = record.get("aux").unwrap().as_arr().unwrap();
        assert!(aux[0].get("text").unwrap().is_null(), "disabled auxiliary has no transcript");
        assert!(aux[0].get("score").unwrap().is_null());
        assert!(aux[1].get("score").unwrap().as_f64().is_some());
    }
}

#[test]
fn shed_requests_are_audited() {
    let system = trained_system();
    let waves = test_waves(1);
    let (audit, path) = audit_log("shed");

    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig {
        queue_cap: 1, // tiny ingress: a tight submit loop must overflow it
        deadline_ms: 60_000,
        audit: Some(audit),
        ..EngineConfig::default()
    };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);

    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for _ in 0..64 {
        match engine.submit(Arc::clone(&waves[0])) {
            Ok(pending) => accepted.push(pending),
            Err(SubmitError::Overloaded) => shed += 1,
            Err(SubmitError::Closed) => panic!("engine closed during the test"),
        }
    }
    assert!(shed > 0, "64 tight-loop submits must overflow a one-slot queue");
    let accepted_count = accepted.len();
    for pending in accepted {
        pending.wait();
    }
    let stats = engine.stats();
    engine.shutdown();

    let records = read_records(&path);
    let shed_records = records.iter().filter(|r| str_field(r, "event") == "shed").count() as u64;
    let verdict_records = records.iter().filter(|r| str_field(r, "event") == "verdict").count();
    assert_eq!(shed_records, shed, "every shed request leaves a record");
    assert_eq!(verdict_records, accepted_count, "every accepted request leaves a record");
    assert_eq!(stats.shed, shed, "stats and audit must agree on shedding");
}

#[test]
fn streams_and_one_shots_share_one_request_id_space() {
    let system = trained_system();
    let waves = test_waves(1);
    let (audit, path) = audit_log("ids");

    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config =
        EngineConfig { deadline_ms: 60_000, audit: Some(audit), ..EngineConfig::default() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);
    engine.detect_blocking(Arc::clone(&waves[0])).expect("accepted");
    let mut stream = engine.submit_stream().expect("stream accepted");
    stream.push(waves[0].samples()).expect("chunk accepted");
    let stream_id = stream.id();
    stream.finish().expect("stream answered");
    engine.shutdown();

    let records = read_records(&path);
    let ids: Vec<f64> =
        records.iter().map(|r| r.get("request").unwrap().as_f64().unwrap()).collect();
    assert_eq!(ids.len(), 2, "one record per verdict");
    assert_ne!(ids[0], ids[1], "a stream and a one-shot must not share an audit request id");
    assert!(ids.contains(&(stream_id as f64)), "the stream's record carries its handle id");
}

#[test]
fn exposition_agrees_with_snapshot() {
    let system = trained_system();
    let waves = test_waves(2);

    let policy = DegradePolicy::untrained(system.n_auxiliaries());
    let config = EngineConfig { deadline_ms: 60_000, ..EngineConfig::default() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy, config);
    for wave in &waves {
        engine.detect_blocking(Arc::clone(wave)).expect("accepted");
    }
    engine.detect_blocking(Arc::clone(&waves[0])).expect("accepted");

    let exposition = engine.metrics_text();
    let stats = engine.stats();
    engine.shutdown();

    // Counters in the exposition are the very numbers in the snapshot.
    for (name, value) in [
        ("serve_submitted_total", stats.submitted),
        ("serve_completed_total", stats.completed),
        ("serve_shed_total", stats.shed),
        ("serve_degraded_total", stats.degraded),
        ("serve_cache_lookups_total", stats.cache_lookups),
        ("serve_cache_hits_total", stats.cache_hits),
        ("serve_cache_poison_recovered_total", stats.cache_poison_recovered),
    ] {
        let line = format!("{name} {value}");
        assert!(
            exposition.lines().any(|l| l == line),
            "exposition must contain `{line}`:\n{exposition}"
        );
    }
    assert_eq!(stats.cache_poison_recovered, 0, "healthy run never recovers a poisoned lock");
    // The latency histogram counted every completed request.
    let line = format!("serve_latency_micros_count {}", stats.completed);
    assert!(exposition.lines().any(|l| l == line), "histogram count:\n{exposition}");
    assert!(exposition.contains("# TYPE serve_latency_micros histogram"));
}

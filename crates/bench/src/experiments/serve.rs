//! Serving-engine load benchmark: throughput, latency percentiles,
//! cache hit rate, shedding and degradation under several load levels,
//! plus shard-router scaling and streaming early-exit levels.
//!
//! Entirely offline and seeded: the corpus is the cached benign set, the
//! classifier trains on the cached score vectors, and every load level's
//! request sequence is deterministic. Results print as a table and are
//! written to `BENCH_serve.json` under the context's output directory.
//!
//! The sharded levels are sized to expose **cache affinity**, not CPU
//! parallelism (CI runs on one core): the per-shard transcription cache
//! is deliberately smaller than the distinct-waveform working set, so a
//! single shard thrashes its LRU on every pass while four shards —
//! each home to a quarter of the content hashes — keep their residents
//! and answer repeat passes from cache.

use std::sync::Arc;

use mvp_asr::AsrProfile;
use mvp_audio::Waveform;
use mvp_ears::{DetectionSystem, EarlyExit, SimilarityMethod};
use mvp_ml::ClassifierKind;
use mvp_serve::{
    run_load, DegradePolicy, DetectionEngine, EngineConfig, LoadMode, LoadReport, LoadSpec,
    RouterConfig, ShardRouter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::context::ExperimentContext;
use crate::experiments::{Metrics, THREE_AUX};
use crate::table::Table;

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_serve.json";

/// Splices router-level fields (shard count, per-shard cache hit rates,
/// steal counters) into a [`LoadReport`] JSON object so every
/// `BENCH_serve.json` entry stays one flat object.
fn sharded_json(report: &LoadReport, n_shards: usize, hit_rates: &[f64], steals: &[u64]) -> String {
    let base = report.to_json();
    let rates: Vec<String> = hit_rates.iter().map(|r| format!("{r:.4}")).collect();
    let steals: Vec<String> = steals.iter().map(u64::to_string).collect();
    format!(
        "{},\"n_shards\":{},\"shard_cache_hit_rates\":[{}],\"steal_counts\":[{}]}}",
        &base[..base.len() - 1],
        n_shards,
        rates.join(","),
        steals.join(","),
    )
}

/// Runs every load level against a freshly started engine each and
/// writes [`ARTIFACT`]. Returns `shard_x4_speedup` (4-shard over 1-shard
/// throughput) and `sharded_answered_frac` (the lowest share of offered
/// requests a sharded level answered).
pub fn run_serve_bench(ctx: &ExperimentContext) -> Metrics {
    println!("== serving engine: throughput/latency under load ==");
    let method = SimilarityMethod::default();
    let aux: Vec<AsrProfile> = THREE_AUX.to_vec();

    let mut system = DetectionSystem::builder(AsrProfile::Ds0)
        .auxiliary(aux[0])
        .auxiliary(aux[1])
        .auxiliary(aux[2])
        .build();
    let benign_scores = ctx.benign_scores(&aux, method);
    let ae_scores = ctx.ae_scores(&aux, method, None);
    system.train_on_scores(&benign_scores, &ae_scores, ClassifierKind::Svm);
    let system = Arc::new(system);

    let corpus: Vec<Arc<Waveform>> =
        ctx.benign.utterances().iter().map(|u| Arc::new(u.wave.clone())).collect();
    // Request volume scales with the corpus so tiny stays in seconds.
    let requests = (corpus.len() * 3).clamp(24, 240);

    let base_config = EngineConfig {
        queue_cap: 64,
        max_batch: 8,
        max_delay_ms: 2,
        // Generous: deadline misses here would only add noise; the
        // degraded level forces degradation explicitly instead.
        deadline_ms: 120_000,
        aux_deadline_ms: Vec::new(),
        cache_cap: 256,
        ..EngineConfig::default()
    };

    struct Level {
        spec: LoadSpec,
        config: EngineConfig,
    }

    let levels = vec![
        Level {
            spec: LoadSpec {
                name: "closed-c2".into(),
                requests,
                mode: LoadMode::Closed { concurrency: 2 },
                duplicate_frac: 0.5,
                seed: 11,
            },
            config: base_config.clone(),
        },
        Level {
            spec: LoadSpec {
                name: "closed-c8".into(),
                requests,
                mode: LoadMode::Closed { concurrency: 8 },
                duplicate_frac: 0.5,
                seed: 12,
            },
            config: base_config.clone(),
        },
        Level {
            spec: LoadSpec {
                name: "open-100hz".into(),
                requests,
                mode: LoadMode::Open { rate_hz: 100.0, waiters: 4 },
                duplicate_frac: 0.5,
                seed: 13,
            },
            // Small queue so overload visibly sheds instead of buffering.
            config: EngineConfig { queue_cap: 16, ..base_config.clone() },
        },
        Level {
            spec: LoadSpec {
                name: "degraded-c4".into(),
                requests,
                mode: LoadMode::Closed { concurrency: 4 },
                duplicate_frac: 0.5,
                seed: 14,
            },
            // First auxiliary disabled: every verdict takes the
            // degradation path.
            config: EngineConfig { aux_deadline_ms: vec![Some(0)], ..base_config.clone() },
        },
    ];

    let n_aux = system.n_auxiliaries();
    let policy = |_shard: usize| {
        DegradePolicy::trained(n_aux, &benign_scores, &ae_scores, ClassifierKind::Knn, 0.05)
    };
    // (json entry, table row) per level.
    let mut entries: Vec<String> = Vec::new();
    let mut table = Table::new([
        "level",
        "offered",
        "done",
        "shed",
        "degraded",
        "rps",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "cache hit",
        "early",
        "steals",
    ]);
    let mut row = |r: &LoadReport, early: String, steals: String| {
        table.row([
            r.name.clone(),
            r.offered.to_string(),
            r.tally.total().to_string(),
            r.shed.to_string(),
            r.tally.degraded.to_string(),
            format!("{:.1}", r.throughput_rps),
            format!("{:.1}", r.stats.latency_p50_micros as f64 / 1e3),
            format!("{:.1}", r.stats.latency_p95_micros as f64 / 1e3),
            format!("{:.1}", r.stats.latency_p99_micros as f64 / 1e3),
            format!("{:.0}%", r.stats.cache_hit_rate() * 100.0),
            early,
            steals,
        ]);
    };

    for level in &levels {
        let engine = DetectionEngine::start(Arc::clone(&system), policy(0), level.config.clone());
        let report = run_load(&engine, &corpus, &level.spec);
        engine.shutdown();
        row(&report, "-".into(), "-".into());
        entries.push(report.to_json());
    }

    // Shard-scaling levels: fixed working set, per-shard cache smaller
    // than the set, zero duplicates — every pass walks all distinct
    // waveforms, so hit rate is pure affinity.
    let distinct = corpus.len();
    let shard_engine = EngineConfig { cache_cap: (distinct / 3).max(2), ..base_config.clone() };
    let mut shard_rps = Vec::new();
    let mut sharded_answered_frac = 1.0f64;
    for n_shards in [1usize, 2, 4] {
        let spec = LoadSpec {
            name: format!("sharded-x{n_shards}"),
            requests: distinct * 3,
            mode: LoadMode::Closed { concurrency: 4 },
            duplicate_frac: 0.0,
            seed: 21,
        };
        let config = RouterConfig {
            n_shards,
            // High enough that closed-loop depths never trigger steals:
            // the levels measure affinity, not steal throughput.
            steal_depth: 64,
            engine: shard_engine.clone(),
        };
        let router = ShardRouter::start(Arc::clone(&system), config, |shard| policy(shard));
        let report = run_load(&router, &corpus, &spec);
        let hit_rates: Vec<f64> = router.shard_stats().iter().map(|s| s.cache_hit_rate()).collect();
        let steals = router.steal_counts();
        router.shutdown();
        shard_rps.push(report.throughput_rps);
        sharded_answered_frac =
            sharded_answered_frac.min(report.tally.total() as f64 / report.offered.max(1) as f64);
        row(&report, "-".into(), steals.iter().sum::<u64>().to_string());
        entries.push(sharded_json(&report, n_shards, &hit_rates, &steals));
    }

    // Streaming level: benign utterances plus seeded noise bursts (which
    // the classifier flags adversarial), chunked ingress with the
    // default early-exit rule armed — reports early-exit rate and
    // time-to-verdict.
    let mut stream_corpus = Vec::with_capacity(corpus.len() * 2);
    let mut rng = StdRng::seed_from_u64(31);
    for wave in &corpus {
        // Interleaved benign/noise so any schedule prefix sees both.
        stream_corpus.push(Arc::clone(wave));
        let samples: Vec<f32> = (0..16_000).map(|_| rng.gen_range(-0.4f32..0.4)).collect();
        stream_corpus.push(Arc::new(Waveform::from_samples(samples, 16_000)));
    }
    let spec = LoadSpec {
        name: "streaming-c2".into(),
        // Streams are paced to real time, so volume stays modest.
        requests: stream_corpus.len().min(24),
        mode: LoadMode::Streaming { concurrency: 2, chunk_ms: 60 },
        duplicate_frac: 0.0,
        seed: 41,
    };
    let config = EngineConfig { early_exit: Some(EarlyExit::default()), ..base_config.clone() };
    let engine = DetectionEngine::start(Arc::clone(&system), policy(0), config);
    let report = run_load(&engine, &stream_corpus, &spec);
    engine.shutdown();
    row(
        &report,
        format!(
            "{}/{} ({:.0}ms ttv)",
            report.early_exits,
            report.offered,
            report.mean_time_to_verdict_us / 1e3
        ),
        "-".into(),
    );
    entries.push(report.to_json());

    println!("{table}");

    let json = format!("[\n  {}\n]\n", entries.join(",\n  "));
    ctx.write_artifact(ARTIFACT, &json);
    vec![
        ("shard_x4_speedup", shard_rps[2] / shard_rps[0].max(1e-9)),
        ("sharded_answered_frac", sharded_answered_frac),
    ]
}

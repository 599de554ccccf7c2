//! Shard-router scaling benchmark: the same fixed-count closed loop
//! against 1, 2 and 4 shards, reporting throughput, per-shard cache hit
//! rates and steal counters.
//!
//! Entirely offline and deterministic in its request sequence: the
//! corpus is the cached benign set, the classifier trains on the cached
//! score vectors, and each level walks the corpus three times in order.
//! Results print as a table and are written to `BENCH_serve.json` under
//! the context's output directory.
//!
//! The levels are sized to expose **cache affinity**, not CPU
//! parallelism (CI runs on one core): the per-shard transcription cache
//! is deliberately smaller than the distinct-waveform working set, so a
//! single shard thrashes its LRU on every pass while four shards —
//! each home to a quarter of the content hashes — keep their residents
//! and answer repeat passes from cache. Served verdict behaviour
//! (degradation, shedding, streaming early exit, tracing, audit) is
//! checked by the `mvp-serve` and facade tests, and served throughput
//! and latency by `perfbench/`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mvp_asr::AsrProfile;
use mvp_audio::Waveform;
use mvp_ears::{DetectionSystem, SimilarityMethod};
use mvp_ml::ClassifierKind;
use mvp_obs::JsonObj;
use mvp_serve::{DegradePolicy, EngineConfig, RouterConfig, ShardRouter, SubmitError};

use crate::context::ExperimentContext;
use crate::experiments::{Metrics, THREE_AUX};
use crate::table::Table;

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_serve.json";

/// Submitter threads in the closed loop, each with one request in flight.
const CONCURRENCY: usize = 4;

/// Drives `router` with a closed loop: `requests` submissions walking
/// `corpus` in order, striped over [`CONCURRENCY`] threads so each
/// thread's sequence is fixed whatever the interleaving. A shed request
/// is retried until accepted; a closed router ends the thread. Returns
/// the verdicts received and the wall time.
fn closed_loop(
    router: &ShardRouter,
    corpus: &[Arc<Waveform>],
    requests: usize,
) -> (usize, Duration) {
    let started = Instant::now();
    let answered: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONCURRENCY)
            .map(|thread| {
                scope.spawn(move || {
                    let mut answered = 0;
                    for k in (thread..requests).step_by(CONCURRENCY) {
                        loop {
                            match router.submit(Arc::clone(&corpus[k % corpus.len()])) {
                                Ok(pending) => {
                                    pending.wait();
                                    answered += 1;
                                    break;
                                }
                                Err(SubmitError::Overloaded) => {
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                Err(SubmitError::Closed) => return answered,
                            }
                        }
                    }
                    answered
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("submitter thread panicked")).sum()
    });
    (answered, started.elapsed())
}

/// Runs the 1-, 2- and 4-shard levels against a freshly started router
/// each and writes [`ARTIFACT`]. Returns `shard_x4_speedup` (4-shard over
/// 1-shard throughput) and `sharded_answered_frac` (the lowest share of
/// offered requests a level answered).
pub fn run_serve_bench(ctx: &ExperimentContext) -> Metrics {
    println!("== serving engine: shard-router scaling ==");
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
    let n_aux = system.n_auxiliaries();

    let corpus: Vec<Arc<Waveform>> =
        ctx.benign.utterances().iter().map(|u| Arc::new(u.wave.clone())).collect();
    // Fixed working set, per-shard cache smaller than the set, zero
    // duplicates: every pass walks all distinct waveforms, so the hit
    // rate is pure affinity.
    let distinct = corpus.len();
    let requests = distinct * 3;
    let engine = EngineConfig {
        queue_cap: 64,
        max_batch: 8,
        max_delay_ms: 2,
        // Generous: a deadline miss here would only add noise.
        deadline_ms: 120_000,
        aux_deadline_ms: Vec::new(),
        cache_cap: (distinct / 3).max(2),
        ..EngineConfig::default()
    };

    let mut entries: Vec<String> = Vec::new();
    let mut table =
        Table::new(["level", "offered", "answered", "rps", "p50 ms", "cache hit", "shard hits"]);
    let mut shard_rps = Vec::new();
    let mut sharded_answered_frac = 1.0f64;
    for n_shards in [1usize, 2, 4] {
        let config = RouterConfig {
            n_shards,
            // High enough that closed-loop depths never trigger steals:
            // the levels measure affinity, not steal throughput.
            steal_depth: 64,
            engine: engine.clone(),
        };
        let router = ShardRouter::start(Arc::clone(&system), config, |_shard| {
            DegradePolicy::trained(n_aux, &benign_scores, &ae_scores, ClassifierKind::Knn, 0.05)
        });
        let (answered, wall) = closed_loop(&router, &corpus, requests);
        let stats = router.stats();
        let hit_rates: Vec<f64> = router.shard_stats().iter().map(|s| s.cache_hit_rate()).collect();
        let steals = router.steal_counts();
        router.shutdown();

        let name = format!("sharded-x{n_shards}");
        let rps = answered as f64 / wall.as_secs_f64().max(1e-9);
        shard_rps.push(rps);
        sharded_answered_frac = sharded_answered_frac.min(answered as f64 / requests.max(1) as f64);
        let rates: Vec<String> = hit_rates.iter().map(|r| format!("{r:.4}")).collect();
        let steal_list: Vec<String> = steals.iter().map(u64::to_string).collect();
        table.row([
            name.clone(),
            requests.to_string(),
            answered.to_string(),
            format!("{rps:.1}"),
            format!("{:.1}", stats.latency_p50_micros as f64 / 1e3),
            format!("{:.0}%", stats.cache_hit_rate() * 100.0),
            hit_rates.iter().map(|r| format!("{:.0}%", r * 100.0)).collect::<Vec<_>>().join("/"),
        ]);
        entries.push(
            JsonObj::new()
                .str("name", &name)
                .u64("offered", requests as u64)
                .u64("answered", answered as u64)
                .raw("throughput_rps", &format!("{rps:.2}"))
                .u64("n_shards", n_shards as u64)
                .raw("shard_cache_hit_rates", &format!("[{}]", rates.join(",")))
                .raw("steal_counts", &format!("[{}]", steal_list.join(",")))
                .raw("stats", &stats.to_json())
                .finish(),
        );
    }
    println!("{table}");

    let json = format!("[\n  {}\n]\n", entries.join(",\n  "));
    ctx.write_artifact(ARTIFACT, &json);
    vec![
        ("shard_x4_speedup", shard_rps[2] / shard_rps[0].max(1e-9)),
        ("sharded_answered_frac", sharded_answered_frac),
    ]
}

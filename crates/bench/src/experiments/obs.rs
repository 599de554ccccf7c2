//! Observability-plane overhead benchmark: the in-process cost of a
//! disabled span site relative to one detection, then serve throughput
//! with the obs plane fully off, with span tracing enabled, and with the
//! verdict audit log enabled — plus an informational comparison against
//! the plain serve benchmark's `BENCH_serve.json`, when one is present.
//!
//! Offline and seeded like the serve benchmark: same corpus, same trained
//! system, one fresh engine per mode. Results print as a table and are
//! written to `BENCH_obs.json` under the context's output directory.

use std::sync::Arc;
use std::time::Instant;

use mvp_asr::AsrProfile;
use mvp_audio::Waveform;
use mvp_ears::{DetectionSystem, SimilarityMethod};
use mvp_ml::ClassifierKind;
use mvp_obs::{AuditLog, JsonObj};
use mvp_serve::{
    run_load, DegradePolicy, DetectionEngine, EngineConfig, LoadMode, LoadReport, LoadSpec,
};

use crate::context::ExperimentContext;
use crate::experiments::{Metrics, THREE_AUX};
use crate::table::Table;

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_obs.json";

/// Conservative upper bound on span sites crossed by one serve request
/// (submit + flush + per-auxiliary transcribe/features/decode + finalize).
const SPAN_SITES_PER_REQUEST: f64 = 64.0;

/// What the observability plane does during one measured run.
enum ObsMode {
    /// Tracing disabled, no audit log: the zero-cost baseline.
    Off,
    /// Span tracing enabled with the given ring capacity.
    Traced { capacity: usize },
    /// Verdict audit log enabled with the given rotation budget.
    Audited { max_bytes: u64 },
}

impl ObsMode {
    fn name(&self) -> &'static str {
        match self {
            ObsMode::Off => "obs-off",
            ObsMode::Traced { .. } => "traced",
            ObsMode::Audited { .. } => "audited",
        }
    }
}

/// One measured mode: the load report plus what the plane captured.
struct ModeOutcome {
    name: &'static str,
    report: LoadReport,
    /// Spans drained from the ring after the run (traced mode only).
    spans: u64,
    /// Audit records written during the run (audited mode only).
    audit_lines: u64,
}

/// Measures the disabled-span cost, runs the three obs modes against
/// identical load and writes [`ARTIFACT`]. Returns
/// `disabled_span_overhead_pct`: [`SPAN_SITES_PER_REQUEST`] disabled span
/// sites as a percentage of one detection.
pub fn run_obs_bench(ctx: &ExperimentContext) -> Metrics {
    println!("== observability plane: tracing/audit overhead under serve load ==");
    let method = SimilarityMethod::default();
    let aux: Vec<AsrProfile> = THREE_AUX.to_vec();

    // Warm-start every ASR from the context's artifact cache; cold
    // retraining here would dwarf the obs overhead being measured.
    let models = ctx.models_dir();
    let mut system = DetectionSystem::builder_for(AsrProfile::Ds0.trained_in(Some(&models)))
        .auxiliary_asr(aux[0].trained_in(Some(&models)))
        .auxiliary_asr(aux[1].trained_in(Some(&models)))
        .auxiliary_asr(aux[2].trained_in(Some(&models)))
        .build();
    let benign_scores = ctx.benign_scores(&aux, method);
    let ae_scores = ctx.ae_scores(&aux, method, None);
    system.train_on_scores(&benign_scores, &ae_scores, ClassifierKind::Svm);
    let system = Arc::new(system);
    let n_aux = system.n_auxiliaries();

    let corpus: Vec<Arc<Waveform>> =
        ctx.benign.utterances().iter().map(|u| Arc::new(u.wave.clone())).collect();
    let requests = (corpus.len() * 3).clamp(24, 240);

    let (span_ns, detect_ns) = disabled_span_cost(&system, &corpus[0]);
    let disabled_overhead_pct = span_ns * SPAN_SITES_PER_REQUEST / detect_ns * 100.0;
    println!(
        "disabled span: {span_ns:.1} ns/site, detection: {:.2} ms -> worst-case overhead \
         {disabled_overhead_pct:.4}%",
        detect_ns / 1e6
    );

    let base_config = EngineConfig {
        queue_cap: 64,
        max_batch: 8,
        max_delay_ms: 2,
        deadline_ms: 120_000,
        aux_deadline_ms: Vec::new(),
        cache_cap: 256,
        ..EngineConfig::default()
    };

    // Warm-up pass (untimed, discarded): brings code and allocator into
    // steady state so the first measured mode is not penalised.
    run_mode(
        &system,
        n_aux,
        &benign_scores,
        &ae_scores,
        &corpus,
        requests.min(24),
        &base_config,
        &ObsMode::Off,
        90,
    );

    let modes = [
        ObsMode::Off,
        ObsMode::Traced { capacity: 1 << 16 },
        ObsMode::Audited { max_bytes: 1 << 22 },
    ];
    let outcomes: Vec<ModeOutcome> = modes
        .iter()
        .enumerate()
        .map(|(i, mode)| {
            run_mode(
                &system,
                n_aux,
                &benign_scores,
                &ae_scores,
                &corpus,
                requests,
                &base_config,
                mode,
                91 + i as u64,
            )
        })
        .collect();

    let off_rps = outcomes[0].report.throughput_rps;
    let overhead_pct = |rps: f64| {
        if off_rps > 0.0 {
            (off_rps - rps) / off_rps * 100.0
        } else {
            0.0
        }
    };

    let mut table =
        Table::new(["mode", "done", "rps", "overhead", "p95 ms", "spans", "audit lines"]);
    for o in &outcomes {
        table.row([
            o.name.to_string(),
            o.report.tally.total().to_string(),
            format!("{:.1}", o.report.throughput_rps),
            format!("{:+.1}%", overhead_pct(o.report.throughput_rps)),
            format!("{:.1}", o.report.stats.latency_p95_micros as f64 / 1e3),
            o.spans.to_string(),
            o.audit_lines.to_string(),
        ]);
    }
    println!("{table}");

    // Informational: how this run's baseline compares with the plain serve
    // benchmark's artifact, when one has been written. Cross-run hardware
    // noise makes this a report, not a gate — the gated figure is the
    // in-process disabled-span overhead above.
    let serve_baseline = serve_baseline_rps(ctx);
    match serve_baseline {
        Some(rps) => println!(
            "serve baseline (BENCH_serve.json closed-loop best): {rps:.1} rps; obs-off here: {off_rps:.1} rps"
        ),
        None => println!("no {} baseline found (run the serve bench first)", super::serve::ARTIFACT),
    }

    let modes_json: Vec<String> = outcomes
        .iter()
        .map(|o| {
            JsonObj::new()
                .str("name", o.name)
                .f64("throughput_rps", o.report.throughput_rps)
                .f64("overhead_pct", overhead_pct(o.report.throughput_rps))
                .u64("completed", o.report.tally.total())
                .u64("latency_p95_micros", o.report.stats.latency_p95_micros)
                .u64("spans", o.spans)
                .u64("audit_lines", o.audit_lines)
                .finish()
        })
        .collect();
    let mut root = JsonObj::new()
        .f64("disabled_span_ns", span_ns)
        .f64("disabled_span_overhead_pct", disabled_overhead_pct)
        .u64("requests_per_mode", requests as u64)
        .raw("modes", &format!("[{}]", modes_json.join(",")));
    root = match serve_baseline {
        Some(rps) => root.f64("serve_baseline_rps", rps),
        None => root.null("serve_baseline_rps"),
    };
    let json = format!("{}\n", root.finish());
    ctx.write_artifact(ARTIFACT, &json);
    vec![("disabled_span_overhead_pct", disabled_overhead_pct)]
}

/// Wall time of one disabled span site and of one detection, both in ns,
/// with tracing off.
fn disabled_span_cost(system: &DetectionSystem, wave: &Waveform) -> (f64, f64) {
    mvp_obs::trace::disable();
    let iterations = 2_000_000u64;
    let started = Instant::now();
    for _ in 0..iterations {
        let _guard = mvp_obs::trace::span("bench.noop");
    }
    let span_ns = started.elapsed().as_nanos() as f64 / iterations as f64;

    let detections = 3;
    let started = Instant::now();
    for _ in 0..detections {
        let _ = system.detect(wave);
    }
    (span_ns, started.elapsed().as_nanos() as f64 / f64::from(detections))
}

/// Starts a fresh engine under one obs mode, drives the standard closed
/// load through it, and tears the mode back down.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    system: &Arc<DetectionSystem>,
    n_aux: usize,
    benign_scores: &[Vec<f64>],
    ae_scores: &[Vec<f64>],
    corpus: &[Arc<Waveform>],
    requests: usize,
    base_config: &EngineConfig,
    mode: &ObsMode,
    seed: u64,
) -> ModeOutcome {
    let mut config = base_config.clone();
    let audit_path =
        std::env::temp_dir().join(format!("mvp-obs-bench-{}-{seed}.jsonl", std::process::id()));
    match mode {
        ObsMode::Off => mvp_obs::trace::disable(),
        ObsMode::Traced { capacity } => mvp_obs::trace::enable(*capacity),
        ObsMode::Audited { max_bytes } => {
            let log = AuditLog::create(&audit_path, *max_bytes).expect("audit log in temp dir");
            config.audit = Some(Arc::new(log));
        }
    }

    let policy = DegradePolicy::trained(n_aux, benign_scores, ae_scores, ClassifierKind::Knn, 0.05);
    let engine = DetectionEngine::start(Arc::clone(system), policy, config.clone());
    let spec = LoadSpec {
        name: mode.name().into(),
        requests,
        mode: LoadMode::Closed { concurrency: 4 },
        duplicate_frac: 0.5,
        seed,
    };
    let report = run_load(&engine, corpus, &spec);
    engine.shutdown();

    let (spans, audit_lines) = match mode {
        ObsMode::Off => (0, 0),
        ObsMode::Traced { .. } => {
            let events = mvp_obs::trace::drain();
            mvp_obs::trace::disable();
            (events.len() as u64, 0)
        }
        ObsMode::Audited { .. } => {
            let lines = config.audit.as_ref().map_or(0, |log| log.lines_written());
            let _ = std::fs::remove_file(&audit_path);
            (0, lines)
        }
    };
    ModeOutcome { name: mode.name(), report, spans, audit_lines }
}

/// Best closed-loop throughput recorded in the context's
/// `BENCH_serve.json`, if the artifact exists and parses.
fn serve_baseline_rps(ctx: &ExperimentContext) -> Option<f64> {
    let text = std::fs::read_to_string(ctx.out_dir.join(super::serve::ARTIFACT)).ok()?;
    let value = mvp_obs::json::parse(&text).ok()?;
    let levels = value.as_arr()?;
    levels
        .iter()
        .filter(|level| {
            level.get("name").and_then(|n| n.as_str()).is_some_and(|n| n.starts_with("closed"))
        })
        .filter_map(|level| level.get("throughput_rps").and_then(|r| r.as_f64()))
        .fold(None, |best: Option<f64>, rps| Some(best.map_or(rps, |b| b.max(rps))))
}

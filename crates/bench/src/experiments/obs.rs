//! Observability-plane overhead benchmark: the in-process cost of a
//! disabled span site relative to one detection.
//!
//! Tracing and audit under serve load are checked by the facade's
//! span-forest and audit tests, and measured by `perfbench/`'s
//! interleaved `--trace` runs. Results print as one line and are written
//! to `BENCH_obs.json` under the context's output directory.

use std::time::Instant;

use mvp_asr::AsrProfile;
use mvp_audio::Waveform;
use mvp_ears::{DetectionSystem, SimilarityMethod};
use mvp_ml::ClassifierKind;
use mvp_obs::JsonObj;

use crate::context::ExperimentContext;
use crate::experiments::{Metrics, THREE_AUX};

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_obs.json";

/// Conservative upper bound on span sites crossed by one serve request
/// (submit + flush + per-auxiliary transcribe/features/decode + finalize).
const SPAN_SITES_PER_REQUEST: f64 = 64.0;

/// Measures the disabled-span cost against one detection and writes
/// [`ARTIFACT`]. Returns `disabled_span_overhead_pct`:
/// [`SPAN_SITES_PER_REQUEST`] disabled span sites as a percentage of one
/// detection.
pub fn run_obs_bench(ctx: &ExperimentContext) -> Metrics {
    println!("== observability plane: disabled-tracing overhead ==");
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

    let wave = &ctx.benign.utterances()[0].wave;
    let (span_ns, detect_ns) = disabled_span_cost(&system, wave);
    let disabled_overhead_pct = span_ns * SPAN_SITES_PER_REQUEST / detect_ns * 100.0;
    println!(
        "disabled span: {span_ns:.1} ns/site, detection: {:.2} ms -> worst-case overhead \
         {disabled_overhead_pct:.4}%",
        detect_ns / 1e6
    );

    let json = JsonObj::new()
        .f64("disabled_span_ns", span_ns)
        .f64("detection_ns", detect_ns)
        .f64("disabled_span_overhead_pct", disabled_overhead_pct)
        .finish();
    ctx.write_artifact(ARTIFACT, &format!("{json}\n"));
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

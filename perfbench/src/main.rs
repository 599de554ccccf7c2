//! `perfbench`: the serving benchmark of the MVP-EARS detector.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run sets the served detector up
//! (timed, several times), drives one workload closed-loop from outside
//! through the `DetectionEngine` API for the given seconds, recomputes
//! every verdict in-process, checks the workload exercised what it
//! claims, and prints one JSON result line last on stdout: end-to-end
//! metrics, or with `--trace 1` the per-layer metrics. A human summary
//! with run provenance goes to stderr. See `perfbench/README.md`.

mod audit;
mod drive;
mod inputs;
mod layers;
mod models;
mod oracle;
mod report;
mod stats;
mod workload;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use mvp_ears::SimilarityMethod;
use mvp_obs::AuditLog;

use crate::audit::WindowStats;
use crate::drive::Window;
use crate::inputs::Corpus;
use crate::oracle::Expected;
use crate::report::Metrics;
use crate::stats::{median, quantile, tail};
use crate::workload::{Plan, Workload};

const USAGE: &str =
    "usage: perfbench --workload <oneshot-fresh|oneshot-replay|stream-early-exit|fused-int8> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Requests sampled for the per-layer timings.
const LAYER_SAMPLE: usize = 6;

/// Largest gap, in percent, the stage ledger may leave between the sum
/// of its stages and the batch transcription it splits up.
const LEDGER_CLOSURE_PCT: f64 = 5.0;

/// Alternating trace-on/trace-off slices of the traced window.
const TRACE_SLICES: usize = 10;

/// Throughput and latency are medians over equal time slices of the
/// window, so a burst of outside load in a minority of slices does not
/// move them. A slice must hold this many verdicts on average (enough
/// for a p99 with ten samples beyond it)...
const SLICE_VERDICTS: usize = 1_000;

/// ...and the window is cut into at most this many. Windows with fewer
/// than two slices' worth of verdicts are measured whole.
const MAX_SLICES: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn wall_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64)
}

/// The graded outcome of a window against the reference verdicts.
struct Tally {
    attempted: usize,
    failed: usize,
    mismatched: usize,
    early_mismatched: usize,
    ae: usize,
    ae_flagged: usize,
    ae_early: usize,
    benign: usize,
    benign_flagged: usize,
}

fn tally(
    plan: &Plan,
    window: &Window,
    expected: &std::collections::HashMap<usize, Expected>,
    method: SimilarityMethod,
) -> Tally {
    let mut t = Tally {
        attempted: window.outcomes.len(),
        failed: 0,
        mismatched: 0,
        early_mismatched: 0,
        ae: 0,
        ae_flagged: 0,
        ae_early: 0,
        benign: 0,
        benign_flagged: 0,
    };
    t.failed = t.attempted - window.answered().count();
    for (o, v) in window.answered() {
        let input = o.input as usize;
        let agreement = expected.get(&input).map(|e| oracle::agrees(v, e, method));
        if !agreement.is_some_and(|a| a.verdict) {
            t.failed += 1;
            t.mismatched += 1;
        }
        t.early_mismatched += usize::from(!agreement.is_some_and(|a| a.early));
        let flagged = v.is_adversarial == Some(true);
        if plan.inputs[input].is_ae() {
            t.ae += 1;
            t.ae_flagged += usize::from(flagged);
            t.ae_early += usize::from(v.early_exit);
        } else {
            t.benign += 1;
            t.benign_flagged += usize::from(flagged);
        }
    }
    t
}

/// The workload self-checks: problems that make the run invalid.
fn self_checks(workload: Workload, window: &Window, stats: &WindowStats) -> Vec<String> {
    let mut problems = Vec::new();
    let verdicts = &window.verdicts;
    if verdicts.is_empty() {
        problems.push("no verdict completed in the timed window".to_string());
    }
    match workload {
        Workload::OneshotFresh | Workload::FusedInt8 => {
            if stats.lookups == 0 || stats.hits != 0 || verdicts.iter().any(|v| v.from_cache) {
                problems.push(format!(
                    "cache hit rate {:.4} over {} lookups; fresh audio must never hit",
                    stats.cache_hit_rate(),
                    stats.lookups
                ));
            }
        }
        Workload::OneshotReplay => {
            if stats.lookups == 0
                || stats.hits != stats.lookups
                || verdicts.iter().any(|v| !v.from_cache)
            {
                problems.push(format!(
                    "cache hit rate {:.4} over {} lookups; the warmed hot set must always hit",
                    stats.cache_hit_rate(),
                    stats.lookups
                ));
            }
        }
        Workload::StreamEarlyExit => {
            if !verdicts.iter().any(|v| v.early_exit) {
                problems.push("no stream was answered early".to_string());
            }
            if verdicts.iter().any(|v| v.early_exit && v.is_adversarial != Some(true)) {
                problems.push("an early verdict was not Adversarial".to_string());
            }
        }
    }
    if workload.is_fused_int8() && verdicts.iter().any(|v| !v.fused) {
        problems.push("a fused-int8 verdict did not come from the fused classifier".to_string());
    }
    problems
}

fn share(num: usize, den: usize) -> f64 {
    num as f64 / den.max(1) as f64
}

fn run(args: &Args) -> Result<(bool, usize, usize, Metrics), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let callers = drive::caller_count(nproc);
    let workload = args.workload;
    let streams = workload.is_stream();

    let dir = models::work_dir()?;
    let corpus = Corpus::load()?;
    models::ensure_prepared(&dir)?;
    models::prepare(&dir)?;
    let plan = workload::plan(workload, args.seed, corpus.aes.len(), corpus.base.len());

    let audit_path = dir.join("audit.jsonl");
    let audit = if args.trace {
        let _ = std::fs::remove_file(&audit_path);
        let _ = std::fs::remove_file(dir.join("audit.jsonl.1"));
        Some(Arc::new(
            AuditLog::create(&audit_path, 32 << 20).map_err(|e| format!("audit log: {e}"))?,
        ))
    } else {
        None
    };
    let setup = models::setup(workload, &dir, callers, audit)?;
    let engine = setup.engine;

    let warm_inputs = if workload == Workload::OneshotReplay {
        plan.inputs.clone()
    } else {
        workload::warmup_inputs(args.seed, 4 * callers, corpus.base.len())
    };
    drive::warm(&engine, &corpus, &warm_inputs, callers, streams);

    // The traced run alternates span tracing on and off by time slice,
    // so both halves see the same load and machine state.
    let slice = args.seconds / TRACE_SLICES as f64;
    let tracing = AtomicBool::new(false);
    let hook = |at: Duration| {
        if !args.trace {
            return;
        }
        let on = (at.as_secs_f64() / slice) as u64 % 2 == 1;
        if tracing.swap(on, Ordering::Relaxed) != on {
            if on {
                mvp_obs::trace::enable(1 << 16);
            } else {
                mvp_obs::trace::disable();
            }
        }
    };
    let before = engine.stats();
    let from_us = wall_us();
    let window = drive::run(&engine, &corpus, &plan, callers, args.seconds, streams, &hook);
    let to_us = wall_us();

    let after = engine.stats();
    mvp_obs::trace::disable();
    mvp_obs::trace::clear();
    let peak_rss = report::peak_rss_mb().unwrap_or(0.0);
    let kernel_threads = mvp_dsp::kernel::threads();
    engine.shutdown();
    let window_stats = WindowStats::between(&before, &after);

    mvp_dsp::kernel::set_threads(1);
    let reference = oracle::reference_system(workload, &setup.classifier, setup.fused.as_ref());
    let expected = oracle::expected(&reference, &corpus, &plan, &window, streams, callers);
    mvp_dsp::kernel::set_threads(0);
    let t = tally(&plan, &window, &expected, reference.method());
    let mut problems = self_checks(workload, &window, &window_stats);

    let setup_s: Vec<f64> = setup.times.iter().map(Duration::as_secs_f64).collect();
    let answered = window.answered().count();
    let (slices, width) = window.slices((answered / SLICE_VERDICTS).clamp(1, MAX_SLICES));
    let throughput = median(&slices.iter().map(|s| s.len() as f64 / width).collect::<Vec<_>>());
    let p50s: Vec<f64> =
        slices.iter().filter(|s| !s.is_empty()).map(|s| quantile(s, 0.5)).collect();
    let p50 = if p50s.is_empty() { 0.0 } else { median(&p50s) };
    let tails: Vec<(f64, f64)> = slices.iter().filter_map(|s| tail(s, 0.99)).collect();
    let tail_q = (!tails.is_empty()).then(|| {
        let q = tails.iter().map(|t| t.0).fold(1.0, f64::min);
        (q, median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()))
    });
    let tpr = share(t.ae_flagged, t.ae);
    let fpr = share(t.benign_flagged, t.benign);
    let failed_frac = share(t.failed, t.attempted);
    let early_frac = share(t.ae_early, t.ae);

    let mut metrics = Metrics::default();
    if args.trace {
        metrics.push("failed_frac", failed_frac, "ratio");
        metrics.push("detect_fpr", fpr, "ratio");
        metrics.push("early_exit_frac", early_frac, "ratio");
        metrics.push("early_exit_mismatch_frac", share(t.early_mismatched, t.attempted), "ratio");
        audit::push_serve_metrics(&audit_path, from_us, to_us, &window_stats, &mut metrics);
        let load_ms: Vec<f64> = setup.artifact_load.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        metrics.push("artifact.load_ms", median(&load_ms), "ms");
        metrics.push("obs.trace_overhead_pct", trace_overhead_pct(&window, slice), "%");
        let fused = match &setup.fused {
            Some(f) => f.clone(),
            None => models::fit_fused(&dir)?,
        };
        let mut sample: Vec<usize> = Vec::new();
        for k in 0.. {
            let Some(i) = plan.input_at(k) else { break };
            if !sample.contains(&i) {
                sample.push(i);
            }
            if sample.len() == LAYER_SAMPLE {
                break;
            }
        }
        let wavs: Vec<Vec<u8>> =
            sample.iter().map(|&i| corpus.wav(plan.inputs[i]).to_vec()).collect();
        layers::measure(&reference, &fused, &wavs, &mut metrics);
        for m in metrics.0.iter().filter(|m| m.name.starts_with("ledger.closure_pct.")) {
            if m.value > LEDGER_CLOSURE_PCT {
                problems.push(format!(
                    "{} = {:.2}%: frontend + am + decode do not add up to transcribe_batch_with",
                    m.name, m.value
                ));
            }
        }
    } else {
        metrics.push("setup_s", median(&setup_s), "s");
        metrics.push("throughput_rps", throughput, "1/s");
        metrics.push("latency_p50_ms", p50, "ms");
        metrics.push("latency_p99_ms", tail_q.map_or(0.0, |(_, v)| v), "ms");
        metrics.push("detect_tpr", tpr, "ratio");
        metrics.push("detect_tnr", 1.0 - fpr, "ratio");
        metrics.push("peak_rss_mb", peak_rss, "MiB");
    }

    eprintln!(
        "perfbench {} seed {} | commit {} | nproc {nproc} | callers {callers} | kernel threads {kernel_threads} | window {:.2} s{}",
        workload.name(),
        args.seed,
        report::commit(),
        window.elapsed,
        if args.trace { " | traced" } else { "" },
    );
    eprintln!(
        "  setup_s          {:>12.4} s    (median of {} set-ups)",
        median(&setup_s),
        setup_s.len()
    );
    let sliced = format!("{answered} verdicts; median of {} slices", slices.len());
    eprintln!("  throughput_rps   {throughput:>12.2} 1/s  ({sliced})");
    eprintln!("  latency_p50_ms   {p50:>12.3} ms   ({sliced})");
    match tail_q {
        Some((q, v)) => eprintln!(
            "  latency_p99_ms   {v:>12.3} ms   (p{:.2}, ≥10 samples beyond in each slice; {sliced})",
            q * 100.0
        ),
        None => eprintln!("  latency_p99_ms   n/a (fewer than 20 samples)"),
    }
    eprintln!("  detect_tpr       {tpr:>12.4}      ({} AE requests)", t.ae);
    eprintln!("  detect_fpr       {fpr:>12.4}      ({} benign requests)", t.benign);
    eprintln!(
        "  failed_frac      {failed_frac:>12.4}      ({} of {} offered; {} verdict mismatches)",
        t.failed, t.attempted, t.mismatched
    );
    if streams {
        eprintln!("  early_exit_frac  {early_frac:>12.4}      ({} AE streams)", t.ae);
        eprintln!(
            "  early exits that differ from the in-process stream: {} of {}",
            t.early_mismatched, t.attempted
        );
    }
    eprintln!("  peak_rss_mb      {peak_rss:>12.1} MiB");
    for p in &problems {
        eprintln!("  INVALID RUN: {p}");
    }
    let correct = t.failed == 0 && problems.is_empty();
    Ok((correct, t.attempted, t.failed, metrics))
}

/// Mean latency in the traced slices over the untraced ones, as a
/// percentage increase.
fn trace_overhead_pct(window: &Window, slice: f64) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (o, _) in window.answered() {
        let traced = (f64::from(o.offered_at) / slice) as u64 % 2 == 1;
        let ms = f64::from(o.latency) * 1e3;
        if traced {
            on.push(ms)
        } else {
            off.push(ms)
        }
    }
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&on) / mean(&off) - 1.0) * 100.0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(models::PREPARE_FLAG) {
        if let Err(e) = models::work_dir().and_then(|dir| models::prepare(&dir)) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", report::result_json(correct, attempted, failed, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "stream-early-exit",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::StreamEarlyExit);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert!(
            parse_args(&strings(&["--workload", "nope", "--seed", "1", "--seconds", "1"])).is_err()
        );
        assert!(parse_args(&strings(&["--seed", "1", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "oneshot-fresh",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }
}

//! Data-plane microbenchmark: steady-state batch transcription with a
//! persistent scratch plan vs the per-call allocating path, the latency
//! of one white-box gradient step (the hottest loop in AE generation),
//! and a per-kernel breakdown of the kernel plane — each tuned primitive
//! timed against its scalar oracle, plus end-to-end single-stream
//! transcription throughput in both modes. Results print as tables and
//! are written to `BENCH_dataplane.json` under the context's output
//! directory.

use std::time::Instant;

use mvp_asr::{Asr, AsrProfile, AsrScratch, TrainedAsr};
use mvp_audio::Waveform;
use mvp_dsp::kernel::{self, DctPlan, RfftPlan, RfftScratch};
use mvp_dsp::mel::MelFilterbank;
use mvp_dsp::Complex;

use crate::context::ExperimentContext;
use crate::experiments::Metrics;
use crate::table::Table;

/// Output artifact file name, written under the context's `out_dir`.
pub const ARTIFACT: &str = "BENCH_dataplane.json";

/// Rounds each transcription path runs; the first batch round pays the
/// one-time scratch growth, later rounds are the steady state the serve
/// workers live in.
const ROUNDS: usize = 3;

/// Gradient steps timed for the white-box latency figure.
const GRAD_STEPS: usize = 5;

/// Deterministic fill for kernel microbench inputs (xorshift; the bench
/// needs representative magnitudes, not statistical quality).
fn lcg_fill(buf: &mut [f64], mut seed: u64) {
    for v in buf.iter_mut() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        *v = (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

/// One micro-kernel's scalar-vs-vectorized wall time.
struct KernelTiming {
    name: &'static str,
    scalar_us: f64,
    vector_us: f64,
}

impl KernelTiming {
    fn speedup(&self) -> f64 {
        self.scalar_us / self.vector_us
    }
}

/// Times `work` for `reps` repetitions in both kernel modes. The
/// vectorized pass runs first in each pair so neither mode monopolises
/// warm caches.
fn time_modes(reps: usize, mut work: impl FnMut()) -> (f64, f64) {
    let mut run = |reps: usize| {
        let t = Instant::now();
        for _ in 0..reps {
            work();
        }
        t.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    run(reps.div_ceil(4)); // warm-up, untimed
    let vector_us = run(reps);
    kernel::force_scalar(true);
    let scalar_us = run(reps);
    kernel::force_scalar(false);
    (scalar_us, vector_us)
}

/// Per-kernel breakdown: each tuned primitive against its scalar oracle
/// on shapes matching the MFCC/acoustic-model hot path.
fn kernel_breakdown() -> Vec<KernelTiming> {
    let mut out = Vec::new();

    // rfft: one 512-point analysis frame, the spectrogram/MFCC unit.
    let plan = RfftPlan::new(512);
    let mut scratch = RfftScratch::default();
    let mut frame = vec![0.0; 512];
    lcg_fill(&mut frame, 0x5eed_0001);
    let mut spec = vec![Complex::default(); 257];
    let (scalar_us, vector_us) = time_modes(4000, || {
        plan.forward(&frame, &mut scratch, &mut spec);
        std::hint::black_box(&spec);
    });
    out.push(KernelTiming { name: "rfft 512", scalar_us, vector_us });

    // gemv: one hidden-layer application at acoustic-model shape.
    let (hidden, dim) = (64, 400);
    let mut w = vec![0.0; hidden * dim];
    let mut x = vec![0.0; dim];
    lcg_fill(&mut w, 0x5eed_0002);
    lcg_fill(&mut x, 0x5eed_0003);
    let mut hid = vec![0.0; hidden];
    let (scalar_us, vector_us) = time_modes(4000, || {
        if kernel::scalar_forced() {
            for (h, row) in hid.iter_mut().zip(w.chunks_exact(dim)) {
                *h = kernel::scalar::dot(row, &x);
            }
        } else {
            kernel::gemv(&w, dim, &x, &mut hid);
        }
        std::hint::black_box(&hid);
    });
    out.push(KernelTiming { name: "gemv 64x400", scalar_us, vector_us });

    // mel: fused in-range filterbank vs the dense scalar sweep.
    let bank = MelFilterbank::new(26, 512, 16_000.0, 0.0, 8_000.0);
    let mut power = vec![0.0; bank.n_bins()];
    lcg_fill(&mut power, 0x5eed_0004);
    for p in &mut power {
        *p = p.abs();
    }
    let mut mel = vec![0.0; bank.n_filters()];
    let (scalar_us, vector_us) = time_modes(20_000, || {
        bank.apply_into(&power, &mut mel);
        std::hint::black_box(&mel);
    });
    out.push(KernelTiming { name: "mel 26x257", scalar_us, vector_us });

    // dct: cepstral truncation at MFCC shape.
    let dct = DctPlan::new(26, 13);
    let mut logmel = vec![0.0; 26];
    lcg_fill(&mut logmel, 0x5eed_0005);
    let mut cep = vec![0.0; 13];
    let (scalar_us, vector_us) = time_modes(40_000, || {
        dct.forward_into(&logmel, &mut cep);
        std::hint::black_box(&cep);
    });
    out.push(KernelTiming { name: "dct 26->13", scalar_us, vector_us });

    out
}

/// Benchmarks the two transcription paths, the white-box gradient step
/// and the kernel plane on the DS0 recogniser, then writes [`ARTIFACT`].
/// Returns `kernel_speedup`: single-stream transcription throughput with
/// the tuned kernels over the scalar oracles.
pub fn run_dataplane_bench(ctx: &ExperimentContext) -> Metrics {
    println!("== data plane: scratch-plan throughput, grad-step latency, kernel plane ==");
    let asr = AsrProfile::Ds0.trained_in(Some(&ctx.models_dir()));
    let waves: Vec<&Waveform> = ctx.benign.utterances().iter().map(|u| &u.wave).collect();
    let items = waves.len();

    // Per-call path: every transcription allocates its own buffers.
    let t0 = Instant::now();
    let mut per_call_out = Vec::new();
    for _ in 0..ROUNDS {
        per_call_out = waves.iter().map(|w| asr.transcribe(w)).collect::<Vec<_>>();
    }
    let per_call = t0.elapsed();

    // Batch path: one scratch plan reused across every batch, as the
    // serve workers hold it. Warm once so growth is off the clock.
    let mut scratch = AsrScratch::default();
    let _ = asr.transcribe_batch_with(&waves, &mut scratch);
    let t1 = Instant::now();
    let mut batch_out = Vec::new();
    for _ in 0..ROUNDS {
        batch_out = asr.transcribe_batch_with(&waves, &mut scratch);
    }
    let batch = t1.elapsed();
    assert_eq!(per_call_out, batch_out, "scratch path diverged from per-call path");

    // Single-stream transcription with the kernel plane forced onto the
    // scalar oracles, for the end-to-end kernel speedup figure. No
    // cross-mode output assert: the modes legitimately differ in final
    // ulps (documented in mvp_dsp::kernel), which decoding absorbs.
    kernel::force_scalar(true);
    let _ = waves.iter().map(|w| asr.transcribe(w)).count();
    let t2 = Instant::now();
    for _ in 0..ROUNDS {
        for w in &waves {
            std::hint::black_box(asr.transcribe(w));
        }
    }
    let scalar_stream = t2.elapsed();
    kernel::force_scalar(false);

    // White-box gradient step: loss + input gradient for one command
    // target, the unit of work Algorithm 1 repeats thousands of times.
    let target = TrainedAsr::target_indices("open the door");
    let host = waves[0];
    let _ = asr.attack_loss_and_input_grad(host, &target, 0.1);
    let t3 = Instant::now();
    for _ in 0..GRAD_STEPS {
        let _ = asr.attack_loss_and_input_grad(host, &target, 0.1);
    }
    let grad_step_ms = t3.elapsed().as_secs_f64() * 1e3 / GRAD_STEPS as f64;

    let n = (items * ROUNDS) as f64;
    let per_call_rps = n / per_call.as_secs_f64();
    let batch_rps = n / batch.as_secs_f64();
    let scalar_rps = n / scalar_stream.as_secs_f64();
    let kernel_speedup = per_call_rps / scalar_rps;
    let mut table = Table::new(["path", "items", "wall ms", "items/s"]);
    table.row([
        "transcribe (scalar oracles)".to_string(),
        format!("{}", items * ROUNDS),
        format!("{:.1}", scalar_stream.as_secs_f64() * 1e3),
        format!("{scalar_rps:.1}"),
    ]);
    table.row([
        "transcribe (alloc per call)".to_string(),
        format!("{}", items * ROUNDS),
        format!("{:.1}", per_call.as_secs_f64() * 1e3),
        format!("{per_call_rps:.1}"),
    ]);
    table.row([
        "transcribe_batch_with (scratch)".to_string(),
        format!("{}", items * ROUNDS),
        format!("{:.1}", batch.as_secs_f64() * 1e3),
        format!("{batch_rps:.1}"),
    ]);
    println!("{table}");
    println!(
        "scratch speedup: {:.2}x; kernel speedup (single-stream): {kernel_speedup:.2}x; \
         white-box grad step: {grad_step_ms:.1} ms (mean of {GRAD_STEPS})",
        batch_rps / per_call_rps
    );

    let kernels = kernel_breakdown();
    let mut ktable = Table::new(["kernel", "scalar us", "vectorized us", "speedup"]);
    for k in &kernels {
        ktable.row([
            k.name.to_string(),
            format!("{:.2}", k.scalar_us),
            format!("{:.2}", k.vector_us),
            format!("{:.2}x", k.speedup()),
        ]);
    }
    println!("{ktable}");

    let kernel_json: Vec<String> = kernels
        .iter()
        .map(|k| {
            format!(
                "    {{\"name\": \"{}\", \"scalar_us\": {:.3}, \"vectorized_us\": {:.3}, \
                 \"speedup\": {:.4}}}",
                k.name,
                k.scalar_us,
                k.vector_us,
                k.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"items\": {items},\n  \"rounds\": {ROUNDS},\n  \
         \"per_call_rps\": {per_call_rps:.3},\n  \"batch_scratch_rps\": {batch_rps:.3},\n  \
         \"scalar_oracle_rps\": {scalar_rps:.3},\n  \
         \"scratch_speedup\": {:.4},\n  \"kernel_speedup\": {kernel_speedup:.4},\n  \
         \"grad_step_ms\": {grad_step_ms:.3},\n  \"grad_steps\": {GRAD_STEPS},\n  \
         \"kernels\": [\n{}\n  ]\n}}\n",
        batch_rps / per_call_rps,
        kernel_json.join(",\n"),
    );
    ctx.write_artifact(ARTIFACT, &json);
    vec![("kernel_speedup", kernel_speedup)]
}

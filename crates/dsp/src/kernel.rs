//! The kernel plane: tuned numeric primitives under the Mat data plane.
//!
//! Every hot loop in the workspace — spectrogram frames, MFCC
//! extraction, the acoustic-model GEMMs, CTC trellis rows, SVM kernel
//! evaluations — routes through this module. Each vectorized kernel
//! keeps its original scalar implementation alive as a *correctness
//! oracle*: `force_scalar(true)` re-routes every entry point back onto
//! the oracle so benches can time (and parity tests can pin) vectorized
//! against scalar on identical inputs.
//!
//! # Parity policy, per kernel
//!
//! | kernel                         | guarantee vs scalar oracle           |
//! |--------------------------------|--------------------------------------|
//! | [`axpy`]                       | bit-exact (independent lanes)        |
//! | [`MelFilterbank::apply_into`]  | bit-exact (skipped terms are `+0.0`) |
//! | [`DctPlan`]                    | bit-exact (same order, cached `cos`) |
//! | [`dot`], [`gemv`], [`gemm_nt`] | 4-way reassociation; small relative  |
//! |                                | error `O(n·ε)`, tested ≤ 1e-12 rel   |
//! | [`sq_dist`], [`sq_zscore_sum`] | 4-way reassociation, as above        |
//! | [`dot_i8`], [`gemm_nt_i8`]     | bit-exact (i32 integer accumulation  |
//! |                                | is associative; lanes reorder freely,|
//! |                                | runtime ISA dispatch is invisible —  |
//! |                                | including the width heuristic that   |
//! |                                | keeps AVX-512 off short rows)        |
//! | [`quantize_i8`]                | bit-exact (saturating float→int cast |
//! |                                | equals the oracle's checked clamp on |
//! |                                | every input, `NaN → 0` included)     |
//! | [`RfftPlan::forward_frames`],  | different algorithm (table-driven    |
//! | [`RfftPlan::forward`]          | half-size FFT, frames in SIMD lanes);|
//! |                                | error `O(n·ε)`, tested ≤ `4nε·‖x‖₁`  |
//! |                                | for every `n = 1…1024` and frame     |
//! |                                | length `0..=n`. A frame's bits are   |
//! |                                | independent of its lane, its group,  |
//! |                                | the ISA body and the thread count;   |
//! |                                | `forward` is the one-frame call      |
//! | [`RfftPlan::hfft`],            | the oracle's radix-2 loop on the     |
//! | [`RfftPlan::inverse`]          | half-size buffer; error `O(n·ε)`     |
//!
//! Every MFCC and spectrogram path reaches the spectrum through
//! [`RfftPlan::forward_frames`], so the served, in-process, streamed and
//! gradient-caching feature paths agree bit for bit however they group
//! their frames.
//!
//! `gemm_nt` tiles over rows and columns only — it never splits the
//! inner `k` dimension — so `gemm_nt`, `gemv` and `dot` agree *bitwise*
//! with each other on the same operands. Batch and per-row call sites
//! (e.g. `AcousticModel::logit_matrix_into` vs `logits_into`) therefore
//! stay bit-identical, which several persistence tests rely on.
//!
//! [`MelFilterbank::apply_into`]: crate::mel::MelFilterbank::apply_into
//!
//! # Threads
//!
//! [`par_rows`] (and `par_row_blocks`, its form for work on several
//! rows at once) spreads independent row work over scoped threads. The
//! worker count is `set_threads` (the serve engine partitions cores
//! between its ASR workers) → the `MVP_EARS_KERNEL_THREADS` env var →
//! `std::thread::available_parallelism()`. Row outputs are independent,
//! so results are bit-identical at any thread count; on a single core
//! the serial path runs with zero extra allocation.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::complex::Complex;
use crate::fft;

// ---------------------------------------------------------------------------
// Mode knobs
// ---------------------------------------------------------------------------

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Routes every kernel entry point onto its scalar oracle (`true`) or
/// back to the vectorized path (`false`). Process-global: meant for
/// single-threaded bench binaries timing scalar vs vectorized on the
/// same inputs, never for use inside the parallel test harness.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// Whether [`force_scalar`] has routed kernels onto the scalar oracle.
pub fn scalar_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the [`par_rows`] worker count; `0` restores the automatic
/// choice (`MVP_EARS_KERNEL_THREADS`, else available parallelism). The
/// serve engine calls this so each ASR worker gets an equal share of
/// the machine instead of oversubscribing it.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`par_rows`] will use for large row sets.
pub fn threads() -> usize {
    let n = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("MVP_EARS_KERNEL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
    })
}

// ---------------------------------------------------------------------------
// Scalar oracles
// ---------------------------------------------------------------------------

/// The scalar reference implementations the vectorized kernels are
/// pinned against. Kept tiny and obviously correct; parity tests and
/// `force_scalar` benches are the only intended callers outside this
/// module.
pub mod scalar {
    /// Serial left-to-right dot product.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// Serial squared Euclidean distance.
    pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// Serial sum of squared z-scores.
    pub fn sq_zscore_sum(x: &[f64], mean: &[f64], inv_std: &[f64]) -> f64 {
        x.iter()
            .zip(mean)
            .zip(inv_std)
            .map(|((&v, &m), &is)| {
                let z = (v - m) * is;
                z * z
            })
            .sum()
    }

    /// Serial `y += a * x`.
    pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// Serial i8 dot product with i32 accumulation. Exact: each product
    /// fits in 15 bits, so `k` up to `2^16` rows cannot overflow i32.
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
    }

    /// Serial symmetric i8 quantization — `out[i] = saturate(xs[i] /
    /// scale)` with round-to-nearest (half away from zero), clamp to
    /// `±127` and `NaN → 0`; the oracle for
    /// [`quantize_i8`](super::quantize_i8). The branchy checked form
    /// here *defines* the saturate semantics the vectorized body must
    /// reproduce bit-for-bit.
    pub fn quantize_i8(xs: &[f64], scale: f64, out: &mut [i8]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            let q = x / scale;
            *o = if q.is_nan() {
                0
            } else {
                // The i64 intermediate is exact for the clamped range;
                // `try_from` keeps the no-wrap guarantee checked.
                // mvp-lint: allow(panic-path) -- the clamp to [-127, 127] makes the conversion infallible
                i8::try_from(q.round().clamp(-127.0, 127.0) as i64).expect("clamped to i8 range")
            };
        }
    }

    /// Serial i8 `C = A·Bᵀ` with i32 accumulation; the oracle for
    /// [`gemm_nt_i8`](super::gemm_nt_i8).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch between `a`, `b`, `k` and `out`.
    pub fn gemm_nt_i8(a: &[i8], m: usize, b: &[i8], n: usize, k: usize, out: &mut [i32]) {
        assert_eq!(a.len(), m * k, "gemm_nt_i8: A shape mismatch");
        assert_eq!(b.len(), n * k, "gemm_nt_i8: B shape mismatch");
        assert_eq!(out.len(), m * n, "gemm_nt_i8: output shape mismatch");
        if k == 0 {
            out.fill(0);
            return;
        }
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                out[i * n + j] = dot_i8(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane primitives
// ---------------------------------------------------------------------------

/// Dot product over four independent accumulator lanes.
///
/// Reassociates the sum (four partial sums plus a tail), so the result
/// can differ from [`scalar::dot`] by `O(n·ε)` relative error.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    if scalar_forced() {
        return scalar::dot(a, b);
    }
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(4);
    let mut cb = b[..n].chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (pa, pb) in (&mut ca).zip(&mut cb) {
        s0 += pa[0] * pb[0];
        s1 += pa[1] * pb[1];
        s2 += pa[2] * pb[2];
        s3 += pa[3] * pb[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (s0 + s2) + (s1 + s3) + tail
}

/// Squared Euclidean distance over four accumulator lanes.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    if scalar_forced() {
        return scalar::sq_dist(a, b);
    }
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(4);
    let mut cb = b[..n].chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (pa, pb) in (&mut ca).zip(&mut cb) {
        let (d0, d1, d2, d3) = (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2], pa[3] - pb[3]);
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    (s0 + s2) + (s1 + s3) + tail
}

/// Sum of squared z-scores `Σ ((x−mean)·inv_std)²` over four lanes;
/// the one-class scorer's inner loop.
pub fn sq_zscore_sum(x: &[f64], mean: &[f64], inv_std: &[f64]) -> f64 {
    if scalar_forced() {
        return scalar::sq_zscore_sum(x, mean, inv_std);
    }
    let n = x.len().min(mean.len()).min(inv_std.len());
    let mut cx = x[..n].chunks_exact(4);
    let mut cm = mean[..n].chunks_exact(4);
    let mut cs = inv_std[..n].chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for ((px, pm), ps) in (&mut cx).zip(&mut cm).zip(&mut cs) {
        let z0 = (px[0] - pm[0]) * ps[0];
        let z1 = (px[1] - pm[1]) * ps[1];
        let z2 = (px[2] - pm[2]) * ps[2];
        let z3 = (px[3] - pm[3]) * ps[3];
        s0 += z0 * z0;
        s1 += z1 * z1;
        s2 += z2 * z2;
        s3 += z3 * z3;
    }
    let mut tail = 0.0;
    for ((&v, &m), &is) in cx.remainder().iter().zip(cm.remainder()).zip(cs.remainder()) {
        let z = (v - m) * is;
        tail += z * z;
    }
    (s0 + s2) + (s1 + s3) + tail
}

/// `y += a * x`, unrolled four wide. Each element is an independent
/// fused update, so this is bit-exact against [`scalar::axpy`].
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    if scalar_forced() {
        return scalar::axpy(y, a, x);
    }
    let n = y.len().min(x.len());
    let mut cy = y[..n].chunks_exact_mut(4);
    let mut cx = x[..n].chunks_exact(4);
    for (py, px) in (&mut cy).zip(&mut cx) {
        py[0] += a * px[0];
        py[1] += a * px[1];
        py[2] += a * px[2];
        py[3] += a * px[3];
    }
    for (yi, &xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += a * xi;
    }
}

// ---------------------------------------------------------------------------
// GEMV / GEMM
// ---------------------------------------------------------------------------

/// `out[i] = dot(a_row_i, x)` for a row-major `a` with `n_cols` columns.
///
/// # Panics
///
/// Panics if `a.len() != out.len() * n_cols` or `x.len() != n_cols`.
pub fn gemv(a: &[f64], n_cols: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len() * n_cols, "gemv: matrix/output shape mismatch");
    assert_eq!(x.len(), n_cols, "gemv: vector length mismatch");
    for (o, row) in out.iter_mut().zip(a.chunks_exact(n_cols.max(1))) {
        *o = dot(row, x);
    }
    if n_cols == 0 {
        out.fill(0.0);
    }
}

/// Column-tile width for [`gemm_nt`]: one tile of B rows (16 × k f64)
/// stays resident in L1/L2 while every A row streams past it.
const GEMM_TILE: usize = 16;

/// `out[i·n + j] = dot(a_row_i, b_row_j)` — C = A·Bᵀ for row-major
/// `A (m×k)` and `B (n×k)`, cache-blocked over `B` rows. The inner `k`
/// loop is [`dot`] un-split, so every output element is bitwise equal
/// to the corresponding `gemv`/`dot` call on the same operands.
///
/// # Panics
///
/// Panics on any shape mismatch between `a`, `b`, `k` and `out`.
pub fn gemm_nt(a: &[f64], m: usize, b: &[f64], n: usize, k: usize, out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt: output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut jb = 0;
    while jb < n {
        let j_end = (jb + GEMM_TILE).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for j in jb..j_end {
                out_row[j] = dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
        jb = j_end;
    }
}

/// Dot product of two i8 vectors, accumulating in i32. Integer addition
/// is associative, so any evaluation order is *bit-exact* against
/// [`scalar::dot_i8`] — the quantized acoustic-model path inherits the
/// vectorized-equals-oracle guarantee the f64 kernels only meet up to
/// reassociation error.
///
/// Each product fits in 15 bits (`127·127`), so overflow needs
/// `k > 2^16` — far past any acoustic-model width; debug builds would
/// still catch it as an `i32` overflow panic.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    if scalar_forced() {
        return scalar::dot_i8(a, b);
    }
    a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum()
}

/// Generates one monomorphic `C = A·Bᵀ` body over pre-widened i16
/// operands, optionally compiled for a wider ISA. The i8 inputs are
/// widened to i16 *before* the hot loop so the auto-vectorizer sees the
/// `pmaddwd`/`vpmaddwd` shape (i16 × i16 → paired i32 adds) directly;
/// widening inside the loop defeats it and ends up slower than the f64
/// path. One source body, three instruction sets — bit-identical
/// results in all of them because i32 accumulation is associative.
macro_rules! gemm_i16_impl {
    ($name:ident $(, $feat:literal)?) => {
        $(#[target_feature(enable = $feat)])?
        fn $name(aw: &[i16], m: usize, bw: &[i16], n: usize, k: usize, out: &mut [i32]) {
            for i in 0..m {
                let a_row = &aw[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &bw[j * k..(j + 1) * k];
                    *o = a_row.iter().zip(b_row).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
                }
            }
        }
    };
}

gemm_i16_impl!(gemm_i16_portable);
#[cfg(target_arch = "x86_64")]
gemm_i16_impl!(gemm_i16_avx2, "avx2");
#[cfg(target_arch = "x86_64")]
gemm_i16_impl!(gemm_i16_avx512, "avx512bw");

/// Shortest reduction axis at which the AVX-512BW GEMM body is worth
/// dispatching. A 512-bit vector holds 32 i16 lanes; below two full
/// vectors per row the masked tail and the wider horizontal reduce cost
/// more than the extra lanes earn, and the AVX2 body wins (measured
/// 1.2–2.1× faster at the acoustic-model shapes `k = 8..39`, while
/// AVX-512 stays ahead from `k = 64` up).
const GEMM_I8_AVX512_MIN_K: usize = 64;

/// Generates one monomorphic symmetric-quantization body, optionally
/// compiled for a wider ISA: `out[i] = saturate(xs[i] / scale)`. The
/// float→int `as` cast saturates and maps `NaN` to `0` (a Rust language
/// guarantee), so the branch-free form is element-for-element identical
/// to [`scalar::quantize_i8`]'s checked arithmetic while letting the
/// auto-vectorizer emit packed divide/round/clamp/convert.
macro_rules! quantize_i8_impl {
    ($name:ident $(, $feat:literal)?) => {
        $(#[target_feature(enable = $feat)])?
        fn $name(xs: &[f64], scale: f64, out: &mut [i8]) {
            for (o, &x) in out.iter_mut().zip(xs) {
                // mvp-lint: allow(numeric-truncation) -- float→i8 `as` saturates with NaN→0 (never wraps); bit-parity with the checked oracle is pinned by quantize_i8_is_bit_exact_against_oracle
                *o = (x / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
    };
}

quantize_i8_impl!(quantize_i8_portable);
#[cfg(target_arch = "x86_64")]
quantize_i8_impl!(quantize_i8_avx2, "avx2");

/// Symmetric i8 quantization of a whole activation buffer:
/// `out[i] = saturate(xs[i] / scale)` — round to nearest (half away
/// from zero), clamp to `±127`, `NaN → 0`. This is the activation
/// ingress of the int8 acoustic-model path, hot enough to matter: the
/// quantized GEMMs only win end to end if feeding them does not cost
/// the savings back.
///
/// Bit-exact against [`scalar::quantize_i8`] on every dispatch target —
/// the saturating cast and the checked clamp agree on all inputs,
/// including non-finite ones.
///
/// # Panics
///
/// Panics if `xs` and `out` lengths differ.
pub fn quantize_i8(xs: &[f64], scale: f64, out: &mut [i8]) {
    assert_eq!(xs.len(), out.len(), "quantize_i8: shape mismatch");
    if scalar_forced() {
        return scalar::quantize_i8(xs, scale, out);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime feature check one line up.
            return unsafe { quantize_i8_avx2(xs, scale, out) };
        }
    }
    quantize_i8_portable(xs, scale, out);
}

/// `out[i·n + j] = dot_i8(a_row_i, b_row_j)` — integer `C = A·Bᵀ` for
/// row-major i8 `A (m×k)` and `B (n×k)`.
///
/// Both operands are widened to i16 scratch up front (cost `O(mk + nk)`
/// against `O(mnk)` multiplies), then a single generic inner body runs
/// on the widest instruction set the CPU reports — AVX-512BW, AVX2, or
/// the portable baseline. i32 accumulation is associative, so every
/// dispatch target is bit-exact against [`scalar::gemm_nt_i8`] and
/// against per-element [`dot_i8`] calls on the same operands; the
/// parity tests below pin all reachable paths.
///
/// # Panics
///
/// Panics on any shape mismatch between `a`, `b`, `k` and `out`.
pub fn gemm_nt_i8(a: &[i8], m: usize, b: &[i8], n: usize, k: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_nt_i8: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt_i8: B shape mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt_i8: output shape mismatch");
    if scalar_forced() {
        return scalar::gemm_nt_i8(a, m, b, n, k, out);
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }
    // mvp-lint: allow(hot-path-alloc) -- one widening copy per GEMM call, amortized over O(m*n*k) work; the i8 kernel API is scratch-free by design
    let aw: Vec<i16> = a.iter().map(|&x| i16::from(x)).collect();
    // mvp-lint: allow(hot-path-alloc) -- one widening copy per GEMM call, amortized over O(m*n*k) work; the i8 kernel API is scratch-free by design
    let bw: Vec<i16> = b.iter().map(|&x| i16::from(x)).collect();
    #[cfg(target_arch = "x86_64")]
    {
        // Rows shorter than GEMM_I8_AVX512_MIN_K lose on 512-bit lanes;
        // every target computes bit-identical i32 sums, so the width
        // choice is purely a timing decision.
        if k >= GEMM_I8_AVX512_MIN_K && std::arch::is_x86_feature_detected!("avx512bw") {
            // SAFETY: guarded by the runtime feature check one line up.
            return unsafe { gemm_i16_avx512(&aw, m, &bw, n, k, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime feature check one line up.
            return unsafe { gemm_i16_avx2(&aw, m, &bw, n, k, out) };
        }
    }
    gemm_i16_portable(&aw, m, &bw, n, k, out);
}

// ---------------------------------------------------------------------------
// par_rows
// ---------------------------------------------------------------------------

/// Minimum row count before [`par_rows`] spins up threads at all; below
/// this the spawn overhead dwarfs the work.
const PAR_MIN_ROWS: usize = 8;

/// Applies `f` to every `n_cols`-wide row of `data`, spreading
/// contiguous row chunks across [`threads`] scoped workers. Each worker
/// builds its own scratch state with `init`, so `f` never contends; row
/// outputs are independent, making results bit-identical at any thread
/// count. With one worker (or few rows) it runs serially in the calling
/// thread with zero allocation.
///
/// `f` receives `(state, row_index, row)`.
pub fn par_rows<S, I, F>(data: &mut [f64], n_cols: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [f64]) + Sync,
{
    par_row_blocks(data, n_cols, 1, init, f);
}

/// [`par_rows`] over blocks of up to `block_rows` consecutive rows, for
/// work that handles several rows at once (the MFCC paths hand a block
/// of frames to [`RfftPlan::forward_frames`]). Workers get whole blocks;
/// only the last block of the matrix may be short.
///
/// `f` receives `(state, first_row_index, rows)`, `rows` holding the
/// block's rows back to back.
pub(crate) fn par_row_blocks<S, I, F>(
    data: &mut [f64],
    n_cols: usize,
    block_rows: usize,
    init: I,
    f: F,
) where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [f64]) + Sync,
{
    if n_cols == 0 || data.is_empty() {
        return;
    }
    let block_rows = block_rows.max(1);
    let n_rows = data.len() / n_cols;
    let workers = threads().clamp(1, n_rows.div_ceil(block_rows));
    let run = |state: &mut S, first: usize, chunk: &mut [f64]| {
        for (b, block) in chunk.chunks_mut(block_rows * n_cols).enumerate() {
            f(state, first + b * block_rows, block);
        }
    };
    if workers <= 1 || n_rows < PAR_MIN_ROWS {
        run(&mut init(), 0, data);
        return;
    }
    let rows_per = n_rows.div_ceil(workers).next_multiple_of(block_rows);
    std::thread::scope(|scope| {
        for (ci, chunk) in data.chunks_mut(rows_per * n_cols).enumerate() {
            let (init, run) = (&init, &run);
            scope.spawn(move || run(&mut init(), ci * rows_per, chunk));
        }
    });
}

// ---------------------------------------------------------------------------
// Real-input FFT
// ---------------------------------------------------------------------------

/// A run of equally spaced analysis frames over one signal — the input
/// of [`RfftPlan::forward_frames`]. Frame `i` is the `len` samples from
/// `start + i·hop`, cut short where the signal ends; the transform
/// zero-pads a short frame, and one that starts past the end is silent.
#[derive(Debug, Clone, Copy)]
pub struct Frames<'a> {
    /// The samples the frames are cut from.
    pub signal: &'a [f64],
    /// Index of frame 0's first sample.
    pub start: usize,
    /// Advance between consecutive frames, in samples.
    pub hop: usize,
    /// Nominal frame length, in samples.
    pub len: usize,
    /// Number of frames.
    pub count: usize,
}

impl<'a> Frames<'a> {
    /// The samples of frame `i` that lie inside the signal.
    pub fn frame(&self, i: usize) -> &'a [f64] {
        let end = self.signal.len();
        let from = self.start.saturating_add(i.saturating_mul(self.hop)).min(end);
        &self.signal[from..from.saturating_add(self.len).min(end)]
    }

    /// Frames `first .. first + count` of this run, as a run of their own.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past [`count`](Self::count).
    pub fn range(&self, first: usize, count: usize) -> Frames<'a> {
        assert!(first + count <= self.count, "frame range out of bounds");
        Frames { start: self.start + first * self.hop, count, ..*self }
    }
}

/// Reusable buffers for [`RfftPlan`]; one per thread of frame work.
#[derive(Debug, Clone, Default)]
pub struct RfftScratch {
    /// Structure-of-arrays buffer of [`RfftPlan::forward_frames`]: per
    /// complex element of the half-size transform, the real parts of
    /// every lane, then their imaginary parts.
    lanes: Vec<f64>,
    /// Half-size complex buffer for the Hermitian synthesis.
    half: Vec<Complex>,
    /// Full-size buffer, used only by the scalar-oracle fallback.
    full: Vec<Complex>,
}

/// The `f64` register a lane body of [`RfftPlan::forward_frames`]
/// computes in, one frame per lane. Every operation is the lane-wise
/// IEEE one, with no fused multiply-add, so each implementation gives a
/// lane the bits any other gives it.
trait Lanes: Copy {
    /// Frames side by side.
    const N: usize;
    /// Every lane set to `x`.
    fn splat(x: f64) -> Self;
    /// Lanes from `src[..N]`.
    fn load(src: &[f64]) -> Self;
    /// Lanes to `dst[..N]`.
    fn store(self, dst: &mut [f64]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
}

/// Widest [`Lanes::N`]; sizes the unpack's per-bin staging arrays.
const MAX_LANES: usize = 8;

/// Four lanes in plain arrays: the portable and AVX2 bodies.
impl Lanes for [f64; 4] {
    const N: usize = 4;
    #[inline(always)]
    fn splat(x: f64) -> Self {
        [x; 4]
    }
    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        let mut v = [0.0; 4];
        v.copy_from_slice(&src[..4]);
        v
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] + o[l])
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] - o[l])
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] * o[l])
    }
}

/// Eight lanes in an AVX-512 register. Written with intrinsics rather
/// than left to the auto-vectorizer, which turns the 8-lane loops of
/// `[f64; 8]` into gathers across butterflies.
///
/// A value exists only inside `rfft_frames_avx512`, which
/// [`RfftPlan::forward_frames`] calls only after detecting AVX-512F at
/// run time; every `unsafe` block below rests on that, plus the slice
/// bound each load and store checks first.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx512(std::arch::x86_64::__m512d);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx512 {
    const N: usize = 8;
    #[inline(always)]
    fn splat(x: f64) -> Self {
        // SAFETY: AVX-512F is present (see the type doc).
        Avx512(unsafe { std::arch::x86_64::_mm512_set1_pd(x) })
    }
    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        let src = &src[..8];
        // SAFETY: `src` holds 8 readable f64 (checked one line up);
        // AVX-512F is present (see the type doc).
        Avx512(unsafe { std::arch::x86_64::_mm512_loadu_pd(src.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        let dst = &mut dst[..8];
        // SAFETY: `dst` holds 8 writable f64 (checked one line up);
        // AVX-512F is present (see the type doc).
        unsafe { std::arch::x86_64::_mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present (see the type doc).
        Avx512(unsafe { std::arch::x86_64::_mm512_add_pd(self.0, o.0) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present (see the type doc).
        Avx512(unsafe { std::arch::x86_64::_mm512_sub_pd(self.0, o.0) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present (see the type doc).
        Avx512(unsafe { std::arch::x86_64::_mm512_mul_pd(self.0, o.0) })
    }
}

/// One complex element of the half-size transform, `(re, im)` lanes.
type Cx<V> = (V, V);

/// Reads the complex element stored in `z` (`2·N` f64: real lanes, then
/// imaginary lanes).
#[inline(always)]
fn get<V: Lanes>(z: &[f64]) -> Cx<V> {
    (V::load(&z[..V::N]), V::load(&z[V::N..]))
}

/// Writes a complex element to `z`.
#[inline(always)]
fn put<V: Lanes>(z: &mut [f64], v: Cx<V>) {
    let (re, im) = z.split_at_mut(V::N);
    v.0.store(re);
    v.1.store(im);
}

/// `(a + b, a − b)`.
#[inline(always)]
fn butterfly<V: Lanes>(a: Cx<V>, b: Cx<V>) -> (Cx<V>, Cx<V>) {
    ((a.0.add(b.0), a.1.add(b.1)), (a.0.sub(b.0), a.1.sub(b.1)))
}

/// `a · (wr + i·wi)`.
#[inline(always)]
fn twiddle<V: Lanes>(a: Cx<V>, wr: f64, wi: f64) -> Cx<V> {
    let (wr, wi) = (V::splat(wr), V::splat(wi));
    (a.0.mul(wr).sub(a.1.mul(wi)), a.0.mul(wi).add(a.1.mul(wr)))
}

/// A planned real-input FFT of size `n`: forward analysis to the
/// one-sided spectrum (`n/2 + 1` bins), Hermitian synthesis back to a
/// real signal, and the normalised inverse.
///
/// The forward transform packs the `n` reals into an `n/2` complex
/// vector, runs a half-size FFT and unpacks with a precomputed twiddle
/// table — half the butterfly work of the full complex transform the
/// scalar oracle runs. It works on several frames at once, one per SIMD
/// lane (see [`forward_frames`](Self::forward_frames)).
#[derive(Debug, Clone)]
pub struct RfftPlan {
    n: usize,
    /// `tw[k] = e^{-2πik/n}` for `k = 0..=n/2`.
    tw: Vec<Complex>,
    /// Bit-reversal permutation of the half-size transform.
    rev: Vec<usize>,
    /// Twiddles of the half-size transform's radix-2 stages: the stage
    /// of half-span `h` keeps `e^{-iπj/h}`, `j < h`, at `h - 1 + j`.
    stage_re: Vec<f64>,
    stage_im: Vec<f64>,
    /// `n` ones: the window of [`forward`](Self::forward)'s single frame.
    ones: Vec<f64>,
}

/// Generates one monomorphic lane body of [`RfftPlan::forward_frames`]
/// over a [`Lanes`] register, optionally compiled for a wider ISA.
/// Every body runs the same generic source, each lane the same
/// operations in the same order, so a frame's bits depend on none of
/// its lane, its group, or the instruction set.
macro_rules! rfft_frames_impl {
    ($name:ident, $lanes:ty $(, $feat:literal)?) => {
        $(#[target_feature(enable = $feat)])?
        fn $name(
            plan: &RfftPlan,
            frames: Frames<'_>,
            window: &[f64],
            lanes: &mut Vec<f64>,
            power: Option<&mut [f64]>,
            spectra: Option<&mut [Complex]>,
        ) {
            plan.frames_in_lanes::<$lanes>(frames, window, lanes, power, spectra);
        }
    };
}

rfft_frames_impl!(rfft_frames_portable, [f64; 4]);
#[cfg(target_arch = "x86_64")]
rfft_frames_impl!(rfft_frames_avx2, [f64; 4], "avx2");
#[cfg(target_arch = "x86_64")]
rfft_frames_impl!(rfft_frames_avx512, Avx512, "avx512f");

impl RfftPlan {
    /// Frames per [`forward_frames`](Self::forward_frames) call that the
    /// MFCC paths use: a multiple of every body's lane count, and small
    /// enough that the lane buffer and the block's spectra stay in L1.
    pub(crate) const BLOCK: usize = 8;

    /// Plans a transform of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> RfftPlan {
        assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
        let tau = 2.0 * std::f64::consts::PI;
        let tw: Vec<Complex> =
            (0..=n / 2).map(|k| Complex::from_angle(-tau * k as f64 / n as f64)).collect();
        let half = n / 2;
        let bits = half.trailing_zeros();
        let rev = (0..half)
            .map(|j| if bits == 0 { j } else { j.reverse_bits() >> (usize::BITS - bits) })
            .collect();
        // Stage h's twiddle e^{-iπj/h} is tw[j·half/h].
        let (mut stage_re, mut stage_im) = (Vec::new(), Vec::new());
        let mut h = 1;
        while h < half {
            for j in 0..h {
                let w = tw[j * (half / h)];
                stage_re.push(w.re);
                stage_im.push(w.im);
            }
            h *= 2;
        }
        RfftPlan { n, tw, rev, stage_re, stage_im, ones: vec![1.0; n] }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of one-sided spectrum bins, `n/2 + 1`.
    pub fn n_bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward DFT of `signal` zero-padded to `n`, writing the one-sided
    /// spectrum `S[0..=n/2]` into `out`: a one-frame
    /// [`forward_frames`](Self::forward_frames) call with a window of
    /// ones, so it is bitwise equal to any frame of a batched call on the
    /// same (already windowed) samples.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() > n` or `out.len() != n_bins()`.
    pub fn forward(&self, signal: &[f64], scratch: &mut RfftScratch, out: &mut [Complex]) {
        assert!(
            signal.len() <= self.n,
            "signal length {} exceeds FFT size {}",
            signal.len(),
            self.n
        );
        let frames = Frames { signal, start: 0, hop: 0, len: signal.len(), count: 1 };
        self.forward_frames(frames, &self.ones[..signal.len()], scratch, None, Some(out));
    }

    /// Forward DFT of every frame of `frames`, each multiplied by
    /// `window` and zero-padded to `n`. Writes the one-sided power
    /// spectrum `|S[k]|²` of frame `i` to `power[i·(n/2+1)..]` and, when
    /// asked, the complex spectrum to `spectra` in the same layout.
    ///
    /// Frames run side by side, one per SIMD lane (4 in the portable and
    /// AVX2 bodies, 8 in the AVX-512 body, chosen at run time), through a
    /// table-driven transform: the bit reversal is folded into the
    /// windowed pack, radix-2 stages run fused in pairs, and `|S|²` is
    /// taken in the unpack. Every lane runs the same operations in the
    /// same order and a short last group is padded with silent frames,
    /// so a frame's output bits are independent of its position, the
    /// call's frame count and the instruction set. Under
    /// [`force_scalar`] the frames go one by one through the full
    /// complex oracle instead.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len > n`, `window.len() != frames.len`, or an
    /// output is not `frames.count · (n/2 + 1)` long.
    pub fn forward_frames(
        &self,
        frames: Frames<'_>,
        window: &[f64],
        scratch: &mut RfftScratch,
        power: Option<&mut [f64]>,
        spectra: Option<&mut [Complex]>,
    ) {
        assert!(frames.len <= self.n, "frame length {} exceeds FFT size {}", frames.len, self.n);
        assert_eq!(window.len(), frames.len, "window length mismatch");
        let size = frames.count * self.n_bins();
        assert!(power.as_ref().is_none_or(|p| p.len() == size), "power spectrum length mismatch");
        assert!(spectra.as_ref().is_none_or(|s| s.len() == size), "spectrum length mismatch");
        // A 1-point transform is the identity; the oracle covers it.
        if scalar_forced() || self.n == 1 {
            return self.frames_oracle(frames, window, &mut scratch.full, power, spectra);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: guarded by the runtime feature check one line up.
                return unsafe {
                    rfft_frames_avx512(self, frames, window, &mut scratch.lanes, power, spectra)
                };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: guarded by the runtime feature check one line up.
                return unsafe {
                    rfft_frames_avx2(self, frames, window, &mut scratch.lanes, power, spectra)
                };
            }
        }
        rfft_frames_portable(self, frames, window, &mut scratch.lanes, power, spectra);
    }

    /// The scalar oracle of [`forward_frames`](Self::forward_frames):
    /// each windowed frame through the full-size complex FFT.
    fn frames_oracle(
        &self,
        frames: Frames<'_>,
        window: &[f64],
        full: &mut Vec<Complex>,
        mut power: Option<&mut [f64]>,
        mut spectra: Option<&mut [Complex]>,
    ) {
        let nb = self.n_bins();
        full.resize(self.n, Complex::ZERO);
        for f in 0..frames.count {
            let seg = frames.frame(f);
            for (t, z) in full.iter_mut().enumerate() {
                *z = Complex::new(seg.get(t).map_or(0.0, |&s| s * window[t]), 0.0);
            }
            fft::fft(full);
            let bins = &full[..nb];
            if let Some(p) = power.as_deref_mut() {
                for (o, z) in p[f * nb..(f + 1) * nb].iter_mut().zip(bins) {
                    *o = z.norm_sq();
                }
            }
            if let Some(s) = spectra.as_deref_mut() {
                s[f * nb..(f + 1) * nb].copy_from_slice(bins);
            }
        }
    }

    /// The lane body: frames in groups of `V::N`, each group packed,
    /// transformed and unpacked in the structure-of-arrays buffer.
    #[inline(always)]
    fn frames_in_lanes<V: Lanes>(
        &self,
        frames: Frames<'_>,
        window: &[f64],
        lanes: &mut Vec<f64>,
        mut power: Option<&mut [f64]>,
        mut spectra: Option<&mut [Complex]>,
    ) {
        let nb = self.n_bins();
        lanes.resize(self.n * V::N, 0.0);
        for first in (0..frames.count).step_by(V::N) {
            let live = V::N.min(frames.count - first);
            self.pack::<V>(frames.range(first, live), window, lanes);
            self.butterflies::<V>(lanes);
            let (lo, hi) = (first * nb, (first + live) * nb);
            self.unpack::<V>(
                lanes,
                live,
                power.as_deref_mut().map(|p| &mut p[lo..hi]),
                spectra.as_deref_mut().map(|s| &mut s[lo..hi]),
            );
        }
    }

    /// Windows the group's frames into the lanes of `buf`, sample pairs
    /// `(2j, 2j+1)` as one complex element, stored at its bit-reversed
    /// index. Lanes past the group's frames are silent.
    #[inline(always)]
    fn pack<V: Lanes>(&self, group: Frames<'_>, window: &[f64], buf: &mut [f64]) {
        let e = 2 * V::N;
        for l in 0..V::N {
            let seg = if l < group.count { group.frame(l) } else { &[] };
            let (full, rest) = self.rev.split_at(seg.len() / 2);
            for ((s, w), &r) in seg.chunks_exact(2).zip(window.chunks_exact(2)).zip(full) {
                let z = &mut buf[r * e..][..e];
                z[l] = s[0] * w[0];
                z[V::N + l] = s[1] * w[1];
            }
            // An odd-length frame ends on a real-only element; the rest
            // is zero padding.
            let mut rest = rest.iter();
            if seg.len() % 2 == 1 {
                if let Some(&r) = rest.next() {
                    let t = seg.len() - 1;
                    let z = &mut buf[r * e..][..e];
                    z[l] = seg[t] * window[t];
                    z[V::N + l] = 0.0;
                }
            }
            for &r in rest {
                let z = &mut buf[r * e..][..e];
                z[l] = 0.0;
                z[V::N + l] = 0.0;
            }
        }
    }

    /// The half-size decimation-in-time FFT over bit-reversed input,
    /// radix-2 stages fused in pairs: the first pair has only the
    /// trivial twiddles `1` and `-i`, later pairs read the stage tables.
    #[inline(always)]
    fn butterflies<V: Lanes>(&self, buf: &mut [f64]) {
        let e = 2 * V::N;
        let half = buf.len() / e;
        let mut h = 1;
        if half >= 4 {
            for q in buf.chunks_exact_mut(4 * e) {
                let (q0, rest) = q.split_at_mut(e);
                let (q1, rest) = rest.split_at_mut(e);
                let (q2, q3) = rest.split_at_mut(e);
                let (y0, y1) = butterfly::<V>(get(q0), get(q1));
                let (y2, y3) = butterfly::<V>(get(q2), get(q3));
                let (z0, z2) = butterfly(y0, y2);
                // y1 ± (-i)·y3, where (-i)·y3 = (y3.im, −y3.re).
                let z1 = (y1.0.add(y3.1), y1.1.sub(y3.0));
                let z3 = (y1.0.sub(y3.1), y1.1.add(y3.0));
                put(q0, z0);
                put(q1, z1);
                put(q2, z2);
                put(q3, z3);
            }
            h = 4;
        }
        while 4 * h <= half {
            let (wr1, wi1) = (&self.stage_re[h - 1..2 * h - 1], &self.stage_im[h - 1..2 * h - 1]);
            let (wr2, wi2) =
                (&self.stage_re[2 * h - 1..4 * h - 1], &self.stage_im[2 * h - 1..4 * h - 1]);
            for block in buf.chunks_exact_mut(4 * h * e) {
                let (a, rest) = block.split_at_mut(h * e);
                let (b, rest) = rest.split_at_mut(h * e);
                let (c, d) = rest.split_at_mut(h * e);
                let quads = a
                    .chunks_exact_mut(e)
                    .zip(b.chunks_exact_mut(e))
                    .zip(c.chunks_exact_mut(e).zip(d.chunks_exact_mut(e)));
                for (j, ((a, b), (c, d))) in quads.enumerate() {
                    // Stage h on (a, b) and (c, d), then stage 2h on
                    // (a, c) and (b, d).
                    let (y0, y1) = butterfly::<V>(get(a), twiddle(get(b), wr1[j], wi1[j]));
                    let (y2, y3) = butterfly::<V>(get(c), twiddle(get(d), wr1[j], wi1[j]));
                    let (z0, z2) = butterfly(y0, twiddle(y2, wr2[j], wi2[j]));
                    let (z1, z3) = butterfly(y1, twiddle(y3, wr2[j + h], wi2[j + h]));
                    put(a, z0);
                    put(b, z1);
                    put(c, z2);
                    put(d, z3);
                }
            }
            h *= 4;
        }
        if 2 * h <= half {
            let (wr, wi) = (&self.stage_re[h - 1..2 * h - 1], &self.stage_im[h - 1..2 * h - 1]);
            for block in buf.chunks_exact_mut(2 * h * e) {
                let (a, b) = block.split_at_mut(h * e);
                for (j, (a, b)) in a.chunks_exact_mut(e).zip(b.chunks_exact_mut(e)).enumerate() {
                    let (z0, z1) = butterfly::<V>(get(a), twiddle(get(b), wr[j], wi[j]));
                    put(a, z0);
                    put(b, z1);
                }
            }
        }
    }

    /// Recovers the one-sided spectrum from the packed transform `Z`:
    /// `S[k] = Ze[k] + e^{-2πik/n}·Zo[k]`, where `Ze`/`Zo` are the DFTs
    /// of the even/odd samples, and writes `|S[k]|²` and/or `S[k]` of the
    /// first `live` lanes to their frames' rows.
    #[inline(always)]
    fn unpack<V: Lanes>(
        &self,
        buf: &[f64],
        live: usize,
        mut power: Option<&mut [f64]>,
        mut spectra: Option<&mut [Complex]>,
    ) {
        let e = 2 * V::N;
        let half = buf.len() / e;
        let nb = half + 1;
        // `half` is a power of two: masking is the cheap `% half`.
        let mask = half - 1;
        let one_half = V::splat(0.5);
        let (mut re, mut im, mut pw) = ([0.0; MAX_LANES], [0.0; MAX_LANES], [0.0; MAX_LANES]);
        for (k, w) in self.tw.iter().enumerate() {
            let zk: Cx<V> = get(&buf[(k & mask) * e..][..e]);
            let zr: Cx<V> = get(&buf[((half - k) & mask) * e..][..e]);
            // Ze = (Z[k] + conj Z[n/2−k]) / 2, Zo = (Z[k] − conj Z[n/2−k]) / 2i.
            let (er, ei) = (zk.0.add(zr.0).mul(one_half), zk.1.sub(zr.1).mul(one_half));
            let (or, oi) = (zk.1.add(zr.1).mul(one_half), zr.0.sub(zk.0).mul(one_half));
            let (wr, wi) = (V::splat(w.re), V::splat(w.im));
            let sr = er.add(wr.mul(or).sub(wi.mul(oi)));
            let si = ei.add(wr.mul(oi).add(wi.mul(or)));
            if let Some(p) = power.as_deref_mut() {
                sr.mul(sr).add(si.mul(si)).store(&mut pw);
                for (l, &v) in pw[..live].iter().enumerate() {
                    p[l * nb + k] = v;
                }
            }
            if let Some(s) = spectra.as_deref_mut() {
                sr.store(&mut re);
                si.store(&mut im);
                for l in 0..live {
                    s[l * nb + k] = Complex::new(re[l], im[l]);
                }
            }
        }
    }

    /// Hermitian synthesis `y[t] = Σ_{k=0}^{n-1} W̃_k e^{-2πikt/n}`,
    /// where `W̃` is the Hermitian extension of the one-sided `spec`
    /// (`W̃[n−k] = conj(spec[k])`). This is the adjoint of [`forward`]:
    /// exactly the `2·Re(F z)` term the MFCC backward pass needs. The
    /// DC and Nyquist bins must already be real.
    ///
    /// [`forward`]: RfftPlan::forward
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != n_bins()` or `out.len() != n`.
    pub fn hfft(&self, spec: &[Complex], scratch: &mut RfftScratch, out: &mut [f64]) {
        self.synth_plus(spec, true, scratch, out);
    }

    /// Normalised inverse: recovers the real signal from its one-sided
    /// spectrum, `irfft(forward(x)) == x` up to `O(n·ε)`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != n_bins()` or `out.len() != n`.
    pub fn inverse(&self, spec: &[Complex], scratch: &mut RfftScratch, out: &mut [f64]) {
        self.synth_plus(spec, false, scratch, out);
        let inv_n = 1.0 / self.n as f64;
        for y in out.iter_mut() {
            *y *= inv_n;
        }
    }

    /// Core synthesis `y[t] = Σ W̃_k e^{+2πikt/n}` (unscaled); with
    /// `conj_in` the input bins are conjugated first, turning the sum
    /// into the forward-signed Hermitian synthesis (the output is real
    /// either way).
    fn synth_plus(
        &self,
        spec: &[Complex],
        conj_in: bool,
        scratch: &mut RfftScratch,
        out: &mut [f64],
    ) {
        assert_eq!(spec.len(), self.n_bins(), "one-sided spectrum length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let c = |z: Complex| if conj_in { z.conj() } else { z };
        if self.n == 1 {
            out[0] = spec[0].re;
            return;
        }
        if scalar_forced() {
            // Oracle: materialise the full Hermitian spectrum and run
            // the full-size unnormalised inverse-sign transform.
            let full = &mut scratch.full;
            full.resize(self.n, Complex::ZERO);
            full[0] = c(spec[0]);
            let half = self.n / 2;
            full[half] = c(spec[half]);
            for k in 1..half {
                full[k] = c(spec[k]);
                full[self.n - k] = c(spec[k]).conj();
            }
            fft::transform(full, 1.0);
            for (y, z) in out.iter_mut().zip(full.iter()) {
                *y = z.re;
            }
            return;
        }
        let half = self.n / 2;
        let buf = &mut scratch.half;
        buf.resize(half, Complex::ZERO);
        // Re-pack the one-sided spectrum into the half-size transform
        // whose inverse interleaves to the even/odd output samples.
        for (k, z) in buf.iter_mut().enumerate() {
            let a = c(spec[k]);
            let b = c(spec[half - k]).conj();
            let ze = (a + b).scale(0.5);
            let d = (a - b).scale(0.5);
            let zo = self.tw[k].conj() * d;
            // Z[k] = Ze[k] + i·Zo[k]
            *z = Complex::new(ze.re - zo.im, ze.im + zo.re);
        }
        fft::transform(buf, 1.0);
        for (j, z) in buf.iter().enumerate() {
            out[2 * j] = 2.0 * z.re;
            out[2 * j + 1] = 2.0 * z.im;
        }
    }
}

// ---------------------------------------------------------------------------
// DCT-II plan
// ---------------------------------------------------------------------------

/// A planned truncated DCT-II (`n_in` log-mel energies → `n_out`
/// cepstra) with the cosine table precomputed. Summation order matches
/// the scalar oracle in [`crate::dct`] exactly, so forward and adjoint
/// are bit-exact against `dct2_into` / `dct2_transpose_into`.
#[derive(Debug, Clone)]
pub struct DctPlan {
    n_in: usize,
    n_out: usize,
    /// `cos_table[k·n_in + i] = cos(π·k·(2i+1) / (2·n_in))`.
    cos_table: Vec<f64>,
    /// Orthonormal scale per output coefficient.
    scale: Vec<f64>,
}

impl DctPlan {
    /// Plans an `n_in → n_out` truncated orthonormal DCT-II.
    ///
    /// # Panics
    ///
    /// Panics if `n_in == 0` or `n_out > n_in`.
    pub fn new(n_in: usize, n_out: usize) -> DctPlan {
        assert!(n_in > 0, "DCT input length must be positive");
        assert!(n_out <= n_in, "cannot keep {n_out} coefficients of {n_in}");
        let mut cos_table = Vec::with_capacity(n_in * n_out);
        for k in 0..n_out {
            for i in 0..n_in {
                cos_table.push(
                    (std::f64::consts::PI * k as f64 * (2 * i + 1) as f64 / (2 * n_in) as f64)
                        .cos(),
                );
            }
        }
        let scale = (0..n_out)
            .map(|k| if k == 0 { (1.0 / n_in as f64).sqrt() } else { (2.0 / n_in as f64).sqrt() })
            .collect();
        DctPlan { n_in, n_out, cos_table, scale }
    }

    /// Input length the plan was built for.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of retained output coefficients.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Forward DCT-II: `out[k] = s_k · Σ_i x_i cos(πk(2i+1)/2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_in()` or `out.len() != n_out()`.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n_in, "DCT input length mismatch");
        assert_eq!(out.len(), self.n_out, "DCT output length mismatch");
        if scalar_forced() {
            crate::dct::dct2_into(x, out);
            return;
        }
        for (k, o) in out.iter_mut().enumerate() {
            let row = &self.cos_table[k * self.n_in..(k + 1) * self.n_in];
            let sum: f64 = x.iter().zip(row).map(|(&xi, &c)| xi * c).sum();
            *o = self.scale[k] * sum;
        }
    }

    /// Adjoint (transpose) of [`forward_into`]: scatters `n_out`
    /// coefficient gradients back to `n_in` input gradients.
    ///
    /// [`forward_into`]: DctPlan::forward_into
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != n_out()` or `out.len() != n_in()`.
    pub fn adjoint_into(&self, grad: &[f64], out: &mut [f64]) {
        assert_eq!(grad.len(), self.n_out, "DCT gradient length mismatch");
        assert_eq!(out.len(), self.n_in, "DCT adjoint output length mismatch");
        if scalar_forced() {
            crate::dct::dct2_transpose_into(grad, out);
            return;
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = grad
                .iter()
                .enumerate()
                .map(|(k, &g)| self.scale[k] * g * self.cos_table[k * self.n_in + i])
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::{dct2_into, dct2_transpose_into};
    use proptest::prelude::*;

    /// Deterministic pseudo-random fill (xorshift64*), so parity runs
    /// are seeded and reproducible without any RNG dependency.
    fn lcg_fill(seed: u64, out: &mut [f64]) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for v in out.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        }
    }

    fn vec_seeded(seed: u64, n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        lcg_fill(seed, &mut v);
        v
    }

    #[test]
    fn dot_matches_scalar_within_reassociation() {
        // Non-multiples of the lane width and degenerate lengths.
        for (seed, n) in [(1u64, 0usize), (2, 1), (3, 3), (4, 4), (5, 7), (6, 39), (7, 257)] {
            let a = vec_seeded(seed, n);
            let b = vec_seeded(seed ^ 0xABCD, n);
            let got = dot(&a, &b);
            let want = scalar::dot(&a, &b);
            let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            assert!((got - want).abs() <= 1e-12 * (1.0 + mag), "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn axpy_is_bit_exact() {
        for (seed, n) in [(11u64, 0usize), (12, 1), (13, 5), (14, 64), (15, 129)] {
            let x = vec_seeded(seed, n);
            let mut y = vec_seeded(seed ^ 0x55, n);
            let mut y_oracle = y.clone();
            axpy(&mut y, 0.37, &x);
            scalar::axpy(&mut y_oracle, 0.37, &x);
            assert_eq!(y, y_oracle, "n={n}");
        }
    }

    #[test]
    fn sq_dist_and_zscore_match_scalar() {
        for (seed, n) in [(21u64, 1usize), (22, 6), (23, 40), (24, 101)] {
            let a = vec_seeded(seed, n);
            let b = vec_seeded(seed ^ 0x99, n);
            let is: Vec<f64> = vec_seeded(seed ^ 0x777, n).iter().map(|v| 1.0 + v.abs()).collect();
            let d = sq_dist(&a, &b);
            let ds = scalar::sq_dist(&a, &b);
            assert!((d - ds).abs() <= 1e-12 * (1.0 + ds.abs()), "n={n}: {d} vs {ds}");
            let z = sq_zscore_sum(&a, &b, &is);
            let zs = scalar::sq_zscore_sum(&a, &b, &is);
            assert!((z - zs).abs() <= 1e-12 * (1.0 + zs.abs()), "n={n}: {z} vs {zs}");
        }
    }

    #[test]
    fn gemm_equals_gemv_equals_dot_bitwise() {
        // The internal-consistency invariant several persistence tests
        // lean on: tiling never splits k, so all three entry points
        // produce identical bits.
        for (m, n, k) in [(1usize, 1usize, 1usize), (3, 5, 7), (17, 33, 4), (2, 40, 39)] {
            let a = vec_seeded(31 + (m * n) as u64, m * k);
            let b = vec_seeded(37 + k as u64, n * k);
            let mut c = vec![0.0; m * n];
            gemm_nt(&a, m, &b, n, k, &mut c);
            for i in 0..m {
                let mut row = vec![0.0; n];
                gemv(&b, k, &a[i * k..(i + 1) * k], &mut row);
                for j in 0..n {
                    assert_eq!(c[i * n + j], row[j], "gemm vs gemv at ({i},{j})");
                    assert_eq!(c[i * n + j], dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]));
                }
            }
        }
    }

    #[test]
    fn gemm_matches_scalar_oracle() {
        for (m, n, k) in [(0usize, 3usize, 4usize), (3, 0, 4), (3, 4, 0), (5, 19, 23), (20, 20, 1)]
        {
            let a = vec_seeded(41 + m as u64, m * k);
            let b = vec_seeded(43 + n as u64, n * k);
            let mut c = vec![0.0; m * n];
            gemm_nt(&a, m, &b, n, k, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let want = scalar::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    let mag: f64 = a[i * k..(i + 1) * k]
                        .iter()
                        .zip(&b[j * k..(j + 1) * k])
                        .map(|(x, y)| (x * y).abs())
                        .sum();
                    assert!(
                        (c[i * n + j] - want).abs() <= 1e-12 * (1.0 + mag),
                        "({i},{j}) of {m}x{n}x{k}"
                    );
                }
            }
        }
    }

    /// Deterministic i8 fill from the same xorshift stream.
    fn i8_seeded(seed: u64, n: usize) -> Vec<i8> {
        vec_seeded(seed, n).iter().map(|v| (v * 127.0).round().clamp(-127.0, 127.0) as i8).collect()
    }

    #[test]
    fn dot_i8_is_bit_exact_against_oracle() {
        for (seed, n) in [(61u64, 0usize), (62, 1), (63, 3), (64, 4), (65, 39), (66, 257)] {
            let a = i8_seeded(seed, n);
            let b = i8_seeded(seed ^ 0x5A5A, n);
            assert_eq!(dot_i8(&a, &b), scalar::dot_i8(&a, &b), "n={n}");
        }
    }

    #[test]
    fn gemm_i8_equals_dot_i8_and_scalar_oracle() {
        // Same invariant as the f64 GEMM, but *exact*: integer
        // accumulation makes tiling and lane order invisible.
        // Shapes straddle GEMM_I8_AVX512_MIN_K so both sides of the
        // width dispatch run (63/64/65 pin the cutoff boundary).
        for (m, n, k) in [
            (0usize, 3usize, 4usize),
            (3, 4, 0),
            (1, 1, 1),
            (5, 19, 23),
            (17, 33, 4),
            (7, 11, 63),
            (7, 11, 64),
            (7, 11, 65),
        ] {
            let a = i8_seeded(71 + m as u64, m * k);
            let b = i8_seeded(73 + n as u64, n * k);
            let mut c = vec![0i32; m * n];
            let mut want = vec![0i32; m * n];
            gemm_nt_i8(&a, m, &b, n, k, &mut c);
            scalar::gemm_nt_i8(&a, m, &b, n, k, &mut want);
            assert_eq!(c, want, "{m}x{n}x{k}");
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c[i * n + j],
                        dot_i8(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]),
                        "({i},{j}) of {m}x{n}x{k}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_i8_is_bit_exact_against_oracle() {
        // Edge inputs first: both half boundaries, saturation on both
        // sides, and every non-finite class must land exactly where the
        // checked oracle puts them.
        let edges = [
            0.0,
            -0.0,
            0.49,
            0.5,
            0.51,
            -0.5,
            -0.51,
            126.49,
            126.5,
            127.0,
            127.49,
            128.0,
            300.0,
            -300.0,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for scale in [1.0, 0.031, 7.5] {
            let mut got = vec![0i8; edges.len()];
            let mut want = vec![0i8; edges.len()];
            quantize_i8(&edges, scale, &mut got);
            scalar::quantize_i8(&edges, scale, &mut want);
            assert_eq!(got, want, "edges at scale {scale}");
        }
        // Dense random sweep across lengths that exercise every lane
        // position of the vectorized body.
        for (seed, n) in [(91u64, 1usize), (92, 3), (93, 4), (94, 17), (95, 64), (96, 403)] {
            let xs: Vec<f64> = vec_seeded(seed, n).iter().map(|v| v * 9.0).collect();
            let mut got = vec![0i8; n];
            let mut want = vec![0i8; n];
            quantize_i8(&xs, 0.031, &mut got);
            scalar::quantize_i8(&xs, 0.031, &mut want);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow() {
        // Worst case ±127·±127 across a wide row stays well inside i32.
        let a = vec![i8::MIN + 1; 4096];
        let b = vec![127i8; 4096];
        assert_eq!(dot_i8(&a, &b), -127 * 127 * 4096);
        assert_eq!(scalar::dot_i8(&a, &b), -127 * 127 * 4096);
    }

    /// `O(n·ε)` bound of the parity policy, scaled by the frame's
    /// absolute mass.
    fn rfft_tol(n: usize, frame: &[f64]) -> f64 {
        4.0 * n as f64 * f64::EPSILON * (frame.iter().map(|v| v.abs()).sum::<f64>() + 1.0)
    }

    #[test]
    fn rfft_matches_full_fft_oracle() {
        // Degenerate and non-trivial power-of-two sizes, with the input
        // shorter than the transform (the zero-padded framing case).
        for (seed, n, sig_len) in
            [(51u64, 1usize, 1usize), (52, 2, 2), (53, 8, 5), (54, 64, 64), (55, 512, 400)]
        {
            let x = vec_seeded(seed, sig_len);
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut got = vec![Complex::ZERO; plan.n_bins()];
            plan.forward(&x, &mut scratch, &mut got);
            let full = fft::rfft(&x, n);
            let tol = rfft_tol(n, &x);
            for (k, (g, w)) in got.iter().zip(&full).enumerate() {
                assert!(
                    (g.re - w.re).abs() <= tol && (g.im - w.im).abs() <= tol,
                    "n={n} bin {k}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn forward_frames_matches_full_fft_oracle_at_every_size_and_length() {
        // Every power of two up to 1024 and every frame length 0..=n, in
        // calls of 1 frame (one padded group) and of 5 (a full 4-lane
        // group plus a padded one).
        let mut scratch = RfftScratch::default();
        for log_n in 0..=10u32 {
            let n = 1usize << log_n;
            let plan = RfftPlan::new(n);
            let nb = plan.n_bins();
            for len in 0..=n {
                let signal = vec_seeded(1000 + (n + len) as u64, len + 4);
                let window: Vec<f64> =
                    vec_seeded(7 + len as u64, len).iter().map(|v| v + 1.5).collect();
                for count in [1usize, 5] {
                    let frames = Frames { signal: &signal, start: 0, hop: 1, len, count };
                    let mut power = vec![0.0; count * nb];
                    let mut spectra = vec![Complex::ZERO; count * nb];
                    plan.forward_frames(
                        frames,
                        &window,
                        &mut scratch,
                        Some(&mut power),
                        Some(&mut spectra),
                    );
                    for f in 0..count {
                        let windowed: Vec<f64> =
                            frames.frame(f).iter().zip(&window).map(|(s, w)| s * w).collect();
                        let want = fft::rfft(&windowed, n);
                        let tol = rfft_tol(n, &windowed);
                        for k in 0..nb {
                            let (g, w) = (spectra[f * nb + k], want[k]);
                            assert!(
                                (g.re - w.re).abs() <= tol && (g.im - w.im).abs() <= tol,
                                "n={n} len={len} count={count} frame {f} bin {k}: {g:?} vs {w:?}"
                            );
                            // |X|² is taken from the very same bins.
                            assert_eq!(power[f * nb + k].to_bits(), g.norm_sq().to_bits());
                        }
                    }
                }
            }
        }
    }

    /// The signature every lane body shares.
    type LaneBody = fn(
        &RfftPlan,
        Frames<'_>,
        &[f64],
        &mut Vec<f64>,
        Option<&mut [f64]>,
        Option<&mut [Complex]>,
    );

    /// Every lane body this host can run, with its name: the portable
    /// body always, AVX2 and AVX-512 when detected.
    fn lane_bodies() -> Vec<(&'static str, LaneBody)> {
        let mut bodies: Vec<(&'static str, LaneBody)> = vec![("portable", rfft_frames_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the body runs only on hosts that report AVX2.
                bodies.push(("avx2", |p, f, w, l, pw, s| unsafe {
                    rfft_frames_avx2(p, f, w, l, pw, s)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the body runs only on hosts that report AVX-512F.
                bodies.push(("avx512", |p, f, w, l, pw, s| unsafe {
                    rfft_frames_avx512(p, f, w, l, pw, s)
                }));
            }
        }
        bodies
    }

    #[test]
    fn forward_frames_bits_ignore_lane_group_and_isa() {
        // A frame's bits must not depend on the body that ran it, how
        // many frames shared its call, or which lane it landed in.
        for (seed, n, len, hop) in
            [(3u64, 2usize, 2usize, 1usize), (4, 16, 11, 3), (5, 512, 400, 160), (6, 256, 256, 97)]
        {
            let plan = RfftPlan::new(n);
            let nb = plan.n_bins();
            let total = 19;
            let signal = vec_seeded(seed, (total - 1) * hop + len - 5);
            let window = vec_seeded(seed ^ 0xF00D, len);
            let all = Frames { signal: &signal, start: 0, hop, len, count: total };
            let mut reference = vec![0.0; total * nb];
            let mut ref_spec = vec![Complex::ZERO; total * nb];
            rfft_frames_portable(
                &plan,
                all,
                &window,
                &mut Vec::new(),
                Some(&mut reference),
                Some(&mut ref_spec),
            );
            for (name, body) in lane_bodies() {
                for group in [1usize, 2, 3, 4, 5, 7, 8, 9, 19] {
                    let mut lanes = Vec::new();
                    let mut power = vec![0.0; total * nb];
                    let mut first = 0;
                    while first < total {
                        let count = group.min(total - first);
                        let rows = first * nb..(first + count) * nb;
                        body(
                            &plan,
                            all.range(first, count),
                            &window,
                            &mut lanes,
                            Some(&mut power[rows]),
                            None,
                        );
                        first += count;
                    }
                    let same =
                        power.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{name} body, groups of {group}, n={n}: bits differ from portable"
                    );
                }
            }
            // The public entry point and its one-frame face agree too.
            let mut scratch = RfftScratch::default();
            let mut power = vec![0.0; total * nb];
            plan.forward_frames(all, &window, &mut scratch, Some(&mut power), None);
            assert!(power.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()));
            let mut spec = vec![Complex::ZERO; nb];
            for f in 0..total {
                let windowed: Vec<f64> =
                    all.frame(f).iter().zip(&window).map(|(s, w)| s * w).collect();
                plan.forward(&windowed, &mut scratch, &mut spec);
                for (k, z) in spec.iter().enumerate() {
                    let want = ref_spec[f * nb + k];
                    assert_eq!(
                        (z.re.to_bits(), z.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "forward, frame {f} bin {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn frames_clamp_at_the_signal_end() {
        let signal = [1.0, 2.0, 3.0, 4.0, 5.0];
        let frames = Frames { signal: &signal, start: 1, hop: 2, len: 3, count: 4 };
        assert_eq!(frames.frame(0), &[2.0, 3.0, 4.0]);
        assert_eq!(frames.frame(1), &[4.0, 5.0]);
        assert!(frames.frame(2).is_empty());
        assert_eq!(frames.range(1, 2).frame(0), &[4.0, 5.0]);
    }

    #[test]
    fn irfft_round_trips() {
        for (seed, n) in [(61u64, 2usize), (62, 16), (63, 256)] {
            let x = vec_seeded(seed, n);
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut spec = vec![Complex::ZERO; plan.n_bins()];
            plan.forward(&x, &mut scratch, &mut spec);
            let mut back = vec![0.0; n];
            plan.inverse(&spec, &mut scratch, &mut back);
            for (t, (&g, &w)) in back.iter().zip(&x).enumerate() {
                assert!((g - w).abs() <= 1e-10 * n as f64, "n={n} t={t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn hfft_matches_oracle_synthesis() {
        for (seed, n) in [(71u64, 4usize), (72, 32), (73, 128)] {
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut spec: Vec<Complex> = (0..plan.n_bins())
                .map(|k| {
                    let v = vec_seeded(seed + k as u64, 2);
                    Complex::new(v[0], v[1])
                })
                .collect();
            // Hermitian synthesis requires real DC/Nyquist bins.
            spec[0].im = 0.0;
            let last = plan.n_bins() - 1;
            spec[last].im = 0.0;
            let mut got = vec![0.0; n];
            plan.hfft(&spec, &mut scratch, &mut got);
            // Oracle: y[t] = 2·Re(full FFT of the one-sided spectrum
            // laid out as a zero-extended buffer), minus the
            // double-counted DC/Nyquist halves — equivalently, direct
            // evaluation of the Hermitian sum.
            for (t, &g) in got.iter().enumerate() {
                let mut want = 0.0;
                for (k, z) in spec.iter().enumerate() {
                    let w = Complex::from_angle(
                        -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64,
                    );
                    let term = *z * w;
                    want += if k == 0 || k == last { term.re } else { 2.0 * term.re };
                }
                assert!((g - want).abs() <= 1e-9 * n as f64, "n={n} t={t}: {g} vs {want}");
            }
        }
    }

    #[test]
    fn dct_plan_is_bit_exact_against_oracle() {
        for (n_in, n_out) in [(1usize, 1usize), (5, 3), (26, 13), (26, 26), (40, 1)] {
            let plan = DctPlan::new(n_in, n_out);
            let x = vec_seeded(81 + n_in as u64, n_in);
            let mut got = vec![0.0; n_out];
            let mut want = vec![0.0; n_out];
            plan.forward_into(&x, &mut got);
            dct2_into(&x, &mut want);
            assert_eq!(got, want, "forward {n_in}->{n_out}");

            let g = vec_seeded(83 + n_out as u64, n_out);
            let mut agot = vec![0.0; n_in];
            let mut awant = vec![0.0; n_in];
            plan.adjoint_into(&g, &mut agot);
            dct2_transpose_into(&g, &mut awant);
            assert_eq!(agot, awant, "adjoint {n_in}->{n_out}");
        }
    }

    #[test]
    fn par_rows_is_thread_count_invariant() {
        let n_cols = 17;
        let n_rows = 40;
        let mut serial = vec_seeded(91, n_rows * n_cols);
        let mut parallel = serial.clone();
        let work = |state: &mut Vec<f64>, r: usize, row: &mut [f64]| {
            state.resize(n_cols, 0.0);
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v * 3.0).sin() + r as f64 * 0.01 + j as f64;
            }
        };
        // Serial reference in the calling thread.
        {
            let mut state = Vec::new();
            for (r, row) in serial.chunks_exact_mut(n_cols).enumerate() {
                work(&mut state, r, row);
            }
        }
        par_rows(&mut parallel, n_cols, Vec::new, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_rows_handles_degenerate_shapes() {
        let mut empty: Vec<f64> = Vec::new();
        par_rows(&mut empty, 4, || (), |_, _, _| panic!("no rows"));
        let mut one = vec![1.0, 2.0, 3.0];
        par_rows(
            &mut one,
            3,
            || (),
            |_, r, row| {
                assert_eq!(r, 0);
                row[0] += 1.0;
            },
        );
        assert_eq!(one[0], 2.0);
    }

    proptest! {
        #[test]
        fn dot_parity_property(raw in proptest::collection::vec(-1e3f64..1e3, 0..64)) {
            let m = raw.len() / 2;
            let (a, b) = (&raw[..m], &raw[m..2 * m]);
            let got = dot(a, b);
            let want = scalar::dot(a, b);
            let mag: f64 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
            prop_assert!((got - want).abs() <= 1e-12 * (1.0 + mag));
        }

        #[test]
        fn rfft_forward_parity_property(raw in proptest::collection::vec(-1.0f64..1.0, 0..48)) {
            let n = 64;
            let plan = RfftPlan::new(n);
            let mut scratch = RfftScratch::default();
            let mut got = vec![Complex::ZERO; plan.n_bins()];
            plan.forward(&raw, &mut scratch, &mut got);
            let full = fft::rfft(&raw, n);
            for (g, w) in got.iter().zip(&full) {
                prop_assert!((g.re - w.re).abs() <= 1e-10 && (g.im - w.im).abs() <= 1e-10);
            }
        }
    }
}

//! Differentiable MFCC extraction.
//!
//! The forward pass implements the classic pipeline of the paper's Figure 2:
//! pre-emphasis → framing → windowing → |FFT|² → mel filterbank → log →
//! DCT-II. [`MfccExtractor::extract_with_cache`] additionally retains the
//! per-frame spectra and mel energies so that [`MfccExtractor::backward`]
//! can propagate a loss gradient from the MFCC matrix back to the raw
//! samples — the "MFCC reconstruction layer" that makes the white-box
//! Carlini & Wagner attack possible.
//!
//! The steady-state entry point is [`MfccExtractor::extract_into`], which
//! threads an [`MfccScratch`] plan through the pipeline so repeated
//! extraction (batch serving, attack inner loops) performs no per-call
//! allocation once the buffers have reached their working size.
//!
//! [`StreamingMfcc`] is the incremental face of the same pipeline: it
//! accepts arbitrary sample chunks, carries the pre-emphasis state and the
//! overlap ring across chunk boundaries, and emits each MFCC row the moment
//! its analysis window is complete. Every path — one-shot,
//! gradient-caching, streamed — computes its frames with the same
//! block pipeline over [`RfftPlan::forward_frames`], whose per-frame bits do
//! not depend on how frames are grouped, so all of them are byte-identical
//! by construction.

use crate::complex::Complex;
use crate::frame::{frame_count, overlap_add_adjoint};
use crate::kernel::{DctPlan, Frames, RfftPlan, RfftScratch};
use crate::mat::Mat;
use crate::mel::MelFilterbank;
use crate::window::Window;

/// A dense `n_frames × dim` feature matrix — an alias of [`Mat`], kept for
/// continuity with the original feature-extraction API.
pub use crate::mat::Mat as FeatureMatrix;

/// Configuration of an MFCC front end.
///
/// Different ASR profiles in `mvp-asr` use different configurations — frame
/// geometry, mel resolution and cepstral order — which is one of the
/// diversity axes that makes audio AEs non-transferable across ASRs.
#[derive(Debug, Clone, PartialEq)]
pub struct MfccConfig {
    /// Sample rate in Hz.
    pub sample_rate: u32,
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop (frame advance) in samples.
    pub hop: usize,
    /// FFT size (power of two, `>= frame_len`).
    pub n_fft: usize,
    /// Number of mel filters.
    pub n_mels: usize,
    /// Number of cepstral coefficients kept (`<= n_mels`).
    pub n_cepstra: usize,
    /// Analysis window.
    pub window: Window,
    /// Lowest filterbank frequency in Hz.
    pub f_min: f64,
    /// Highest filterbank frequency in Hz (`<= sample_rate / 2`).
    pub f_max: f64,
    /// Pre-emphasis coefficient (`0` disables).
    pub pre_emphasis: f64,
    /// Floor added to mel energies before the logarithm.
    pub log_floor: f64,
}

impl Default for MfccConfig {
    /// 16 kHz, 25 ms frames, 10 ms hop, 512-point FFT, 26 mels, 13 cepstra.
    fn default() -> Self {
        MfccConfig {
            sample_rate: 16_000,
            frame_len: 400,
            hop: 160,
            n_fft: 512,
            n_mels: 26,
            n_cepstra: 13,
            window: Window::Hann,
            f_min: 0.0,
            f_max: 8_000.0,
            pre_emphasis: 0.97,
            log_floor: 1e-10,
        }
    }
}

impl MfccConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any invalid combination.
    pub fn validate(&self) {
        assert!(self.frame_len > 0 && self.hop > 0, "frame geometry must be positive");
        assert!(self.n_fft.is_power_of_two(), "n_fft {} must be a power of two", self.n_fft);
        assert!(
            self.n_fft >= self.frame_len,
            "n_fft {} smaller than frame_len {}",
            self.n_fft,
            self.frame_len
        );
        assert!(self.n_cepstra > 0 && self.n_cepstra <= self.n_mels, "n_cepstra out of range");
        assert!(self.log_floor > 0.0, "log floor must be positive");
        assert!(self.f_max <= self.sample_rate as f64 / 2.0 + 1e-9, "f_max beyond Nyquist");
    }
}

/// Per-frame intermediates retained for the backward pass.
#[derive(Debug, Clone)]
pub struct MfccCache {
    /// One-sided complex spectra, one `n_fft/2 + 1`-length segment per
    /// frame (the real-input FFT never materialises the mirrored half).
    spectra: Vec<Complex>,
    /// FFT size the spectra were produced with.
    n_fft: usize,
    /// Mel energies per frame (pre-log), `n_frames × n_mels`.
    mels: Mat,
    /// Original signal length in samples.
    n_samples: usize,
}

impl MfccCache {
    fn n_frames(&self) -> usize {
        self.mels.n_rows()
    }

    fn n_bins(&self) -> usize {
        self.n_fft / 2 + 1
    }

    fn spectrum(&self, f: usize) -> &[Complex] {
        let n_bins = self.n_bins();
        &self.spectra[f * n_bins..(f + 1) * n_bins]
    }
}

/// Reusable workspace for [`MfccExtractor::extract_into`].
///
/// Holds the pre-emphasis buffer and the block pipeline's FFT lanes,
/// spectra and mel temporaries.
/// Buffers grow to the working size on first use and are reused verbatim
/// afterwards, so repeated extraction allocates nothing in steady state.
/// A scratch built for one extractor geometry may be reused with another;
/// the buffers simply resize once.
#[derive(Debug, Clone, Default)]
pub struct MfccScratch {
    emphasized: Vec<f64>,
    bufs: FrameBufs,
}

/// Working buffers of one block of frames (the FFT lanes, the block's
/// power spectra, one frame's mel and log-mel rows).
#[derive(Debug, Clone, Default)]
struct FrameBufs {
    power: Vec<f64>,
    mel: Vec<f64>,
    logmel: Vec<f64>,
    rfft: RfftScratch,
}

/// The MFCC front end.
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    cfg: MfccConfig,
    window: Vec<f64>,
    filterbank: MelFilterbank,
    plan: RfftPlan,
    dct: DctPlan,
}

impl MfccExtractor {
    /// Builds an extractor for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`MfccConfig::validate`]).
    pub fn new(cfg: MfccConfig) -> MfccExtractor {
        cfg.validate();
        let window = cfg.window.coefficients(cfg.frame_len);
        let filterbank =
            MelFilterbank::new(cfg.n_mels, cfg.n_fft, cfg.sample_rate as f64, cfg.f_min, cfg.f_max);
        let plan = RfftPlan::new(cfg.n_fft);
        let dct = DctPlan::new(cfg.n_mels, cfg.n_cepstra);
        MfccExtractor { cfg, window, filterbank, plan, dct }
    }

    /// The configuration this extractor was built with.
    pub fn config(&self) -> &MfccConfig {
        &self.cfg
    }

    /// Number of frames this extractor produces for `n_samples` samples.
    pub fn n_frames_for(&self, n_samples: usize) -> usize {
        frame_count(n_samples, self.cfg.frame_len, self.cfg.hop)
    }

    /// Widens `samples` to `f64` and pre-emphasizes them into `out` in
    /// one pass; a sample's bits are those of `s as f64`, whatever `S`.
    fn pre_emphasize_into<S: Copy + Into<f64>>(&self, samples: &[S], out: &mut Vec<f64>) {
        let a = self.cfg.pre_emphasis;
        out.clear();
        out.reserve(samples.len());
        if a == 0.0 {
            out.extend(samples.iter().map(|&s| s.into()));
            return;
        }
        let mut prev = 0.0;
        for &s in samples {
            let s: f64 = s.into();
            out.push(s - a * prev);
            prev = s;
        }
    }

    /// Extracts the MFCC matrix for `samples`.
    pub fn extract(&self, samples: &[f64]) -> FeatureMatrix {
        let mut scratch = MfccScratch::default();
        let mut out = FeatureMatrix::default();
        self.extract_into(samples, &mut scratch, &mut out);
        out
    }

    /// Extracts MFCCs into `out`, reusing the buffers in `scratch`.
    ///
    /// `samples` are `f64`, or a waveform's raw `f32` samples, widened
    /// while pre-emphasizing (bitwise as widening them first would), so
    /// the caller needs no widened copy.
    ///
    /// `out` is resized to `n_frames × n_cepstra`; neither it nor `scratch`
    /// allocates once both have reached their steady-state size.
    pub fn extract_into<S: Copy + Into<f64>>(
        &self,
        samples: &[S],
        scratch: &mut MfccScratch,
        out: &mut FeatureMatrix,
    ) {
        self.forward(samples, scratch, out, None);
    }

    /// Extracts MFCCs and the intermediates needed by [`backward`].
    ///
    /// [`backward`]: MfccExtractor::backward
    pub fn extract_with_cache(&self, samples: &[f64]) -> (FeatureMatrix, MfccCache) {
        let mut scratch = MfccScratch::default();
        let mut out = FeatureMatrix::default();
        let mut cache = MfccCache {
            spectra: Vec::new(),
            n_fft: self.cfg.n_fft,
            mels: Mat::default(),
            n_samples: samples.len(),
        };
        self.forward(samples, &mut scratch, &mut out, Some(&mut cache));
        (out, cache)
    }

    /// The pipeline over a run of frames, the one spectrum path of every
    /// MFCC caller: for each block of [`RfftPlan::BLOCK`] frames, the
    /// windowed real FFT and `|X|²` side by side in SIMD lanes
    /// ([`RfftPlan::forward_frames`]), then mel → log → DCT per frame into
    /// `out` (`frames.count × n_cepstra`, row-major). A cache-filling
    /// caller passes `(spectra, mels)` in the same frame-major layout to
    /// keep each frame's one-sided spectrum and mel energies.
    fn frames_forward(
        &self,
        frames: Frames<'_>,
        bufs: &mut FrameBufs,
        out: &mut [f64],
        mut cache: Option<(&mut [Complex], &mut [f64])>,
    ) {
        let cfg = &self.cfg;
        let (n_bins, n_mels, n_ceps) = (cfg.n_fft / 2 + 1, cfg.n_mels, cfg.n_cepstra);
        bufs.power.resize(RfftPlan::BLOCK * n_bins, 0.0);
        bufs.mel.resize(n_mels, 0.0);
        bufs.logmel.resize(n_mels, 0.0);
        for first in (0..frames.count).step_by(RfftPlan::BLOCK) {
            let count = RfftPlan::BLOCK.min(frames.count - first);
            let power = &mut bufs.power[..count * n_bins];
            self.plan.forward_frames(
                frames.range(first, count),
                &self.window,
                &mut bufs.rfft,
                Some(&mut *power),
                cache.as_mut().map(|(spectra, _)| &mut spectra[first * n_bins..][..count * n_bins]),
            );
            for (f, frame_power) in (first..).zip(power.chunks_exact(n_bins)) {
                let mel = match cache.as_mut() {
                    Some((_, mels)) => &mut mels[f * n_mels..][..n_mels],
                    None => &mut bufs.mel[..],
                };
                self.filterbank.apply_into(frame_power, mel);
                for (l, &m) in bufs.logmel.iter_mut().zip(mel.iter()) {
                    *l = (m + cfg.log_floor).ln();
                }
                self.dct.forward_into(&bufs.logmel, &mut out[f * n_ceps..][..n_ceps]);
            }
        }
    }

    /// Shared forward pass; fills `cache` when the caller needs gradients.
    ///
    /// Runs [`frames_forward`](Self::frames_forward) over the emphasized
    /// signal on the calling thread, through the caller's scratch, so it
    /// is allocation-free once warm.
    fn forward<S: Copy + Into<f64>>(
        &self,
        samples: &[S],
        scratch: &mut MfccScratch,
        out: &mut FeatureMatrix,
        cache: Option<&mut MfccCache>,
    ) {
        let cfg = &self.cfg;
        let n_frames = self.n_frames_for(samples.len());
        self.pre_emphasize_into(samples, &mut scratch.emphasized);
        out.reset(n_frames, cfg.n_cepstra);
        let frames = Frames {
            signal: &scratch.emphasized,
            start: 0,
            hop: cfg.hop,
            len: cfg.frame_len,
            count: n_frames,
        };
        let cache = cache.map(|c| {
            c.n_fft = cfg.n_fft;
            c.n_samples = samples.len();
            c.spectra.clear();
            c.spectra.resize(n_frames * (cfg.n_fft / 2 + 1), Complex::ZERO);
            c.mels.reset(n_frames, cfg.n_mels);
            (&mut c.spectra[..], c.mels.as_mut_slice())
        });
        self.frames_forward(frames, &mut scratch.bufs, out.as_mut_slice(), cache);
    }

    /// Backpropagates a gradient over the MFCC matrix to a gradient over
    /// the raw samples.
    ///
    /// `d_mfcc` must have the shape produced by
    /// [`extract_with_cache`](Self::extract_with_cache) for the same signal.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `d_mfcc` and `cache`.
    pub fn backward(&self, cache: &MfccCache, d_mfcc: &FeatureMatrix) -> Vec<f64> {
        let cfg = &self.cfg;
        assert_eq!(d_mfcc.n_frames(), cache.n_frames(), "frame count mismatch");
        assert_eq!(d_mfcc.dim(), cfg.n_cepstra, "cepstral dimension mismatch");
        let n_bins = cfg.n_fft / 2 + 1;
        let mut frame_grads = Mat::zeros(cache.n_frames(), cfg.frame_len);
        let mut d_logmel = vec![0.0; cfg.n_mels];
        let mut d_mel = vec![0.0; cfg.n_mels];
        let mut d_power = vec![0.0; n_bins];
        let mut w_os = vec![Complex::ZERO; n_bins];
        let mut d_frame = vec![0.0; cfg.n_fft];
        let mut rfft_scratch = RfftScratch::default();
        for f in 0..cache.n_frames() {
            let spec = cache.spectrum(f);
            // DCT and log adjoints.
            self.dct.adjoint_into(d_mfcc.row(f), &mut d_logmel);
            for ((d, &g), &m) in d_mel.iter_mut().zip(&d_logmel).zip(cache.mels.row(f)) {
                *d = g / (m + cfg.log_floor);
            }
            self.filterbank.apply_transpose_into(&d_mel, &mut d_power);
            // |X_k|² adjoint via one Hermitian synthesis:
            // dL/dx_t = 2 Re( Σ_{k=0}^{n/2} g_k conj(X_k) e^{-2πi kt/n} ).
            // `hfft` sums the interior bins twice (once mirrored), which
            // supplies exactly the factor 2; the DC and Nyquist bins only
            // appear once, so they are pre-doubled to keep the historical
            // one-sided convention of this adjoint.
            for ((w, &z), &g) in w_os.iter_mut().zip(spec).zip(d_power.iter()) {
                *w = z.conj().scale(g);
            }
            w_os[0] = Complex::new(2.0 * w_os[0].re, 0.0);
            let last = n_bins - 1;
            w_os[last] = Complex::new(2.0 * w_os[last].re, 0.0);
            self.plan.hfft(&w_os, &mut rfft_scratch, &mut d_frame);
            for (d, (&h, &w)) in
                frame_grads.row_mut(f).iter_mut().zip(d_frame.iter().zip(&self.window))
            {
                *d = h * w;
            }
        }
        let d_emph = overlap_add_adjoint(&frame_grads, cfg.hop, cache.n_samples);
        // Pre-emphasis adjoint: y_t = x_t - a x_{t-1}.
        let a = cfg.pre_emphasis;
        if a == 0.0 {
            return d_emph;
        }
        let n = d_emph.len();
        let mut d_x = vec![0.0; n];
        for t in 0..n {
            d_x[t] = d_emph[t] - if t + 1 < n { a * d_emph[t + 1] } else { 0.0 };
        }
        d_x
    }
}

/// Incremental MFCC extraction over arbitrary sample chunks.
///
/// Feed raw samples with [`push`](Self::push) in chunks of any size (down
/// to a single sample); each call appends every MFCC row whose analysis
/// window is complete to the output matrix. [`finish`](Self::finish) emits
/// the trailing zero-padded frames so the row count equals
/// [`MfccExtractor::n_frames_for`] of the total sample count, then resets
/// the state for the next utterance.
///
/// The state carried across chunk boundaries is exactly what framing
/// overlap requires: the pre-emphasis predecessor sample and a ring of
/// emphasized samples not yet consumed by an emitted frame. Output is
/// byte-identical to [`MfccExtractor::extract_into`] for every chunking of
/// the same signal: each call runs the ready frames through the same
/// block pipeline, and a frame's bits do not depend on its block.
#[derive(Debug, Clone, Default)]
pub struct StreamingMfcc {
    /// Emphasized samples still needed by future frames; `ring[0]` holds
    /// absolute sample index `ring_start`.
    ring: Vec<f64>,
    ring_start: usize,
    /// Total raw samples pushed so far.
    n_samples: usize,
    /// Pre-emphasis carry: the last raw sample of the previous chunk.
    prev_raw: f64,
    /// Index of the next frame to emit.
    next_frame: usize,
    /// Cepstra of the frames one call emits, before they join `out`.
    rows: Vec<f64>,
    bufs: FrameBufs,
}

impl StreamingMfcc {
    /// Clears all carried state, ready for a fresh utterance. Buffers keep
    /// their capacity, so a long-lived stream allocates nothing in steady
    /// state.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.ring_start = 0;
        self.n_samples = 0;
        self.prev_raw = 0.0;
        self.next_frame = 0;
    }

    /// Total raw samples pushed since the last reset.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Feeds `chunk` and appends every newly completed MFCC row to `out`.
    ///
    /// `out` accumulates across calls: start an utterance with
    /// `out.reset(0, n_cepstra)` (or an empty matrix) and rows arrive via
    /// [`Mat::push_row`]. Frame `f` is emitted as soon as
    /// `f·hop + frame_len` samples have been seen.
    pub fn push(&mut self, ex: &MfccExtractor, chunk: &[f64], out: &mut FeatureMatrix) {
        let cfg = &ex.cfg;
        // Streamed pre-emphasis: identical to the batch pass because the
        // predecessor sample is carried across chunk boundaries.
        let a = cfg.pre_emphasis;
        self.ring.reserve(chunk.len());
        if a == 0.0 {
            self.ring.extend_from_slice(chunk);
        } else {
            let mut prev = self.prev_raw;
            for &s in chunk {
                self.ring.push(s - a * prev);
                prev = s;
            }
        }
        if let Some(&last) = chunk.last() {
            self.prev_raw = last;
        }
        self.n_samples += chunk.len();
        let complete = match self.n_samples.checked_sub(cfg.frame_len) {
            Some(past) => past / cfg.hop + 1,
            None => 0,
        };
        self.emit(ex, complete, out);
        // Drop the prefix no future frame can read. The ring never starts
        // past the buffered extent even when hop > frame_len leaves a gap
        // before the next frame's window.
        let consumed = (self.next_frame * cfg.hop).min(self.ring_start + self.ring.len());
        let k = consumed - self.ring_start;
        if k > 0 {
            self.ring.drain(..k);
            self.ring_start = consumed;
        }
    }

    /// Emits the remaining zero-padded partial frames and resets the state
    /// for the next utterance.
    ///
    /// After this call `out` holds exactly
    /// [`n_frames_for`](MfccExtractor::n_frames_for)`(n_samples)` rows in
    /// total, matching the batch extractor's framing of the full signal.
    pub fn finish(&mut self, ex: &MfccExtractor, out: &mut FeatureMatrix) {
        // Trailing frames read a short (possibly empty, when hop >
        // frame_len strands a window past the end) slice of the ring.
        self.emit(ex, ex.n_frames_for(self.n_samples), out);
        self.reset();
    }

    /// Emits frames `next_frame .. until` from the ring in one
    /// [`MfccExtractor::frames_forward`] run and appends their rows.
    fn emit(&mut self, ex: &MfccExtractor, until: usize, out: &mut FeatureMatrix) {
        let cfg = &ex.cfg;
        let count = until.saturating_sub(self.next_frame);
        if count == 0 {
            return;
        }
        let frames = Frames {
            signal: &self.ring,
            start: self.next_frame * cfg.hop - self.ring_start,
            hop: cfg.hop,
            len: cfg.frame_len,
            count,
        };
        self.rows.resize(count * cfg.n_cepstra, 0.0);
        ex.frames_forward(frames, &mut self.bufs, &mut self.rows, None);
        for row in self.rows.chunks_exact(cfg.n_cepstra) {
            out.push_row(row);
        }
        self.next_frame = until;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MfccConfig {
        MfccConfig {
            sample_rate: 8_000,
            frame_len: 64,
            hop: 32,
            n_fft: 64,
            n_mels: 8,
            n_cepstra: 5,
            window: Window::Hann,
            f_min: 50.0,
            f_max: 4_000.0,
            pre_emphasis: 0.97,
            log_floor: 1e-8,
        }
    }

    fn pseudo_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                0.4 * (2.0 * std::f64::consts::PI * 440.0 * i as f64 / 8000.0).sin()
                    + 0.2 * (2.0 * std::f64::consts::PI * 1330.0 * i as f64 / 8000.0).sin()
                    + 0.05 * (((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            })
            .collect()
    }

    #[test]
    fn shapes_match_config() {
        let ex = MfccExtractor::new(small_cfg());
        let sig = pseudo_signal(200);
        let feats = ex.extract(&sig);
        assert_eq!(feats.dim(), 5);
        assert_eq!(feats.n_frames(), ex.n_frames_for(200));
        assert!(feats.n_frames() >= 5);
    }

    #[test]
    fn empty_signal_empty_features() {
        let ex = MfccExtractor::new(small_cfg());
        let feats = ex.extract(&[]);
        assert_eq!(feats.n_frames(), 0);
    }

    #[test]
    fn louder_tone_raises_cepstral_energy() {
        let ex = MfccExtractor::new(small_cfg());
        let quiet: Vec<f64> = pseudo_signal(256).iter().map(|s| s * 0.01).collect();
        let loud = pseudo_signal(256);
        let fq = ex.extract(&quiet);
        let fl = ex.extract(&loud);
        // c0 tracks overall log energy.
        assert!(fl.row(2)[0] > fq.row(2)[0]);
    }

    #[test]
    fn distinct_tones_produce_distinct_features() {
        let ex = MfccExtractor::new(small_cfg());
        let tone = |hz: f64| -> Vec<f64> {
            (0..256).map(|i| (2.0 * std::f64::consts::PI * hz * i as f64 / 8000.0).sin()).collect()
        };
        let f1 = ex.extract(&tone(300.0));
        let f2 = ex.extract(&tone(2500.0));
        let d: f64 =
            f1.row(2).iter().zip(f2.row(2)).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
        assert!(d > 1.0, "features too close: {d}");
    }

    #[test]
    fn scratch_reuse_is_exact() {
        // Two different signals through the same scratch, interleaved with
        // the allocating path: results must be bit-identical.
        let ex = MfccExtractor::new(small_cfg());
        let a = pseudo_signal(200);
        let b: Vec<f64> = pseudo_signal(300).iter().map(|s| s * 0.5).collect();
        let mut scratch = MfccScratch::default();
        let mut out = FeatureMatrix::default();
        ex.extract_into(&a, &mut scratch, &mut out);
        assert_eq!(out, ex.extract(&a));
        ex.extract_into(&b, &mut scratch, &mut out);
        assert_eq!(out, ex.extract(&b));
        ex.extract_into(&a, &mut scratch, &mut out);
        assert_eq!(out, ex.extract(&a));
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let ex = MfccExtractor::new(small_cfg());
        let sig = pseudo_signal(180);
        // Loss = Σ c_ij mfcc_ij with fixed pseudo-random weights.
        let weight = |i: usize, j: usize| ((i * 31 + j * 17) % 7) as f64 / 3.0 - 1.0;
        let loss = |s: &[f64]| -> f64 {
            let f = ex.extract(s);
            let mut acc = 0.0;
            for i in 0..f.n_frames() {
                for (j, &v) in f.row(i).iter().enumerate() {
                    acc += weight(i, j) * v;
                }
            }
            acc
        };
        let (feats, cache) = ex.extract_with_cache(&sig);
        let d_rows: Vec<Vec<f64>> = (0..feats.n_frames())
            .map(|i| (0..feats.dim()).map(|j| weight(i, j)).collect())
            .collect();
        let d_mfcc = FeatureMatrix::from_rows(d_rows, feats.dim());
        let grad = ex.backward(&cache, &d_mfcc);
        assert_eq!(grad.len(), sig.len());

        let eps = 1e-6;
        for &t in &[0usize, 3, 31, 32, 64, 90, 120, 150, 179] {
            let mut hi = sig.clone();
            hi[t] += eps;
            let mut lo = sig.clone();
            lo[t] -= eps;
            let fd = (loss(&hi) - loss(&lo)) / (2.0 * eps);
            let rel = (grad[t] - fd).abs() / fd.abs().max(1e-6);
            assert!(rel < 1e-4, "sample {t}: analytic {} vs fd {fd}", grad[t]);
        }
    }

    #[test]
    fn gradient_without_pre_emphasis() {
        let mut cfg = small_cfg();
        cfg.pre_emphasis = 0.0;
        let ex = MfccExtractor::new(cfg);
        let sig = pseudo_signal(128);
        let (feats, cache) = ex.extract_with_cache(&sig);
        let ones =
            FeatureMatrix::from_rows(vec![vec![1.0; feats.dim()]; feats.n_frames()], feats.dim());
        let grad = ex.backward(&cache, &ones);
        let loss = |s: &[f64]| ex.extract(s).as_slice().iter().sum::<f64>();
        let eps = 1e-6;
        for &t in &[1usize, 40, 100] {
            let mut hi = sig.clone();
            hi[t] += eps;
            let mut lo = sig.clone();
            lo[t] -= eps;
            let fd = (loss(&hi) - loss(&lo)) / (2.0 * eps);
            assert!((grad[t] - fd).abs() / fd.abs().max(1e-6) < 1e-4);
        }
    }

    /// Splits `sig` at the given chunk lengths and runs it through a
    /// [`StreamingMfcc`], returning the accumulated matrix.
    fn stream_in_chunks(ex: &MfccExtractor, sig: &[f64], chunks: &[usize]) -> FeatureMatrix {
        let mut st = StreamingMfcc::default();
        let mut out = FeatureMatrix::default();
        out.reset(0, ex.config().n_cepstra);
        let mut pos = 0;
        for &len in chunks {
            let end = (pos + len).min(sig.len());
            st.push(ex, &sig[pos..end], &mut out);
            pos = end;
        }
        st.push(ex, &sig[pos..], &mut out);
        st.finish(ex, &mut out);
        out
    }

    #[test]
    fn streaming_matches_one_shot_bitwise() {
        let ex = MfccExtractor::new(small_cfg());
        let sig = pseudo_signal(317);
        let reference = ex.extract(&sig);
        // One big chunk, tiny fixed chunks, single samples, and a lopsided
        // split: every chunking must reproduce the batch result exactly.
        for chunks in [vec![sig.len()], vec![7; 64], vec![1; sig.len()], vec![300, 1, 16]] {
            assert_eq!(stream_in_chunks(&ex, &sig, &chunks), reference);
        }
    }

    #[test]
    fn streaming_matches_one_shot_on_random_boundaries() {
        let ex = MfccExtractor::new(small_cfg());
        for (trial, &n) in [0usize, 1, 31, 64, 65, 200, 411].iter().enumerate() {
            let sig = pseudo_signal(n);
            let reference = ex.extract(&sig);
            // Deterministic xorshift chunk lengths in 1..=47, fresh per trial.
            let mut seed = 0x9E37_79B9u64.wrapping_add(trial as u64 * 0x517C_C1B7);
            let mut chunks = Vec::new();
            let mut covered = 0;
            while covered < n {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let len = 1 + (seed % 47) as usize;
                chunks.push(len);
                covered += len;
            }
            assert_eq!(stream_in_chunks(&ex, &sig, &chunks), reference, "n={n} trial={trial}");
        }
    }

    #[test]
    fn streaming_handles_hop_larger_than_frame() {
        // hop > frame_len strands analysis windows past the signal end;
        // the stream must still agree with the batch framing.
        let mut cfg = small_cfg();
        cfg.frame_len = 24;
        cfg.hop = 40;
        cfg.n_fft = 32;
        let ex = MfccExtractor::new(cfg);
        for n in [0usize, 3, 24, 25, 63, 64, 65, 200] {
            let sig = pseudo_signal(n);
            assert_eq!(stream_in_chunks(&ex, &sig, &[5; 50]), ex.extract(&sig), "n={n}");
        }
    }

    #[test]
    fn stream_reuse_across_utterances_is_exact() {
        // finish() must clear the pre-emphasis and ring carry so a reused
        // stream starts the next utterance from silence, like the batch path.
        let ex = MfccExtractor::new(small_cfg());
        let a = pseudo_signal(200);
        let b: Vec<f64> = pseudo_signal(150).iter().map(|s| s * -0.3).collect();
        let mut st = StreamingMfcc::default();
        let mut out = FeatureMatrix::default();
        for sig in [&a[..], &b[..], &a[..]] {
            out.reset(0, ex.config().n_cepstra);
            for chunk in sig.chunks(13) {
                st.push(&ex, chunk, &mut out);
            }
            st.finish(&ex, &mut out);
            assert_eq!(out, ex.extract(sig));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_config_rejected() {
        let mut cfg = small_cfg();
        cfg.n_fft = 100;
        MfccExtractor::new(cfg);
    }

    #[test]
    fn feature_matrix_rows_iterator() {
        let m = FeatureMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]], 2);
        let rows: Vec<&[f64]> = m.rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(m.row(1)[1], 4.0);
    }
}

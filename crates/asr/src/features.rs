//! Per-profile feature front end: MFCC + context stacking + subsampling.
//!
//! The stacked representation feeds each frame's MFCCs together with `c`
//! context frames on either side to the acoustic model (GCS-like profiles
//! use wide context, mimicking recurrent memory). Subsampling emits every
//! `s`-th stacked frame (the Kaldi `--frame-subsampling-factor` analogue the
//! paper perturbs in Section III). Both operations are linear, so the
//! backward pass composes exactly with the MFCC adjoint.

use mvp_audio::Waveform;
use mvp_dsp::mfcc::{FeatureMatrix, MfccCache, MfccConfig, MfccExtractor, MfccScratch};

/// Front-end configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEndConfig {
    /// The MFCC pipeline settings.
    pub mfcc: MfccConfig,
    /// Context frames appended on each side (stacked dim = `(2c+1)·n_cepstra`).
    pub context: usize,
    /// Keep every `subsample`-th stacked frame (`1` keeps all).
    pub subsample: usize,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig { mfcc: MfccConfig::default(), context: 1, subsample: 1 }
    }
}

/// Intermediates for the backward pass through the front end.
#[derive(Debug)]
pub struct FrontEndCache {
    mfcc_cache: MfccCache,
    n_mfcc_frames: usize,
}

/// Reusable workspace for [`FeatureFrontEnd::features_into`]: the MFCC
/// scratch plan plus the intermediate (un-stacked) MFCC matrix.
#[derive(Debug, Clone, Default)]
pub struct FrontEndScratch {
    mfcc: MfccScratch,
    mfcc_mat: FeatureMatrix,
}

/// The feature front end of one ASR profile.
#[derive(Debug, Clone)]
pub struct FeatureFrontEnd {
    extractor: MfccExtractor,
    context: usize,
    subsample: usize,
}

impl FeatureFrontEnd {
    /// Builds the front end.
    ///
    /// # Panics
    ///
    /// Panics if `subsample == 0` or the MFCC config is invalid.
    pub fn new(cfg: FrontEndConfig) -> FeatureFrontEnd {
        assert!(cfg.subsample > 0, "subsample factor must be positive");
        FeatureFrontEnd {
            extractor: MfccExtractor::new(cfg.mfcc),
            context: cfg.context,
            subsample: cfg.subsample,
        }
    }

    /// Dimensionality of each stacked feature row.
    pub fn dim(&self) -> usize {
        (2 * self.context + 1) * self.extractor.config().n_cepstra
    }

    /// The underlying MFCC configuration.
    pub fn mfcc_config(&self) -> &MfccConfig {
        self.extractor.config()
    }

    /// The subsampling factor.
    pub fn subsample(&self) -> usize {
        self.subsample
    }

    /// The full configuration this front end was built from
    /// ([`FeatureFrontEnd::new`] on the result reproduces it exactly).
    pub fn config(&self) -> FrontEndConfig {
        FrontEndConfig {
            // mvp-lint: allow(hot-path-alloc) -- one-shot persistence snapshot; reached only through a name-collision with MfccExtractor::config
            mfcc: self.extractor.config().clone(),
            context: self.context,
            subsample: self.subsample,
        }
    }

    /// Sample index at the centre of stacked frame `row` (for aligning
    /// frame labels with synthesizer alignments).
    pub fn frame_center_sample(&self, row: usize) -> usize {
        let cfg = self.extractor.config();
        row * self.subsample * cfg.hop + cfg.frame_len / 2
    }

    /// Extracts stacked features for `wave` — the scratch path of
    /// [`features_into`](Self::features_into) with fresh buffers, so no
    /// backward-pass cache is built and thrown away.
    pub fn features(&self, wave: &Waveform) -> FeatureMatrix {
        let mut out = FeatureMatrix::default();
        self.features_into(wave.samples(), &mut FrontEndScratch::default(), &mut out);
        out
    }

    /// Extracts stacked features into `out`, reusing `scratch` — the batch
    /// path uses this so repeated extraction performs no steady-state
    /// allocation (see `TrainedAsr::transcribe_batch_with`). `samples`
    /// are `f64` or a waveform's raw `f32` samples (see
    /// [`MfccExtractor::extract_into`]).
    pub fn features_into<S: Copy + Into<f64>>(
        &self,
        samples: &[S],
        scratch: &mut FrontEndScratch,
        out: &mut FeatureMatrix,
    ) {
        self.extractor.extract_into(samples, &mut scratch.mfcc, &mut scratch.mfcc_mat);
        self.stack_into(&scratch.mfcc_mat, out);
    }

    /// Extracts stacked features plus the cache needed by
    /// [`backward`](Self::backward) — the white-box attack's entry
    /// point; feature-only callers use [`features`](Self::features).
    pub fn features_with_cache(&self, wave: &Waveform) -> (FeatureMatrix, FrontEndCache) {
        let samples = wave.to_f64();
        let (mfcc, cache) = self.extractor.extract_with_cache(&samples);
        let stacked = self.stack(&mfcc);
        (stacked, FrontEndCache { mfcc_cache: cache, n_mfcc_frames: mfcc.n_frames() })
    }

    fn stack(&self, mfcc: &FeatureMatrix) -> FeatureMatrix {
        let mut out = FeatureMatrix::default();
        self.stack_into(mfcc, &mut out);
        out
    }

    /// Context-stacks and subsamples `mfcc` into `out`, writing each row in
    /// place.
    fn stack_into(&self, mfcc: &FeatureMatrix, out: &mut FeatureMatrix) {
        let n = mfcc.n_frames();
        let dim = (2 * self.context + 1) * mfcc.dim();
        out.reset(n.div_ceil(self.subsample), dim);
        for (i, f) in (0..n).step_by(self.subsample).enumerate() {
            self.stack_row(mfcc, f, n, out.row_mut(i));
        }
    }

    /// Writes the stacked row centred on MFCC frame `f`, clamping context
    /// reads to `[0, n_limit)`. The streaming path only emits a row once
    /// frame `f + context` exists, so its early rows see the same clamp the
    /// batch pass applies against the final frame count.
    fn stack_row(&self, mfcc: &FeatureMatrix, f: usize, n_limit: usize, row: &mut [f64]) {
        let d = mfcc.dim();
        let c = self.context as isize;
        for (oi, o) in (-c..=c).enumerate() {
            let src = (f as isize + o).clamp(0, n_limit as isize - 1) as usize;
            row[oi * d..(oi + 1) * d].copy_from_slice(mfcc.row(src));
        }
    }

    /// Backpropagates a gradient over the stacked features to a gradient
    /// over the waveform samples.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch with the cached forward pass.
    pub fn backward(&self, cache: &FrontEndCache, d_stacked: &FeatureMatrix) -> Vec<f64> {
        let d = self.extractor.config().n_cepstra;
        let n = cache.n_mfcc_frames;
        assert_eq!(d_stacked.dim(), self.dim(), "stacked dim mismatch");
        assert_eq!(
            d_stacked.n_frames(),
            n.div_ceil(self.subsample),
            "stacked frame count mismatch"
        );
        let c = self.context as isize;
        let mut d_mfcc = FeatureMatrix::zeros(n, d);
        for (i, f) in (0..n).step_by(self.subsample).enumerate() {
            let row = d_stacked.row(i);
            for (oi, o) in (-c..=c).enumerate() {
                let src = (f as isize + o).clamp(0, n as isize - 1) as usize;
                let dst = &mut d_mfcc.row_mut(src)[..d];
                for (dv, &g) in dst.iter_mut().zip(&row[oi * d..(oi + 1) * d]) {
                    *dv += g;
                }
            }
        }
        self.extractor.backward(&cache.mfcc_cache, &d_mfcc)
    }
}

/// Incremental face of [`FeatureFrontEnd`]: accepts arbitrary sample
/// chunks and emits each context-stacked, subsampled feature row as soon
/// as its rightmost context frame exists.
///
/// The boundary clamp makes the right edge depend on the final frame
/// count, so stacked row `i` (centre MFCC frame `f = i·subsample`) is
/// emitted once MFCC frame `f + context` is complete;
/// [`finish`](Self::finish) emits the clamped remainder. Output across
/// any chunking is byte-identical to [`FeatureFrontEnd::features_into`].
#[derive(Debug, Clone, Default)]
pub struct FrontEndStream {
    mfcc_stream: mvp_dsp::StreamingMfcc,
    /// Every MFCC row of the utterance so far — the context stacker needs
    /// look-back, and the matrix is bounded by utterance length.
    mfcc_mat: FeatureMatrix,
    /// Next stacked output row to emit.
    next_out: usize,
    row: Vec<f64>,
}

impl FrontEndStream {
    /// Clears carried state for a new utterance, keeping buffer capacity.
    pub fn reset(&mut self) {
        self.mfcc_stream.reset();
        self.mfcc_mat.reset(0, 0);
        self.next_out = 0;
    }

    /// Feeds `chunk` (widened samples) and appends every newly completed
    /// stacked row to `out` via [`FeatureMatrix::push_row`].
    pub fn push(&mut self, fe: &FeatureFrontEnd, chunk: &[f64], out: &mut FeatureMatrix) {
        self.mfcc_stream.push(&fe.extractor, chunk, &mut self.mfcc_mat);
        self.row.resize(fe.dim(), 0.0);
        let n = self.mfcc_mat.n_frames();
        loop {
            let f = self.next_out * fe.subsample;
            if f + fe.context + 1 > n {
                break;
            }
            fe.stack_row(&self.mfcc_mat, f, n, &mut self.row);
            out.push_row(&self.row);
            self.next_out += 1;
        }
    }

    /// Flushes the trailing frames (right-edge context clamped against the
    /// final frame count) and resets for the next utterance. `out` then
    /// holds every row [`FeatureFrontEnd::features_into`] would produce for
    /// the concatenated signal.
    pub fn finish(&mut self, fe: &FeatureFrontEnd, out: &mut FeatureMatrix) {
        self.mfcc_stream.finish(&fe.extractor, &mut self.mfcc_mat);
        self.row.resize(fe.dim(), 0.0);
        let n = self.mfcc_mat.n_frames();
        loop {
            let f = self.next_out * fe.subsample;
            if f >= n {
                break;
            }
            fe.stack_row(&self.mfcc_mat, f, n, &mut self.row);
            out.push_row(&self.row);
            self.next_out += 1;
        }
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_dsp::mfcc::MfccConfig;
    use mvp_dsp::Window;

    fn small_frontend(context: usize, subsample: usize) -> FeatureFrontEnd {
        FeatureFrontEnd::new(FrontEndConfig {
            mfcc: MfccConfig {
                sample_rate: 8_000,
                frame_len: 64,
                hop: 32,
                n_fft: 64,
                n_mels: 8,
                n_cepstra: 5,
                window: Window::Hann,
                f_min: 50.0,
                f_max: 4_000.0,
                pre_emphasis: 0.95,
                // Generous floor keeps the log curvature small enough for
                // finite differences to be trustworthy in the grad check.
                log_floor: 1e-3,
            },
            context,
            subsample,
        })
    }

    fn test_wave(n: usize) -> Waveform {
        Waveform::from_samples(
            (0..n)
                .map(|i| {
                    0.4 * (std::f32::consts::TAU * 500.0 * i as f32 / 8000.0).sin()
                        + 0.1 * (std::f32::consts::TAU * 1700.0 * i as f32 / 8000.0).sin()
                        // Broadband floor so no mel bin sits at zero energy.
                        + 0.03 * (((i * 2654435761) % 997) as f32 / 498.5 - 1.0)
                })
                .collect(),
            8_000,
        )
    }

    #[test]
    fn stacked_dim() {
        assert_eq!(small_frontend(0, 1).dim(), 5);
        assert_eq!(small_frontend(2, 1).dim(), 25);
    }

    #[test]
    fn subsampling_reduces_frames() {
        let w = test_wave(640);
        let full = small_frontend(1, 1).features(&w);
        let sub = small_frontend(1, 3).features(&w);
        assert_eq!(sub.n_frames(), full.n_frames().div_ceil(3));
        // Subsampled rows equal the corresponding full rows.
        assert_eq!(sub.row(1), full.row(3));
    }

    #[test]
    fn context_stacks_neighbours() {
        let w = test_wave(640);
        let flat = small_frontend(0, 1).features(&w);
        let ctx = small_frontend(1, 1).features(&w);
        // Middle block of row f is flat row f; left block is row f-1.
        let f = 3;
        assert_eq!(&ctx.row(f)[5..10], flat.row(f));
        assert_eq!(&ctx.row(f)[0..5], flat.row(f - 1));
        // Edge frames replicate the boundary.
        assert_eq!(&ctx.row(0)[0..5], flat.row(0));
    }

    #[test]
    fn gradient_matches_finite_difference_with_context_and_subsample() {
        let fe = small_frontend(1, 2);
        let w = test_wave(400);
        let (feats, cache) = fe.features_with_cache(&w);
        let weight = |i: usize, j: usize| ((i * 13 + j * 7) % 5) as f64 / 2.0 - 1.0;
        let d_rows: Vec<Vec<f64>> = (0..feats.n_frames())
            .map(|i| (0..feats.dim()).map(|j| weight(i, j)).collect())
            .collect();
        let d = FeatureMatrix::from_rows(d_rows, feats.dim());
        let grad = fe.backward(&cache, &d);
        let loss = |samples: &[f32]| -> f64 {
            let f = fe.features(&Waveform::from_samples(samples.to_vec(), 8_000));
            let mut acc = 0.0;
            for i in 0..f.n_frames() {
                for (j, &v) in f.row(i).iter().enumerate() {
                    acc += weight(i, j) * v;
                }
            }
            acc
        };
        let eps = 1e-4f32;
        for &t in &[0usize, 17, 65, 200, 399] {
            let mut hi = w.samples().to_vec();
            hi[t] += eps;
            let mut lo = w.samples().to_vec();
            lo[t] -= eps;
            // Use the realised f32 step, not the nominal one.
            let actual = (hi[t] as f64) - (lo[t] as f64);
            let fd = (loss(&hi) - loss(&lo)) / actual;
            let rel = (grad[t] - fd).abs() / fd.abs().max(1e-3);
            assert!(rel < 2e-2, "sample {t}: analytic {} vs fd {fd}", grad[t]);
        }
    }

    #[test]
    fn features_into_matches_allocating_path() {
        let fe = small_frontend(1, 2);
        let a = test_wave(640);
        let b = test_wave(400);
        let mut scratch = FrontEndScratch::default();
        let mut out = FeatureMatrix::default();
        for w in [&a, &b, &a] {
            fe.features_into(&w.to_f64(), &mut scratch, &mut out);
            assert_eq!(out, fe.features(w));
        }
    }

    #[test]
    fn front_end_stream_matches_batch_across_chunkings() {
        // Every (context, subsample) combination and chunking must agree
        // byte-for-byte with the batch stacker — the right-edge clamp is
        // the part a naive incremental stacker gets wrong.
        let w = test_wave(700);
        let samples: Vec<f64> = w.to_f64();
        for (ctx, sub) in [(0, 1), (1, 1), (2, 3), (3, 2)] {
            let fe = small_frontend(ctx, sub);
            let reference = fe.features(&w);
            for chunk_len in [1usize, 9, 160, samples.len()] {
                let mut st = FrontEndStream::default();
                let mut out = FeatureMatrix::default();
                for chunk in samples.chunks(chunk_len) {
                    st.push(&fe, chunk, &mut out);
                }
                st.finish(&fe, &mut out);
                assert_eq!(out, reference, "ctx={ctx} sub={sub} chunk={chunk_len}");
            }
        }
    }

    #[test]
    fn front_end_stream_reuse_and_empty_utterance() {
        let fe = small_frontend(2, 2);
        let w = test_wave(500);
        let samples = w.to_f64();
        let mut st = FrontEndStream::default();
        let mut out = FeatureMatrix::default();
        // Empty utterance: no rows, and the stream stays reusable.
        st.finish(&fe, &mut out);
        assert_eq!(out.n_frames(), 0);
        for chunk in samples.chunks(37) {
            st.push(&fe, chunk, &mut out);
        }
        st.finish(&fe, &mut out);
        assert_eq!(out, fe.features(&w));
    }

    #[test]
    #[should_panic(expected = "stacked frame count mismatch")]
    fn backward_rejects_truncated_gradient() {
        // A gradient matrix with fewer rows than the forward pass produced
        // must be rejected, not silently truncated.
        let fe = small_frontend(1, 2);
        let w = test_wave(400);
        let (feats, cache) = fe.features_with_cache(&w);
        assert!(feats.n_frames() > 1);
        let short = FeatureMatrix::zeros(feats.n_frames() - 1, feats.dim());
        fe.backward(&cache, &short);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_subsample_rejected() {
        small_frontend(1, 1); // fine
        FeatureFrontEnd::new(FrontEndConfig { subsample: 0, ..FrontEndConfig::default() });
    }
}

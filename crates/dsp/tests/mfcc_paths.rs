//! MFCC bits are path-independent. The workspace reaches MFCC features
//! three ways — the one-shot extractor (from `f64` or raw `f32` samples,
//! reusing one scratch plan), the gradient-caching pass of the white-box
//! attack, and the streaming extractor under any chunking — and served
//! verdicts equal in-process ones only if all three yield the same bits.

use mvp_dsp::{FeatureMatrix, MfccConfig, MfccExtractor, MfccScratch, StreamingMfcc, Window};
use proptest::prelude::*;

/// Deterministic xorshift stream in `[-1, 1)`.
fn signal(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

fn bits(m: &FeatureMatrix) -> (usize, usize, Vec<u64>) {
    (m.n_rows(), m.n_cols(), m.as_slice().iter().map(|v| v.to_bits()).collect())
}

/// Streams `samples` in chunks of the given lengths (cycled), then
/// flushes.
fn streamed(ex: &MfccExtractor, samples: &[f64], lens: &[usize]) -> FeatureMatrix {
    let mut st = StreamingMfcc::default();
    let mut out = FeatureMatrix::default();
    out.reset(0, ex.config().n_cepstra);
    let mut pos = 0;
    for &len in lens.iter().cycle() {
        if pos >= samples.len() {
            break;
        }
        let end = (pos + len).min(samples.len());
        st.push(ex, &samples[pos..end], &mut out);
        pos = end;
    }
    st.finish(ex, &mut out);
    out
}

const WINDOWS: [Window; 3] = [Window::Hann, Window::Hamming, Window::Rectangular];

proptest! {
    #[test]
    fn mfcc_bits_are_path_independent(
        seed in 0u64..1_000_000,
        n_samples in 0usize..3000,
        log_fft in 1u32..11,
        frame_pick in 0.0f64..1.0,
        hop_pick in 0.0f64..1.0,
        n_mels in 1usize..30,
        window_idx in 0usize..3,
    ) {
        let n_fft = 1usize << log_fft;
        let frame_len = 1 + ((frame_pick * n_fft as f64) as usize).min(n_fft - 1);
        // Hops up to twice the frame length, so some windows skip samples.
        let hop = 1 + (hop_pick * 2.0 * frame_len as f64) as usize;
        let cfg = MfccConfig {
            sample_rate: 16_000,
            frame_len,
            hop,
            n_fft,
            n_mels,
            n_cepstra: 1 + (seed as usize) % n_mels,
            window: WINDOWS[window_idx],
            f_min: 0.0,
            f_max: 8_000.0,
            pre_emphasis: if seed % 2 == 0 { 0.97 } else { 0.0 },
            log_floor: 1e-10,
        };
        let ex = MfccExtractor::new(cfg);
        let samples = signal(seed, n_samples);

        // One-shot extraction, reusing one scratch plan below.
        let mut scratch = MfccScratch::default();
        let mut out = FeatureMatrix::default();
        ex.extract_into(&samples, &mut scratch, &mut out);
        let reference = bits(&out);
        prop_assert_eq!(reference.0, ex.n_frames_for(n_samples));

        // The gradient-caching pass.
        let (cached, _) = ex.extract_with_cache(&samples);
        prop_assert!(bits(&cached) == reference, "extract_with_cache");

        // Raw `f32` samples, widened inside the extractor, against the
        // same samples widened first.
        let raw: Vec<f32> = samples.iter().map(|&v| v as f32).collect();
        let widened: Vec<f64> = raw.iter().map(|&v| f64::from(v)).collect();
        ex.extract_into(&widened, &mut scratch, &mut out);
        let want = bits(&out);
        ex.extract_into(&raw, &mut scratch, &mut out);
        prop_assert!(bits(&out) == want, "f32 samples");

        // Streams: single samples, 60 ms chunks at 16 kHz, and random
        // chunk lengths.
        let random: Vec<usize> = signal(seed ^ 0xC0FFEE, 16)
            .iter()
            .map(|v| 1 + ((v + 1.0) * 600.0) as usize)
            .collect();
        for (name, lens) in [("1-sample", vec![1]), ("960-sample", vec![960]), ("random", random)] {
            let got = streamed(&ex, &samples, &lens);
            prop_assert!(bits(&got) == reference, "{name} chunks");
        }
    }
}

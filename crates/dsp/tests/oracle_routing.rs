//! `force_scalar(true)` routes the batched real FFT onto the full
//! complex oracle, frame by frame, and `force_scalar(false)` routes it
//! back. This file is its own test binary because the switch is
//! process-global.

use mvp_dsp::fft;
use mvp_dsp::kernel::{self, Frames, RfftPlan, RfftScratch};
use mvp_dsp::{Complex, Window};

#[test]
fn force_scalar_routes_forward_frames_to_the_oracle() {
    let (n, len, hop, count) = (512, 400, 160, 11);
    let signal: Vec<f64> =
        (0..(count - 1) * hop + len - 37).map(|i| (i as f64 * 0.731).sin() * 0.4).collect();
    let window = Window::Hann.coefficients(len);
    let frames = Frames { signal: &signal, start: 0, hop, len, count };
    let plan = RfftPlan::new(n);
    let nb = plan.n_bins();
    let mut scratch = RfftScratch::default();
    let run = |scratch: &mut RfftScratch| {
        let mut power = vec![0.0; count * nb];
        let mut spectra = vec![Complex::ZERO; count * nb];
        plan.forward_frames(frames, &window, scratch, Some(&mut power), Some(&mut spectra));
        (power, spectra)
    };

    kernel::force_scalar(true);
    let (power, spectra) = run(&mut scratch);
    kernel::force_scalar(false);
    for f in 0..count {
        let windowed: Vec<f64> = frames.frame(f).iter().zip(&window).map(|(s, w)| s * w).collect();
        let oracle = fft::rfft(&windowed, n);
        for k in 0..nb {
            assert_eq!(spectra[f * nb + k], oracle[k], "frame {f} bin {k}");
            assert_eq!(power[f * nb + k].to_bits(), oracle[k].norm_sq().to_bits());
        }
    }

    // Back on the lane kernel: a different algorithm, so not the
    // oracle's bits everywhere, but within its O(n·ε) bound.
    let (_, lanes) = run(&mut scratch);
    assert_ne!(lanes, spectra, "force_scalar(false) still runs the oracle");
    let tol = 1e-12 * n as f64;
    for (g, w) in lanes.iter().zip(&spectra) {
        assert!((g.re - w.re).abs() <= tol && (g.im - w.im).abs() <= tol, "{g:?} vs {w:?}");
    }
}

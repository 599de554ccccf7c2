//! Short-time Fourier transform and spectrogram computation.
//!
//! The paper's Figure 2 shows the spectrogram as the intermediate between
//! the waveform and the acoustic features; this module exposes it directly
//! for inspection, visualisation and spectral analysis (the MFCC pipeline
//! in [`crate::mfcc`] embeds the same computation).

use crate::frame::frame_count;
use crate::kernel::{Frames, RfftPlan, RfftScratch};
use crate::window::Window;

/// A magnitude or power spectrogram: `n_frames × n_bins` with
/// `n_bins = n_fft / 2 + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    data: Vec<f64>,
    n_frames: usize,
    n_bins: usize,
    /// Hz covered by one bin.
    bin_hz: f64,
}

impl Spectrogram {
    /// Number of analysis frames.
    pub fn n_frames(&self) -> usize {
        self.n_frames
    }

    /// Number of frequency bins.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Width of one frequency bin in Hz.
    pub fn bin_hz(&self) -> f64 {
        self.bin_hz
    }

    /// The spectrum of frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= n_frames`.
    pub fn frame(&self, t: usize) -> &[f64] {
        &self.data[t * self.n_bins..(t + 1) * self.n_bins]
    }

    /// The frequency (Hz) with the most energy in frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= n_frames`.
    pub fn peak_frequency(&self, t: usize) -> f64 {
        let frame = self.frame(t);
        let (idx, _) =
            frame.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty frame");
        idx as f64 * self.bin_hz
    }

    /// Total energy of frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= n_frames`.
    pub fn frame_energy(&self, t: usize) -> f64 {
        self.frame(t).iter().sum()
    }
}

/// Computes the power spectrogram of `samples`.
///
/// # Panics
///
/// Panics if `n_fft` is not a power of two, `frame_len > n_fft`, or
/// `frame_len`/`hop` is zero.
pub fn spectrogram(
    samples: &[f64],
    sample_rate: u32,
    frame_len: usize,
    hop: usize,
    n_fft: usize,
    window: Window,
) -> Spectrogram {
    assert!(n_fft.is_power_of_two(), "n_fft must be a power of two");
    assert!(frame_len <= n_fft, "frame longer than FFT size");
    let coeffs = window.coefficients(frame_len);
    let n_bins = n_fft / 2 + 1;
    let count = frame_count(samples.len(), frame_len, hop);
    let frames = Frames { signal: samples, start: 0, hop, len: frame_len, count };
    let mut data = vec![0.0; count * n_bins];
    RfftPlan::new(n_fft).forward_frames(
        frames,
        &coeffs,
        &mut RfftScratch::default(),
        Some(&mut data),
        None,
    );
    Spectrogram { n_frames: count, n_bins, bin_hz: sample_rate as f64 / n_fft as f64, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(hz: f64, rate: u32, n: usize) -> Vec<f64> {
        (0..n).map(|i| (std::f64::consts::TAU * hz * i as f64 / rate as f64).sin()).collect()
    }

    #[test]
    fn pure_tone_peaks_at_its_frequency() {
        let s = spectrogram(&tone(1000.0, 16_000, 4_000), 16_000, 400, 160, 512, Window::Hann);
        for t in 1..s.n_frames() - 2 {
            let peak = s.peak_frequency(t);
            assert!((peak - 1000.0).abs() < s.bin_hz() * 1.5, "frame {t}: {peak} Hz");
        }
    }

    #[test]
    fn shape_and_bin_width() {
        let s = spectrogram(&vec![0.0; 1600], 16_000, 400, 160, 512, Window::Hann);
        assert_eq!(s.n_bins(), 257);
        assert!((s.bin_hz() - 31.25).abs() < 1e-9);
        assert!(s.n_frames() >= 8);
    }

    #[test]
    fn silence_has_no_energy() {
        let s = spectrogram(&vec![0.0; 800], 8_000, 256, 128, 256, Window::Hamming);
        for t in 0..s.n_frames() {
            assert!(s.frame_energy(t) < 1e-12);
        }
    }

    #[test]
    fn louder_signal_more_energy() {
        let quiet: Vec<f64> = tone(500.0, 8_000, 1_000).iter().map(|v| v * 0.1).collect();
        let loud = tone(500.0, 8_000, 1_000);
        let sq = spectrogram(&quiet, 8_000, 256, 128, 256, Window::Hann);
        let sl = spectrogram(&loud, 8_000, 256, 128, 256, Window::Hann);
        assert!(sl.frame_energy(2) > 50.0 * sq.frame_energy(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_fft_size_rejected() {
        spectrogram(&[0.0; 100], 8_000, 50, 25, 100, Window::Hann);
    }
}

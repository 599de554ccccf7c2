//! The [`Waveform`] container: mono float samples plus sample rate.

/// A mono audio buffer with samples nominally in `[-1, 1]`.
///
/// ```
/// use mvp_audio::Waveform;
/// let w = Waveform::from_samples(vec![0.0, 0.5, -0.5], 16_000);
/// assert_eq!(w.len(), 3);
/// assert!((w.rms() - (1.0f32/6.0).sqrt()).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    samples: Vec<f32>,
    sample_rate: u32,
}

impl Waveform {
    /// An empty waveform at `sample_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0`.
    pub fn new(sample_rate: u32) -> Waveform {
        Waveform::from_samples(Vec::new(), sample_rate)
    }

    /// Wraps existing samples.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0`.
    pub fn from_samples(samples: Vec<f32>, sample_rate: u32) -> Waveform {
        assert!(sample_rate > 0, "sample rate must be positive");
        Waveform { samples, sample_rate }
    }

    /// Builds a waveform from `f64` samples (e.g. an attack perturbation).
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0`.
    pub fn from_f64(samples: &[f64], sample_rate: u32) -> Waveform {
        Waveform::from_samples(samples.iter().map(|&s| s as f32).collect(), sample_rate)
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate as f64
    }

    /// Immutable sample view.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Mutable sample view.
    pub fn samples_mut(&mut self) -> &mut [f32] {
        &mut self.samples
    }

    /// Samples widened to `f64` (the precision the DSP pipeline uses).
    pub fn to_f64(&self) -> Vec<f64> {
        self.samples.iter().map(|&s| s as f64).collect()
    }

    /// Root-mean-square amplitude (0 for an empty buffer).
    pub fn rms(&self) -> f32 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.samples.iter().map(|&s| (s as f64) * (s as f64)).sum();
        (sum / self.samples.len() as f64).sqrt() as f32
    }

    /// Largest absolute sample value.
    pub fn peak(&self) -> f32 {
        self.samples.iter().fold(0.0f32, |m, &s| m.max(s.abs()))
    }

    /// Multiplies every sample by `gain`.
    pub fn scale(&mut self, gain: f32) {
        for s in &mut self.samples {
            *s *= gain;
        }
    }

    /// Clamps every sample into `[-1, 1]`.
    pub fn clamp(&mut self) {
        for s in &mut self.samples {
            *s = s.clamp(-1.0, 1.0);
        }
    }

    /// Adds `other` element-wise (shorter operand is zero-extended).
    ///
    /// # Panics
    ///
    /// Panics if sample rates differ.
    pub fn add(&mut self, other: &Waveform) {
        assert_eq!(self.sample_rate, other.sample_rate, "sample-rate mismatch");
        if other.len() > self.len() {
            self.samples.resize(other.len(), 0.0);
        }
        for (a, &b) in self.samples.iter_mut().zip(&other.samples) {
            *a += b;
        }
    }

    /// Appends the samples of `other`.
    ///
    /// # Panics
    ///
    /// Panics if sample rates differ.
    pub fn append(&mut self, other: &Waveform) {
        assert_eq!(self.sample_rate, other.sample_rate, "sample-rate mismatch");
        self.samples.extend_from_slice(&other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn duration_and_len() {
        let w = Waveform::from_samples(vec![0.0; 8000], 16_000);
        assert!((w.duration_secs() - 0.5).abs() < 1e-12);
        assert!(!w.is_empty());
    }

    #[test]
    fn add_zero_extends() {
        let mut a = Waveform::from_samples(vec![1.0, 1.0], 8_000);
        let b = Waveform::from_samples(vec![0.5, 0.5, 0.5], 8_000);
        a.add(&b);
        assert_eq!(a.samples(), &[1.5, 1.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "sample-rate mismatch")]
    fn add_rate_mismatch_panics() {
        let mut a = Waveform::new(8_000);
        a.add(&Waveform::new(16_000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        Waveform::new(0);
    }

    #[test]
    fn clamp_bounds_samples() {
        let mut w = Waveform::from_samples(vec![2.0, -3.0, 0.25], 8_000);
        w.clamp();
        assert_eq!(w.samples(), &[1.0, -1.0, 0.25]);
    }

    proptest! {
        #[test]
        fn rms_le_peak(samples in proptest::collection::vec(-1.0f32..1.0, 1..64)) {
            let w = Waveform::from_samples(samples, 16_000);
            prop_assert!(w.rms() <= w.peak() + 1e-6);
        }

        #[test]
        fn scale_scales_rms(samples in proptest::collection::vec(-1.0f32..1.0, 1..64), g in 0.1f32..4.0) {
            let w = Waveform::from_samples(samples, 16_000);
            let before = w.rms();
            let mut scaled = w.clone();
            scaled.scale(g);
            prop_assert!((scaled.rms() - before * g).abs() < 1e-3);
        }
    }
}

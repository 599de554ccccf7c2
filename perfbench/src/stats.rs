//! Order statistics with the benchmark's tail rule: a percentile is only
//! reported when enough samples lie beyond it to make it a measurement
//! rather than the single slowest request.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile of `sorted` (ascending) by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    // The epsilon keeps `q · n` that should be an integer (0.99 · 1000)
    // from rounding up past it.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail latency of `sorted` under the [`TAIL_SAMPLES`] rule:
/// `(q, value)` for the highest percentile `q` at most `want` that keeps
/// at least [`TAIL_SAMPLES`] samples strictly above its nearest-rank
/// position, or `None` when even the median cannot.
pub fn tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    // Nearest rank r leaves n - r samples beyond; r = ceil(q·n) ≤ n - TAIL.
    let q = ((n - TAIL_SAMPLES) as f64 / n as f64).min(want);
    Some((q, quantile(sorted, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(sorted: &[f64], value: f64) -> usize {
        sorted.iter().filter(|&&v| v > value).count()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (q, v) = tail(&big, 0.99).unwrap();
        assert_eq!(q, 0.99);
        assert_eq!(v, 1980.0);
        assert!(beyond(&big, v) >= TAIL_SAMPLES);
        let exact: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&exact, 0.99).unwrap().0, 0.99);
        assert_eq!(beyond(&exact, tail(&exact, 0.99).unwrap().1), 10);
    }

    #[test]
    fn short_runs_fall_back_to_the_highest_supported_percentile() {
        for n in [20usize, 57, 300, 999] {
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (q, v) = tail(&sorted, 0.99).unwrap();
            assert!(q < 0.99, "n = {n}");
            assert_eq!(beyond(&sorted, v), TAIL_SAMPLES, "n = {n}");
        }
        assert!(tail(&[1.0; 19], 0.99).is_none());
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
    }
}

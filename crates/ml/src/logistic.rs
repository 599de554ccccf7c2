//! L2-regularised logistic regression.
//!
//! Carlini et al.'s hidden-voice-command defense (the paper's ref. \[60\])
//! uses a logistic-regression classifier; it is provided here both for that
//! comparison and as a calibrated-probability alternative to the SVM.

use crate::dataset::Dataset;
use crate::Classifier;
use mvp_dsp::kernel;

/// Binary logistic regression trained with batch gradient descent.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    learning_rate: f64,
    l2: f64,
    epochs: usize,
    trained: bool,
}

impl LogisticRegression {
    /// An untrained model with sensible defaults (lr 0.5, l2 1e-4,
    /// 300 epochs — the feature spaces here are tiny).
    pub fn new() -> LogisticRegression {
        LogisticRegression {
            weights: Vec::new(),
            bias: 0.0,
            learning_rate: 0.5,
            l2: 1e-4,
            epochs: 300,
            trained: false,
        }
    }

    /// Probability that `x` is class 1.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or `x` has the wrong dimension.
    pub fn probability(&self, x: &[f64]) -> f64 {
        assert!(self.trained, "logistic regression not fitted");
        assert_eq!(x.len(), self.weights.len(), "dimension mismatch");
        let z = self.bias + kernel::dot(&self.weights, x);
        1.0 / (1.0 + (-z).exp())
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression::new()
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "empty training set");
        let n = data.len() as f64;
        let d = data.dim();
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        for _ in 0..self.epochs {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (x, &y) in data.features().rows().zip(data.labels()) {
                let z = self.bias + kernel::dot(&self.weights, x);
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - y as f64;
                gb += err;
                kernel::axpy(&mut gw, err, x);
            }
            for (w, g) in self.weights.iter_mut().zip(&gw) {
                *w -= self.learning_rate * (g / n + self.l2 * *w);
            }
            self.bias -= self.learning_rate * gb / n;
        }
        self.trained = true;
    }

    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.probability(x) > 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_dsp::Mat;

    fn separable() -> Dataset {
        Dataset::from_classes(
            Mat::from_rows((0..30).map(|i| vec![0.85 + (i % 10) as f64 * 0.01]).collect(), 1),
            Mat::from_rows((0..30).map(|i| vec![0.2 + (i % 10) as f64 * 0.01]).collect(), 1),
        )
    }

    #[test]
    fn separates_score_clusters() {
        let mut lr = LogisticRegression::new();
        lr.fit(&separable());
        assert_eq!(lr.predict(&[0.9]), 0);
        assert_eq!(lr.predict(&[0.15]), 1);
    }

    #[test]
    fn probabilities_are_monotone_in_score() {
        let mut lr = LogisticRegression::new();
        lr.fit(&separable());
        // Lower similarity -> higher AE probability.
        assert!(lr.probability(&[0.1]) > lr.probability(&[0.5]));
        assert!(lr.probability(&[0.5]) > lr.probability(&[0.95]));
        let p = lr.probability(&[0.5]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn multidimensional_fit() {
        let data = Dataset::from_classes(
            Mat::from_rows((0..20).map(|i| vec![0.9, 0.9 - (i % 4) as f64 * 0.01]).collect(), 2),
            Mat::from_rows((0..20).map(|i| vec![0.3, 0.2 + (i % 4) as f64 * 0.01]).collect(), 2),
        );
        let mut lr = LogisticRegression::new();
        lr.fit(&data);
        assert_eq!(lr.predict(&[0.92, 0.88]), 0);
        assert_eq!(lr.predict(&[0.25, 0.3]), 1);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        LogisticRegression::new().probability(&[0.5]);
    }
}

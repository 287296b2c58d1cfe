//! Error statistics: the medians and percentiles the paper reports.
//!
//! Every evaluation figure quotes medians, 10th/90th/99th percentiles,
//! or full CDFs of localization error; this module provides those
//! computations with the interpolation convention fixed in one place.

/// Summary statistics over a sample of errors (or any scalar metric).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorStats {
    sorted: Vec<f64>,
}

impl ErrorStats {
    /// Builds from raw samples; NaNs are rejected.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "statistics need at least one sample");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample in statistics"
        );
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    #[expect(clippy::expect_used, reason = "new() asserts at least one sample")]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// The empirical CDF as `(value, probability)` pairs, one per
    /// sample — directly plottable like Figs. 9, 10 and 12.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// Fraction of samples at or below `threshold`.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        let count = self.sorted.iter().filter(|&&v| v <= threshold).count();
        count as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_sample() {
        let s = ErrorStats::new(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert!((s.quantile(0.9) - 4.6).abs() < 1e-12);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn single_sample_statistics() {
        let s = ErrorStats::new(vec![0.19]);
        assert_eq!(s.median(), 0.19);
        assert_eq!(s.quantile(0.9), 0.19);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let s = ErrorStats::new(vec![0.3, 0.1, 0.2, 0.4]);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn fraction_below_threshold() {
        let s = ErrorStats::new(vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(s.fraction_below(0.25), 0.5);
        assert_eq!(s.fraction_below(1.0), 1.0);
        assert_eq!(s.fraction_below(0.05), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_rejected() {
        let _ = ErrorStats::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = ErrorStats::new(vec![1.0, f64::NAN]);
    }
}

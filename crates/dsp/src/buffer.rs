//! Helpers for slices of IQ samples.
//!
//! Power measurement and element-wise summing of sample buffers.

use crate::complex::Complex;

/// Mean power of a sample slice (mean of |x|²). Returns 0 for empty input.
pub fn mean_power(samples: &[Complex]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.norm_sq()).sum::<f64>() / samples.len() as f64
}

/// Element-wise sum of two equal-length buffers into a new vector.
///
/// Panics if lengths differ: summing misaligned streams is always a bug
/// in the caller (signals must share a time base).
pub fn add(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    assert_eq!(a.len(), b.len(), "cannot add misaligned sample buffers");
    a.iter().zip(b).map(|(x, y)| *x + *y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{Complex, ONE, ZERO};

    #[test]
    fn mean_power_averages_norm_sq() {
        let buf = vec![Complex::new(3.0, 4.0), ZERO, ONE, ONE];
        assert_eq!(mean_power(&buf), 27.0 / 4.0);
    }

    #[test]
    fn empty_buffers_are_silent() {
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn add_sums_elementwise() {
        let a = vec![ONE; 3];
        let b = vec![Complex::new(0.0, 1.0); 3];
        let s = add(&a, &b);
        assert!(s.iter().all(|z| *z == Complex::new(1.0, 1.0)));
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn add_rejects_mismatched_lengths() {
        let _ = add(&[ONE], &[ONE, ONE]);
    }
}

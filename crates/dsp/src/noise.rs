//! Additive white Gaussian noise generation.
//!
//! Every receiver in the simulation sees thermal noise; localization
//! error growing with distance (Fig. 14 of the paper) is entirely an SNR
//! effect, so noise power bookkeeping must be exact.

use crate::rng::Rng;

use crate::complex::Complex;
use crate::osc::standard_normal;

/// Generates `n` samples of circularly-symmetric complex Gaussian noise
/// with total (two-sided) mean power `power` (linear).
///
/// Each of I and Q carries `power/2`, so `E[|x|²] = power`.
pub fn awgn<R: Rng>(rng: &mut R, n: usize, power: f64) -> Vec<Complex> {
    assert!(power >= 0.0, "noise power cannot be negative");
    let sigma = (power / 2.0).sqrt();
    (0..n)
        .map(|_| Complex::new(sigma * standard_normal(rng), sigma * standard_normal(rng)))
        .collect()
}

/// Adds complex Gaussian noise of mean power `power` to `signal` in
/// place.
pub fn add_awgn<R: Rng>(rng: &mut R, signal: &mut [Complex], power: f64) {
    assert!(power >= 0.0, "noise power cannot be negative");
    let sigma = (power / 2.0).sqrt();
    for s in signal.iter_mut() {
        *s += Complex::new(sigma * standard_normal(rng), sigma * standard_normal(rng));
    }
}

/// Draws one circularly-symmetric complex Gaussian sample with mean
/// power `power`.
pub fn noise_sample<R: Rng>(rng: &mut R, power: f64) -> Complex {
    let sigma = (power / 2.0).sqrt();
    Complex::new(sigma * standard_normal(rng), sigma * standard_normal(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::mean_power;

    fn rng() -> crate::rng::StdRng {
        crate::rng::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn awgn_power_is_calibrated() {
        let mut r = rng();
        let x = awgn(&mut r, 100_000, 0.25);
        let p = mean_power(&x);
        assert!((p - 0.25).abs() / 0.25 < 0.03, "p = {p}");
    }

    #[test]
    fn awgn_is_circularly_symmetric() {
        let mut r = rng();
        let x = awgn(&mut r, 100_000, 1.0);
        let i_pow: f64 = x.iter().map(|s| s.re * s.re).sum::<f64>() / x.len() as f64;
        let q_pow: f64 = x.iter().map(|s| s.im * s.im).sum::<f64>() / x.len() as f64;
        assert!((i_pow - 0.5).abs() < 0.02);
        assert!((q_pow - 0.5).abs() < 0.02);
        // I/Q uncorrelated.
        let cross: f64 = x.iter().map(|s| s.re * s.im).sum::<f64>() / x.len() as f64;
        assert!(cross.abs() < 0.02);
    }

    #[test]
    fn zero_power_noise_is_silent() {
        let mut r = rng();
        let x = awgn(&mut r, 100, 0.0);
        assert!(x.iter().all(|s| s.norm_sq() == 0.0));
    }

    #[test]
    fn noise_sample_statistics() {
        let mut r = rng();
        let p: f64 = (0..50_000)
            .map(|_| noise_sample(&mut r, 2.0).norm_sq())
            .sum::<f64>()
            / 50_000.0;
        assert!((p - 2.0).abs() < 0.1, "p = {p}");
    }
}

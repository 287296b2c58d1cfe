//! Goertzel single-bin DFT.
//!
//! Fig. 9 of the paper reports isolation as power measured by a spectrum
//! analyzer at one specific frequency (the probe tone ±50 kHz or
//! ±500 kHz). The Goertzel algorithm computes exactly that — the DFT at a
//! single frequency — in O(N) without the power-of-two restriction, and is
//! also the workhorse of the relay's streaming frequency-discovery
//! correlator (Eq. 5 is precisely a Goertzel bank).

use crate::complex::Complex;
use crate::units::{Db, Hertz};

/// Computes the normalized DFT coefficient of `samples` at `freq`
/// (i.e. `(1/N) Σ x[n]·e^{−j2πfn/fs}`).
///
/// For an input containing a unit-amplitude complex tone exactly at
/// `freq`, the result has magnitude 1 regardless of length.
pub fn goertzel(samples: &[Complex], freq: Hertz, sample_rate: f64) -> Complex {
    assert!(!samples.is_empty(), "cannot analyze an empty buffer");
    let w = std::f64::consts::TAU * freq.as_hz() / sample_rate;
    let rot = Complex::cis(-w);
    let mut phasor = Complex::from_re(1.0);
    let mut acc = Complex::default();
    for &x in samples {
        acc += x * phasor;
        phasor *= rot;
    }
    acc / samples.len() as f64
}

/// Power at a single frequency, in dB relative to unit power.
pub fn power_at(samples: &[Complex], freq: Hertz, sample_rate: f64) -> Db {
    Db::from_linear(goertzel(samples, freq, sample_rate).norm_sq())
}

/// Power at a single frequency measured through a Hann window, in dB.
///
/// A rectangular window's spectral leakage floors around −80 dB a few
/// thousand bins from a strong tone — not good enough when measuring a
/// −110 dB leak next to a +30 dB forwarded signal (the Fig. 9 isolation
/// probes). The Hann window trades a 2× wider mainlobe for fast sidelobe
/// rolloff; the result is normalized by the window's coherent gain so a
/// unit tone still reads 0 dB.
pub fn windowed_power_at(samples: &[Complex], freq: Hertz, sample_rate: f64) -> Db {
    assert!(!samples.is_empty(), "cannot analyze an empty buffer");
    let n = samples.len();
    let w = std::f64::consts::TAU * freq.as_hz() / sample_rate;
    let rot = Complex::cis(-w);
    let mut phasor = Complex::from_re(1.0);
    let mut acc = Complex::default();
    let mut win_sum = 0.0;
    for (i, &x) in samples.iter().enumerate() {
        let win = 0.5 - 0.5 * (std::f64::consts::TAU * i as f64 / (n - 1).max(1) as f64).cos();
        acc += x * phasor * win;
        win_sum += win;
        phasor *= rot;
    }
    Db::from_linear((acc / win_sum).norm_sq())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::Nco;

    const FS: f64 = 1e6;

    #[test]
    fn unit_tone_measures_zero_db() {
        let x = Nco::new(Hertz::khz(125.0), FS).block(1000);
        let p = power_at(&x, Hertz::khz(125.0), FS);
        assert!(p.value().abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn off_bin_tone_is_attenuated() {
        let x = Nco::new(Hertz::khz(125.0), FS).block(1000);
        // 50 kHz away over 1000 samples: far outside the correlation
        // mainlobe (width fs/N = 1 kHz).
        let p = power_at(&x, Hertz::khz(175.0), FS);
        assert!(p.value() < -25.0, "p = {p}");
    }

    #[test]
    fn goertzel_matches_direct_dft_phase() {
        let mut nco = Nco::with_phase(Hertz::khz(50.0), FS, 0.7);
        let x = nco.block(2000);
        let g = goertzel(&x, Hertz::khz(50.0), FS);
        assert!((g.arg() - 0.7).abs() < 1e-9, "phase = {}", g.arg());
        assert!((g.abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn amplitude_scales_power_by_square() {
        let x: Vec<Complex> = Nco::new(Hertz::khz(10.0), FS)
            .block(500)
            .into_iter()
            .map(|s| s * 0.1)
            .collect();
        let p = power_at(&x, Hertz::khz(10.0), FS);
        assert!((p.value() + 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_buffer_rejected() {
        let _ = goertzel(&[], Hertz::khz(1.0), FS);
    }
}

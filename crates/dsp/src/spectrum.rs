//! Power spectral density estimation (Welch's method).
//!
//! Used to reproduce Fig. 4 of the paper: the overlaid PSDs of the
//! reader's PIE query and the tag's FM0 backscatter response, showing
//! the guard band that makes the relay's baseband filtering possible.

use crate::complex::Complex;
use crate::fft::{bin_frequency, fft_in_place, fft_shift};
use crate::filter::window::Window;
use crate::units::{Db, Hertz};

/// A two-sided power spectral density estimate.
#[derive(Debug, Clone)]
pub struct Psd {
    /// Bin center frequencies in Hz, ascending (negative to positive).
    pub freqs: Vec<f64>,
    /// Power per bin (linear, relative).
    pub power: Vec<f64>,
}

impl Psd {
    /// Power at the bin nearest to `freq`, in dB relative to the peak
    /// bin. Useful for guard-band depth measurements.
    pub fn relative_db_at(&self, freq: Hertz) -> Db {
        let freq_hz = freq.as_hz();
        let peak = self.power.iter().cloned().fold(f64::MIN, f64::max);
        #[expect(
            clippy::expect_used,
            reason = "welch_psd builds one bin per FFT point, and a power-of-two segment has at least one"
        )]
        let idx = self
            .freqs
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - freq_hz).abs().total_cmp(&(b.1 - freq_hz).abs()))
            .map(|(i, _)| i)
            .expect("PSD has at least one bin");
        Db::from_linear(self.power[idx] / peak)
    }

    /// Total power integrated over bins whose center lies in
    /// `[lo_hz, hi_hz]` (linear).
    pub fn band_power(&self, lo: Hertz, hi: Hertz) -> f64 {
        let (lo_hz, hi_hz) = (lo.as_hz(), hi.as_hz());
        self.freqs
            .iter()
            .zip(&self.power)
            .filter(|(f, _)| **f >= lo_hz && **f <= hi_hz)
            .map(|(_, p)| *p)
            .sum()
    }

    /// The fraction of total power contained in `[lo_hz, hi_hz]`.
    pub fn band_power_fraction(&self, lo: Hertz, hi: Hertz) -> f64 {
        let total: f64 = self.power.iter().sum();
        if total == 0.0 {
            0.0
        } else {
            self.band_power(lo, hi) / total
        }
    }

    /// Smallest symmetric band `[-b, +b]` (Hz) containing `fraction` of
    /// the total power — the "occupied bandwidth" used to verify the
    /// paper's 125 kHz query / 640 kHz BLF numbers.
    pub fn occupied_bandwidth(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction));
        let total: f64 = self.power.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        // Grow the band outward from DC bin by bin.
        let mut candidates: Vec<f64> = self.freqs.iter().map(|f| f.abs()).collect();
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();
        for b in candidates {
            if self.band_power(Hertz(-b), Hertz(b)) / total >= fraction {
                return b;
            }
        }
        *candidates_last(&self.freqs)
    }
}

#[expect(
    clippy::expect_used,
    reason = "welch_psd builds one bin per FFT point, and a power-of-two segment has at least one"
)]
fn candidates_last(freqs: &[f64]) -> &f64 {
    freqs.last().expect("PSD has at least one bin")
}

/// Welch PSD estimate: `segment_len`-point segments (power of two),
/// 50 % overlap, Hann window, averaged periodograms, two-sided output
/// centered on DC.
pub fn welch_psd(samples: &[Complex], segment_len: usize, sample_rate: f64) -> Psd {
    assert!(
        crate::fft::is_power_of_two(segment_len),
        "segment length must be a power of two"
    );
    assert!(
        samples.len() >= segment_len,
        "need at least one full segment ({segment_len} samples)"
    );
    let window = Window::Hann.build(segment_len);
    let win_power: f64 = window.iter().map(|w| w * w).sum::<f64>() / segment_len as f64;
    let hop = segment_len / 2;

    let mut acc = vec![0.0f64; segment_len];
    let mut count = 0usize;
    let mut start = 0usize;
    while start + segment_len <= samples.len() {
        let mut seg: Vec<Complex> = samples[start..start + segment_len]
            .iter()
            .zip(&window)
            .map(|(s, w)| *s * *w)
            .collect();
        fft_in_place(&mut seg);
        for (a, s) in acc.iter_mut().zip(&seg) {
            *a += s.norm_sq();
        }
        count += 1;
        start += hop;
    }

    let norm = (count as f64) * (segment_len as f64).powi(2) * win_power;
    let power: Vec<f64> = acc.iter().map(|p| p / norm).collect();
    let freqs: Vec<f64> = (0..segment_len)
        .map(|k| bin_frequency(k, segment_len, sample_rate))
        .collect();

    Psd {
        freqs: fft_shift(&freqs),
        power: fft_shift(&power),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::awgn;
    use crate::osc::Nco;
    use crate::units::Hertz;

    const FS: f64 = 4e6;

    /// The frequency of the strongest bin, Hz.
    fn peak_hz(psd: &Psd) -> f64 {
        let idx = (0..psd.power.len())
            .max_by(|&a, &b| psd.power[a].total_cmp(&psd.power[b]))
            .unwrap();
        psd.freqs[idx]
    }

    #[test]
    fn tone_peak_at_right_frequency() {
        let x = Nco::new(Hertz::khz(500.0), FS).block(16384);
        let psd = welch_psd(&x, 1024, FS);
        assert!((peak_hz(&psd) - 500e3).abs() < FS / 1024.0);
    }

    #[test]
    fn negative_tone_resolved_two_sided() {
        let x = Nco::new(Hertz::khz(-300.0), FS).block(16384);
        let psd = welch_psd(&x, 1024, FS);
        assert!((peak_hz(&psd) + 300e3).abs() < FS / 1024.0);
    }

    #[test]
    fn freqs_are_ascending() {
        let x = Nco::new(Hertz::khz(1.0), FS).block(2048);
        let psd = welch_psd(&x, 512, FS);
        for w in psd.freqs.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(psd.freqs.len(), 512);
    }

    #[test]
    fn relative_db_of_peak_is_zero() {
        let x = Nco::new(Hertz::khz(250.0), FS).block(8192);
        let psd = welch_psd(&x, 1024, FS);
        assert!(psd.relative_db_at(Hertz(250e3)).value().abs() < 0.5);
        // Far away from the tone: deep below peak.
        assert!(psd.relative_db_at(Hertz(-1.5e6)).value() < -50.0);
    }

    #[test]
    fn band_power_fraction_concentrates_on_tone() {
        let x = Nco::new(Hertz::khz(100.0), FS).block(8192);
        let psd = welch_psd(&x, 1024, FS);
        let frac = psd.band_power_fraction(Hertz(50e3), Hertz(150e3));
        assert!(frac > 0.98, "frac = {frac}");
    }

    #[test]
    fn occupied_bandwidth_of_narrow_tone_is_small() {
        let x = Nco::new(Hertz::khz(50.0), FS).block(16384);
        let psd = welch_psd(&x, 2048, FS);
        let bw = psd.occupied_bandwidth(0.99);
        assert!(bw < 80e3, "bw = {bw}");
    }

    #[test]
    fn white_noise_psd_is_flat() {
        let mut rng = crate::rng::StdRng::seed_from_u64(3);
        let x = awgn(&mut rng, 65536, 1.0);
        let psd = welch_psd(&x, 256, FS);
        let mean: f64 = psd.power.iter().sum::<f64>() / psd.power.len() as f64;
        for p in &psd.power {
            assert!(
                (*p / mean) < 2.0 && (*p / mean) > 0.4,
                "noise PSD bin deviates: ratio {}",
                p / mean
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_segment_length() {
        let x = Nco::new(Hertz::khz(1.0), FS).block(2048);
        let _ = welch_psd(&x, 300, FS);
    }
}

//! Coherent backscatter decoding and channel estimation.
//!
//! The receive chain implements what the paper's USRP reader does
//! (§6.3): after DC cancellation (removing the carrier and all static
//! clutter), it correlates against the FM0 preamble to find the
//! reply and — crucially — to estimate the *complex channel* `h` of the
//! reply. That per-read `h` is the raw material of Eqs. 7–12: its phase
//! is what the relay must preserve and what the SAR localizer consumes.

use std::fmt;

use rfly_dsp::units::Db;
use rfly_dsp::Complex;
use rfly_protocol::bits::Bits;
use rfly_protocol::fm0;

/// A successfully decoded backscatter reply.
#[derive(Debug, Clone)]
pub struct DecodedReply {
    /// The payload bits.
    pub bits: Bits,
    /// Least-squares complex channel estimate of the reply.
    pub channel: Complex,
    /// Post-fit SNR estimate (signal power over residual power).
    pub snr: Db,
    /// Sample index where payload data begins.
    pub data_start: usize,
}

/// Why a capture failed to decode. Every variant is an expected outcome
/// under noise, fading, or fault injection — a decode miss, never a
/// panic — but the distinctions matter to the supervisor deciding
/// whether to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The capture holds no samples at all (e.g. a fault-truncated
    /// burst).
    EmptyCapture,
    /// The capture is shorter than preamble + expected data.
    CaptureTooShort {
        /// Samples captured.
        got: usize,
        /// Samples needed for preamble + data.
        need: usize,
    },
    /// Preamble correlation found no energy anywhere in the capture.
    NoPreamble,
    /// The line-code data decoder rejected the symbol stream.
    DataDecodeFailed,
    /// The least-squares channel fit was degenerate (zero modulation
    /// energy in the reply window).
    DegenerateReply,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::EmptyCapture => write!(f, "empty capture"),
            DecodeError::CaptureTooShort { got, need } => {
                write!(f, "capture too short: {got} samples, need {need}")
            }
            DecodeError::NoPreamble => write!(f, "no preamble found"),
            DecodeError::DataDecodeFailed => write!(f, "data symbols undecodable"),
            DecodeError::DegenerateReply => write!(f, "degenerate reply window"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes one FM0 backscatter reply from a raw complex capture that
/// may contain carrier, clutter, the reply, and noise.
pub fn decode_backscatter(
    samples: &[Complex],
    trext: bool,
    samples_per_symbol: usize,
    n_bits: usize,
) -> Result<DecodedReply, DecodeError> {
    if samples.is_empty() {
        return Err(DecodeError::EmptyCapture);
    }
    let template01 = fm0::preamble_waveform(trext, samples_per_symbol);
    let data_len = n_bits * samples_per_symbol;
    if samples.len() < template01.len() + data_len {
        return Err(DecodeError::CaptureTooShort {
            got: samples.len(),
            need: template01.len() + data_len,
        });
    }

    // DC cancellation: the carrier and static reflections form a
    // constant at baseband; the tag's information is in the deviation.
    let mean: Complex = samples.iter().sum::<Complex>() / samples.len() as f64;
    let y: Vec<Complex> = samples.iter().map(|&s| s - mean).collect();

    // Preamble search: complex correlation against the ±1 template.
    let t_pm: Vec<f64> = template01.iter().map(|&v| 2.0 * v - 1.0).collect();
    let max_lag = y.len() - template01.len() - data_len + 1;
    let mut best_lag = 0usize;
    let mut best_corr = Complex::default();
    for lag in 0..max_lag {
        let mut acc = Complex::default();
        for (i, &t) in t_pm.iter().enumerate() {
            acc += y[lag + i] * t;
        }
        if acc.norm_sq() > best_corr.norm_sq() {
            best_corr = acc;
            best_lag = lag;
        }
    }
    if best_corr.norm_sq() == 0.0 {
        return Err(DecodeError::NoPreamble);
    }
    // y ≈ h·(s − ½) and t = 2s − 1 ⇒ Σ y·t = h·N/2 over the preamble.
    let h_coarse = best_corr * (2.0 / t_pm.len() as f64);
    let data_start = best_lag + template01.len();

    // Project onto the channel direction and decode.
    let h_unit = h_coarse.normalize();
    let projected: Vec<f64> = y[data_start..data_start + data_len]
        .iter()
        .map(|&s| (s * h_unit.conj()).re)
        .collect();
    let bits = fm0::decode_data(
        &projected,
        samples_per_symbol,
        fm0::LAST_PREAMBLE_HALF,
        n_bits,
    )
    .ok_or(DecodeError::DataDecodeFailed)?;

    // Refine the channel by least squares over the *entire* reply
    // (preamble + data), now that the bits are known.
    let levels01 = fm0::encode_reply(&bits, trext, samples_per_symbol);
    let reply_len = levels01.len().min(y.len() - best_lag);
    let window = &y[best_lag..best_lag + reply_len];
    // Two-parameter LS fit `window ≈ h·s̃ + d`: the global DC removal
    // used the whole capture's mean, so the reply window retains a
    // residual offset d that must be fit jointly (s̃ is the zero-mean
    // modulation, making the two estimates decouple).
    let s_mean: f64 = levels01[..reply_len].iter().sum::<f64>() / reply_len as f64;
    let w_mean: Complex = window.iter().sum::<Complex>() / reply_len as f64;
    let mut num = Complex::default();
    let mut den = 0.0;
    for (i, &s) in levels01[..reply_len].iter().enumerate() {
        let st = s - s_mean;
        num += (window[i] - w_mean) * st;
        den += st * st;
    }
    if den == 0.0 {
        return Err(DecodeError::DegenerateReply);
    }
    let h = num / den;

    // Residual-based SNR.
    let mut sig_pow = 0.0;
    let mut res_pow = 0.0;
    for (i, &s) in levels01[..reply_len].iter().enumerate() {
        let model = h * (s - s_mean);
        sig_pow += model.norm_sq();
        res_pow += (window[i] - w_mean - model).norm_sq();
    }
    let snr = if res_pow > 0.0 {
        Db::from_linear(sig_pow / res_pow)
    } else {
        Db::new(f64::INFINITY)
    };

    Ok(DecodedReply {
        bits,
        channel: h,
        snr,
        data_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::noise::add_awgn;

    const SPS: usize = 8;

    /// Builds a synthetic capture: CW + h·backscatter(payload) + noise.
    fn capture(
        payload: &str,
        h: Complex,
        trext: bool,
        noise_power: f64,
        seed: u64,
    ) -> (Bits, Vec<Complex>) {
        let bits = Bits::from_str01(payload);
        let levels = fm0::encode_reply(&bits, trext, SPS);
        let mut samples = vec![Complex::from_re(1.0); 300 + levels.len() + 100];
        for (i, &l) in levels.iter().enumerate() {
            samples[300 + i] += h * l;
        }
        if noise_power > 0.0 {
            let mut rng = rfly_dsp::rng::StdRng::seed_from_u64(seed);
            add_awgn(&mut rng, &mut samples, noise_power);
        }
        (bits, samples)
    }

    #[test]
    fn clean_decode_recovers_bits_and_channel() -> Result<(), DecodeError> {
        let h = Complex::from_polar(0.02, 1.234);
        let (bits, samples) = capture("1011001110001111", h, false, 0.0, 0);
        let d = decode_backscatter(&samples, false, SPS, 16)?;
        assert_eq!(d.bits, bits);
        assert!(
            rfly_dsp::complex::phase_distance(d.channel.arg(), h.arg()) < 0.02,
            "phase error {}",
            rfly_dsp::complex::phase_distance(d.channel.arg(), h.arg())
        );
        assert!((d.channel.abs() - h.abs()).abs() / h.abs() < 0.05);
        assert!(d.snr.value() > 30.0);
        Ok(())
    }

    #[test]
    fn noisy_decode_still_works_at_moderate_snr() -> Result<(), DecodeError> {
        let h = Complex::from_polar(0.05, -0.7);
        // Per-sample SNR of the differential signal ≈ (0.05/2)²/noise.
        let noise = 2e-5; // ≈ 15 dB per-sample on the ±h/2 signal
        let (bits, samples) = capture("1100101001011100", h, true, noise, 42);
        let d = decode_backscatter(&samples, true, SPS, 16)?;
        assert_eq!(d.bits, bits);
        assert!(rfly_dsp::complex::phase_distance(d.channel.arg(), h.arg()) < 0.1);
        Ok(())
    }

    #[test]
    fn phase_estimate_tracks_channel_rotation() -> Result<(), DecodeError> {
        // The property localization depends on: rotating the channel
        // rotates the estimate 1:1.
        let mut prev = None;
        for k in 0..8 {
            let phase = k as f64 * std::f64::consts::FRAC_PI_4 - std::f64::consts::PI;
            let h = Complex::from_polar(0.03, phase);
            let (_, samples) = capture("1010110010101100", h, false, 0.0, 0);
            let d = decode_backscatter(&samples, false, SPS, 16)?;
            if let Some(p) = prev {
                let delta = rfly_dsp::complex::wrap_phase(d.channel.arg() - p);
                assert!(
                    (delta - std::f64::consts::FRAC_PI_4).abs() < 0.02,
                    "step {k}: delta {delta}"
                );
            }
            prev = Some(d.channel.arg());
        }
        Ok(())
    }

    #[test]
    fn pure_noise_rejected() {
        let mut rng = rfly_dsp::rng::StdRng::seed_from_u64(5);
        let mut samples = vec![Complex::from_re(1.0); 2048];
        add_awgn(&mut rng, &mut samples, 1e-4);
        // No reply present: either correlation finds nothing decodable
        // or decode_data's inversion rule trips.
        let d = decode_backscatter(&samples, false, SPS, 16);
        assert!(d.is_err(), "noise must not decode as a reply");
    }

    /// A 128-bit EPC reply's capture, as a fault-truncated uplink
    /// burst would cut it short.
    fn epc_capture() -> Vec<Complex> {
        let h = Complex::from_polar(0.05, 0.3);
        capture(&"1100".repeat(32), h, false, 1e-7, 3).1
    }

    #[test]
    fn too_short_capture_rejected() {
        let samples = vec![Complex::from_re(1.0); 64];
        assert!(matches!(
            decode_backscatter(&samples, false, SPS, 16),
            Err(DecodeError::CaptureTooShort { got: 64, .. })
        ));
        let need = fm0::preamble_waveform(false, SPS).len() + 128 * SPS;
        let epc = epc_capture();
        for got in [1, 7, 500] {
            assert_eq!(
                decode_backscatter(&epc[..got], false, SPS, 128).err(),
                Some(DecodeError::CaptureTooShort { got, need })
            );
        }
    }

    #[test]
    fn empty_capture_is_a_decode_miss_not_a_panic() {
        assert!(matches!(
            decode_backscatter(&[], false, SPS, 16),
            Err(DecodeError::EmptyCapture)
        ));
        assert!(matches!(
            decode_backscatter(&[], true, SPS, 16),
            Err(DecodeError::EmptyCapture)
        ));
        assert_eq!(
            decode_backscatter(&epc_capture()[..0], false, SPS, 128).err(),
            Some(DecodeError::EmptyCapture)
        );
    }

    #[test]
    fn snr_estimate_orders_with_noise() -> Result<(), DecodeError> {
        let h = Complex::from_polar(0.05, 0.1);
        let (_, clean) = capture("1010101010101010", h, false, 1e-7, 1);
        let (_, noisy) = capture("1010101010101010", h, false, 1e-5, 2);
        let dc = decode_backscatter(&clean, false, SPS, 16)?;
        let dn = decode_backscatter(&noisy, false, SPS, 16)?;
        assert!(dc.snr.value() > dn.snr.value() + 10.0);
        Ok(())
    }
}

//! Pulse-interval encoding (PIE): the reader→tag downlink waveform.
//!
//! PIE conveys bits in the *interval between falling edges* of the
//! reader's carrier envelope: a data-0 lasts one Tari, a data-1 lasts
//! RTcal − Tari (1.5–2 Tari). Every frame starts with a preamble
//! (delimiter, data-0, RTcal, TRcal) or a frame-sync (same minus TRcal).
//! Because the envelope is mostly high, the tag keeps harvesting power
//! while listening — and because the symbol rate is ≤ 1/Tari ≈ 80 kHz,
//! the query's spectrum fits inside the ≤125 kHz band of the paper's
//! Fig. 4.

use rfly_dsp::units::Seconds;

use crate::bits::Bits;
use crate::error::ProtocolError;
use crate::timing::{DATA1, RTCAL, T4, TARI, TRCAL};

/// The fixed delimiter duration that opens every PIE frame, seconds.
pub const DELIMITER_S: f64 = 12.5e-6;

/// What precedes the payload bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStart {
    /// Full preamble (delimiter, data-0, RTcal, TRcal) — required before
    /// Query, because TRcal tells tags the backscatter link frequency.
    Preamble,
    /// Frame-sync (delimiter, data-0, RTcal) — used before every other
    /// command.
    FrameSync,
}

/// ASK modulation depth of every PIE frame: 90 % (commercial readers
/// use ≥ 80 %).
const DEPTH: f64 = 0.9;

/// The attenuated envelope level, `1 − DEPTH`.
const LOW: f64 = 1.0 - DEPTH;

/// Low-pulse width, seconds (Gen2: PW ≈ 0.5 · Tari).
const PW: f64 = TARI / 2.0;

/// Encodes PIE frames at the link profile of [`crate::timing`] as
/// amplitude envelopes (1.0 = full carrier, `1 − DEPTH` = attenuated).
#[derive(Debug, Clone)]
pub struct PieEncoder {
    sample_rate: f64,
    /// Edge (rise/fall) time, seconds; 0 = square edges.
    edge_s: f64,
}

impl PieEncoder {
    /// Creates an encoder with PW = Tari/2, 90 % depth, square edges.
    /// Rejects non-positive sample rates.
    pub fn new(sample_rate: f64) -> Result<Self, ProtocolError> {
        if sample_rate.is_nan() || sample_rate <= 0.0 {
            return Err(ProtocolError::NonPositiveSampleRate(sample_rate));
        }
        Ok(Self {
            sample_rate,
            edge_s: 0.0,
        })
    }

    /// Sets the envelope rise/fall time. Commercial readers shape PIE
    /// edges (a few µs of raised cosine) to confine the query spectrum
    /// to the ≲125 kHz of Fig. 4; square edges splatter 1/f² sidelobes
    /// across the band. Must stay well under PW or the low pulses fill
    /// in.
    pub fn with_edge_time(mut self, edge: Seconds) -> Result<Self, ProtocolError> {
        let edge_s = edge.value();
        if !(0.0..PW).contains(&edge_s) {
            return Err(ProtocolError::OversizeEdge { edge_s, pw_s: PW });
        }
        self.edge_s = edge_s;
        Ok(self)
    }

    fn samples(&self, seconds: f64) -> usize {
        (seconds * self.sample_rate).round() as usize
    }

    /// Appends a PIE symbol of total length `len_s` (high, then a PW
    /// low pulse) to `out`.
    fn push_symbol(&self, out: &mut Vec<f64>, len_s: f64) {
        let total = self.samples(len_s);
        let low = self.samples(PW).min(total);
        out.extend(std::iter::repeat_n(1.0, total - low));
        out.extend(std::iter::repeat_n(LOW, low));
    }

    /// Encodes a full frame: start sequence, payload bits, and a
    /// trailing stretch of unmodulated carrier (`tail`) during
    /// which the tag replies.
    pub fn encode(&self, start: FrameStart, payload: &Bits, tail: Seconds) -> Vec<f64> {
        let tail_s = tail.value();
        let mut out = Vec::new();
        // Lead with unmodulated carrier (readers keep the carrier up
        // between commands — Gen2's T4 requires ≥ 2·RTcal of it). This
        // also gives the delimiter its defining falling edge.
        out.extend(std::iter::repeat_n(1.0, self.samples(T4)));
        // Delimiter: attenuated carrier for exactly 12.5 µs.
        out.extend(std::iter::repeat_n(LOW, self.samples(DELIMITER_S)));
        // Data-0, then the RTcal calibration symbol.
        self.push_symbol(&mut out, TARI);
        self.push_symbol(&mut out, RTCAL);
        if start == FrameStart::Preamble {
            self.push_symbol(&mut out, TRCAL);
        }
        for &bit in payload {
            self.push_symbol(&mut out, if bit { DATA1 } else { TARI });
        }
        out.extend(std::iter::repeat_n(1.0, self.samples(tail_s)));
        if self.edge_s > 0.0 {
            smooth_edges(&mut out, self.samples(self.edge_s));
        }
        out
    }

    /// A stretch of plain continuous wave (no modulation).
    pub fn continuous_wave(&self, duration: Seconds) -> Vec<f64> {
        vec![1.0; self.samples(duration.value())]
    }
}

/// Raised-cosine edge shaping: convolves the envelope with a normalized
/// Hann kernel of `edge_len` samples, turning abrupt transitions into
/// smooth ramps of that width. Symbol timing (edge midpoints) is
/// preserved; the whole waveform shifts by a constant edge_len/2, which
/// the interval-based decoder is insensitive to.
fn smooth_edges(envelope: &mut Vec<f64>, edge_len: usize) {
    if edge_len < 2 || envelope.is_empty() {
        return;
    }
    let kernel: Vec<f64> = (0..edge_len)
        .map(|i| 0.5 - 0.5 * (std::f64::consts::TAU * i as f64 / (edge_len - 1) as f64).cos())
        .collect();
    let norm: f64 = kernel.iter().sum();
    let n = envelope.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut acc = 0.0;
        for (k, &w) in kernel.iter().enumerate() {
            // Clamp at the boundaries (the waveform starts/ends in CW).
            let idx = (i + k).saturating_sub(edge_len / 2).min(n - 1);
            acc += envelope[idx] * w;
        }
        out.push(acc / norm);
    }
    *envelope = out;
}

/// A decoded PIE frame with the timing the tag measured from it.
#[derive(Debug, Clone, PartialEq)]
pub struct PieFrame {
    /// The payload bits.
    pub bits: Bits,
    /// Measured RTcal, seconds.
    pub rtcal_s: f64,
    /// Measured TRcal, seconds (present only after a full preamble).
    pub trcal_s: Option<f64>,
    /// Sample index where the payload's last symbol ends (the reference
    /// point for the tag's T1 reply timing).
    pub end_sample: usize,
}

/// Decodes a PIE envelope (tag side). Returns `None` if no valid frame
/// structure is found.
///
/// The tag's demodulator is an envelope detector followed by
/// edge-interval measurement: the interval between consecutive falling
/// edges *is* the symbol length (each symbol ends PW after its own
/// falling edge).
pub fn decode(envelope: &[f64], sample_rate: f64) -> Option<PieFrame> {
    if envelope.len() < 8 {
        return None;
    }
    let max = envelope.iter().cloned().fold(f64::MIN, f64::max);
    let min = envelope.iter().cloned().fold(f64::MAX, f64::min);
    // Modulation-presence gate, *relative* to the carrier level: the
    // absolute amplitude at a tag depends on path loss and relay gain,
    // but Gen2 requires ≥ 80 % modulation depth, so a real frame always
    // swings a large fraction of its own carrier.
    if max <= 0.0 || max - min < 0.1 * max {
        return None; // no modulation present
    }
    let threshold = (max + min) / 2.0;
    let level: Vec<bool> = envelope.iter().map(|&v| v > threshold).collect();

    // Falling edges.
    let mut falls = Vec::new();
    for i in 1..level.len() {
        if level[i - 1] && !level[i] {
            falls.push(i);
        }
    }
    if falls.len() < 4 {
        return None;
    }

    // Validate the delimiter: the low stretch after the first fall
    // should be ≈ 12.5 µs.
    let delim_end = (falls[0]..level.len()).find(|&i| level[i])?;
    let delim_s = (delim_end - falls[0]) as f64 / sample_rate;
    if !(0.6 * DELIMITER_S..=1.4 * DELIMITER_S).contains(&delim_s) {
        return None;
    }

    // Edge-to-edge intervals, seconds. interval[k] = falls[k+1] − falls[k]
    // = length of symbol k+1 (symbol 1 = the data-0 after the delimiter).
    let intervals: Vec<f64> = falls
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / sample_rate)
        .collect();

    // intervals[0] spans delimiter remnant + data-0: skip.
    // intervals[1] = RTcal.
    let rtcal_s = *intervals.get(1)?;
    let pivot = rtcal_s / 2.0;

    // intervals[2] is TRcal if it exceeds RTcal (TRcal ≥ 1.1·RTcal by
    // spec), otherwise it is already the first data symbol.
    let (trcal_s, data_start) = match intervals.get(2) {
        Some(&i2) if i2 > rtcal_s * 1.05 => (Some(i2), 3),
        Some(_) => (None, 2),
        None => return None,
    };

    let mut bits = Bits::new();
    for &len in &intervals[data_start..] {
        if len > rtcal_s * 1.05 {
            // Longer than any data symbol: stray modulation, reject.
            return None;
        }
        bits.push(len >= pivot);
    }
    if bits.is_empty() {
        return None;
    }

    // The final symbol ends PW after the last falling edge; estimate PW
    // as half the shortest interval (PW = Tari/2, shortest symbol = Tari).
    let tari_est = intervals[data_start..]
        .iter()
        .cloned()
        .fold(f64::MAX, f64::min);
    let pw_samples = (tari_est / 2.0 * sample_rate).round() as usize;
    let end_sample = falls.last().copied()? + pw_samples;

    Some(PieFrame {
        bits,
        rtcal_s,
        trcal_s,
        end_sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 4e6;

    fn encoder() -> Result<PieEncoder, ProtocolError> {
        PieEncoder::new(FS)
    }

    #[test]
    fn preamble_frame_roundtrips() -> Result<(), ProtocolError> {
        let payload = Bits::from_str01("1000".repeat(5).as_str());
        let wave = encoder()?.encode(FrameStart::Preamble, &payload, Seconds::new(100e-6));
        let frame = decode(&wave, FS).ok_or(ProtocolError::NoFrame)?;
        assert_eq!(frame.bits, payload);
        let trcal = frame.trcal_s.ok_or(ProtocolError::NoFrame)?;
        assert!((frame.rtcal_s - RTCAL).abs() / RTCAL < 0.02);
        assert!((trcal - TRCAL).abs() / TRCAL < 0.02);
        Ok(())
    }

    #[test]
    fn frame_sync_has_no_trcal() -> Result<(), ProtocolError> {
        let payload = Bits::from_str01("0100");
        let wave = encoder()?.encode(FrameStart::FrameSync, &payload, Seconds::new(50e-6));
        let frame = decode(&wave, FS).ok_or(ProtocolError::NoFrame)?;
        assert_eq!(frame.bits, payload);
        assert!(frame.trcal_s.is_none());
        Ok(())
    }

    #[test]
    fn all_bit_patterns_roundtrip() -> Result<(), ProtocolError> {
        for pattern in ["0", "1", "01", "10", "0000", "1111", "1011001110001111"] {
            let payload = Bits::from_str01(pattern);
            let wave = encoder()?.encode(FrameStart::FrameSync, &payload, Seconds::new(20e-6));
            let Some(frame) = decode(&wave, FS) else {
                panic!("pattern {pattern} failed to decode");
            };
            assert_eq!(frame.bits, payload, "pattern {pattern}");
        }
        Ok(())
    }

    #[test]
    fn end_sample_is_near_true_end() -> Result<(), ProtocolError> {
        let payload = Bits::from_str01("1010");
        let enc = encoder()?;
        let tail = 100e-6;
        let wave = enc.encode(FrameStart::FrameSync, &payload, Seconds::new(tail));
        let frame = decode(&wave, FS).ok_or(ProtocolError::NoFrame)?;
        let tail_samples = (tail * FS) as usize;
        let true_end = wave.len() - tail_samples;
        let err = frame.end_sample.abs_diff(true_end);
        assert!(err <= 4, "end estimate off by {err} samples");
        Ok(())
    }

    #[test]
    fn continuous_wave_is_flat() -> Result<(), ProtocolError> {
        let cw = encoder()?.continuous_wave(Seconds::new(10e-6));
        assert_eq!(cw.len(), 40);
        assert!(cw.iter().all(|&v| v == 1.0));
        assert!(decode(&cw, FS).is_none(), "no frame in CW");
        Ok(())
    }

    #[test]
    fn truncated_waveform_rejected() -> Result<(), ProtocolError> {
        let payload = Bits::from_str01("10110");
        let wave = encoder()?.encode(FrameStart::Preamble, &payload, Seconds::new(0.0));
        // Chop off everything after the delimiter.
        assert!(decode(&wave[..80], FS).is_none());
        Ok(())
    }

    #[test]
    fn illegal_configurations_return_errors() {
        assert!(matches!(
            PieEncoder::new(0.0),
            Err(ProtocolError::NonPositiveSampleRate(_))
        ));
        assert!(matches!(
            PieEncoder::new(f64::NAN),
            Err(ProtocolError::NonPositiveSampleRate(_))
        ));
    }

    #[test]
    fn shaped_edges_still_decode() -> Result<(), ProtocolError> {
        let enc = encoder()?.with_edge_time(Seconds::new(2e-6))?;
        let payload = Bits::from_str01("1011001110001111");
        let wave = enc.encode(FrameStart::Preamble, &payload, Seconds::new(50e-6));
        let frame = decode(&wave, FS).ok_or(ProtocolError::NoFrame)?;
        assert_eq!(frame.bits, payload);
        // Edges are actually smooth: no adjacent-sample jumps near the
        // full modulation depth.
        let max_step = wave
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(max_step < 0.5, "max step {max_step} — edges not shaped");
        Ok(())
    }

    #[test]
    fn oversize_edge_rejected() -> Result<(), ProtocolError> {
        assert!(matches!(
            encoder()?.with_edge_time(Seconds::new(10e-6)),
            Err(ProtocolError::OversizeEdge { .. })
        ));
        Ok(())
    }

    #[test]
    fn empty_envelope_smoothing_is_a_no_op() {
        let mut empty: Vec<f64> = Vec::new();
        smooth_edges(&mut empty, 8);
        assert!(empty.is_empty());
    }
}

//! Gen2 link timing: the one profile's Tari, RTcal, TRcal, divide
//! ratio and BLF, the data-1 length and the turnaround times T1 and T4.
//!
//! These numbers shape the guard band the relay exploits (§4.2 of the
//! paper): the reader's PIE query occupies ≲125 kHz while the tag can
//! backscatter at a link frequency up to 640 kHz, leaving a filterable
//! gap between them.

/// Divide ratio advertised in the Query command: BLF = DR / TRcal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivideRatio {
    /// DR = 8.
    Dr8,
    /// DR = 64/3.
    Dr64over3,
}

impl DivideRatio {
    /// The numeric ratio.
    pub const fn value(self) -> f64 {
        match self {
            DivideRatio::Dr8 => 8.0,
            DivideRatio::Dr64over3 => 64.0 / 3.0,
        }
    }

    /// The DR bit transmitted in a Query.
    pub fn bit(self) -> bool {
        matches!(self, DivideRatio::Dr64over3)
    }

    /// Parses the DR bit.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            DivideRatio::Dr64over3
        } else {
            DivideRatio::Dr8
        }
    }
}

/// The backscatter modulation a Query requests in its 2-bit M field.
///
/// Only FM0 is coded here ([`crate::fm0`]): the reader asks for FM0,
/// and the tag state machine ignores the M field. The Miller variants
/// exist so that every M field parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagEncoding {
    /// FM0 baseband: 1 symbol per bit.
    Fm0,
    /// Miller with 2 subcarrier cycles per symbol.
    Miller2,
    /// Miller with 4 subcarrier cycles per symbol.
    Miller4,
    /// Miller with 8 subcarrier cycles per symbol.
    Miller8,
}

impl TagEncoding {
    /// The 2-bit M field of a Query.
    pub fn field(self) -> u64 {
        match self {
            TagEncoding::Fm0 => 0b00,
            TagEncoding::Miller2 => 0b01,
            TagEncoding::Miller4 => 0b10,
            TagEncoding::Miller8 => 0b11,
        }
    }

    /// Parses the 2-bit M field.
    pub fn from_field(f: u64) -> Self {
        match f & 0b11 {
            0b00 => TagEncoding::Fm0,
            0b01 => TagEncoding::Miller2,
            0b10 => TagEncoding::Miller4,
            _ => TagEncoding::Miller8,
        }
    }
}

// The paper's one link profile (§6.1): Tari 12.5 µs, RTcal 2.5·Tari,
// and TRcal chosen so the BLF is 500 kHz at DR = 64/3, placing the tag
// response exactly at the relay's 500 kHz uplink band-pass center.

/// Tari, the reference interval (duration of data-0), seconds. Gen2
/// allows 6.25, 12.5 or 25 µs.
pub const TARI: f64 = 12.5e-6;

/// RTcal = duration(data-0) + duration(data-1), seconds. Gen2
/// constrains RTcal ∈ [2.5, 3.0] · Tari.
pub const RTCAL: f64 = 2.5 * TARI;

/// The divide ratio a Query advertises: BLF = DR / TRcal.
pub const DR: DivideRatio = DivideRatio::Dr64over3;

/// TRcal, the tag calibration interval, seconds: DR / 500 kHz ≈
/// 42.67 µs. Gen2 constrains TRcal ∈ [1.1, 3.0] · RTcal.
pub const TRCAL: f64 = DR.value() / 500e3;

/// Backscatter link frequency, hertz: BLF = DR / TRcal.
pub const BLF: f64 = DR.value() / TRCAL;

/// Duration of a PIE data-1 symbol (RTcal − Tari), seconds.
pub const DATA1: f64 = RTCAL - TARI;

/// T1, seconds: time from the reader's last falling edge to the start
/// of the tag's reply, `max(RTcal, 10/BLF)` nominal.
pub const T1: f64 = RTCAL.max(10.0 / BLF);

/// T4, seconds: minimum gap between reader commands, 2 · RTcal.
pub const T4: f64 = 2.0 * RTCAL;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_profile_is_gen2_legal_with_a_500khz_blf() {
        assert!((6.25e-6..=25e-6).contains(&TARI));
        assert!((2.5..=3.0).contains(&(RTCAL / TARI)));
        assert!((1.1..=3.0).contains(&(TRCAL / RTCAL)));
        assert_eq!(BLF, 500e3);
    }

    #[test]
    fn divide_ratio_bits_roundtrip() {
        for dr in [DivideRatio::Dr8, DivideRatio::Dr64over3] {
            assert_eq!(DivideRatio::from_bit(dr.bit()), dr);
        }
        assert!((DivideRatio::Dr64over3.value() - 21.333).abs() < 1e-3);
    }

    #[test]
    fn encodings_roundtrip_through_the_m_field() {
        for e in [
            TagEncoding::Fm0,
            TagEncoding::Miller2,
            TagEncoding::Miller4,
            TagEncoding::Miller8,
        ] {
            assert_eq!(TagEncoding::from_field(e.field()), e);
        }
    }

    #[test]
    fn symbol_durations() {
        assert!((DATA1 - 1.5 * TARI).abs() < 1e-12);
        // 10/BLF is 20 µs, shorter than RTcal.
        assert_eq!(T1, RTCAL);
    }
}

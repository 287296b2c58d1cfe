//! Gen2 link timing: Tari, RTcal, TRcal, BLF, divide ratios and the
//! turnaround times T1–T4.
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

/// Reader→tag link timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTiming {
    /// Tari — the reference interval (duration of data-0), seconds.
    /// Gen2 allows 6.25, 12.5 or 25 µs.
    pub tari_s: f64,
    /// RTcal = duration(data-0) + duration(data-1), seconds.
    /// Gen2 constrains RTcal ∈ [2.5, 3.0] · Tari.
    pub rtcal_s: f64,
    /// TRcal — the tag calibration interval, seconds.
    /// Gen2 constrains TRcal ∈ [1.1, 3.0] · RTcal.
    pub trcal_s: f64,
    /// Divide ratio from the Query.
    pub dr: DivideRatio,
}

impl LinkTiming {
    /// The paper's evaluation-grade profile: Tari 12.5 µs, RTcal
    /// 2.5·Tari, and TRcal chosen so the BLF is 500 kHz at DR = 64/3 —
    /// placing the tag response exactly at the relay's 500 kHz uplink
    /// band-pass center (§6.1).
    pub const fn default_profile() -> Self {
        let tari = 12.5e-6;
        let rtcal = 2.5 * tari;
        let dr = DivideRatio::Dr64over3;
        // TRcal = DR / BLF = (64/3) / 500 kHz ≈ 42.67 µs.
        let trcal = dr.value() / 500e3;
        Self {
            tari_s: tari,
            rtcal_s: rtcal,
            trcal_s: trcal,
            dr,
        }
    }

    /// Validates the Gen2 constraints; returns an error string naming
    /// the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if !(6.25e-6..=25e-6).contains(&self.tari_s) {
            return Err(format!("Tari {} s outside [6.25, 25] µs", self.tari_s));
        }
        let r = self.rtcal_s / self.tari_s;
        if !(2.5..=3.0).contains(&r) {
            return Err(format!("RTcal/Tari = {r} outside [2.5, 3.0]"));
        }
        let t = self.trcal_s / self.rtcal_s;
        if !(1.1..=3.0).contains(&t) {
            return Err(format!("TRcal/RTcal = {t} outside [1.1, 3.0]"));
        }
        Ok(())
    }

    /// Backscatter link frequency: BLF = DR / TRcal.
    pub fn blf_hz(&self) -> f64 {
        self.dr.value() / self.trcal_s
    }

    /// Duration of a PIE data-1 symbol (RTcal − Tari).
    pub fn data1_s(&self) -> f64 {
        self.rtcal_s - self.tari_s
    }

    /// T1: time from the reader's last falling edge to the start of the
    /// tag's reply — `max(RTcal, 10/BLF)` nominal.
    pub fn t1_s(&self) -> f64 {
        self.rtcal_s.max(10.0 / self.blf_hz())
    }

    /// T4: minimum gap between reader commands — 2 · RTcal.
    pub fn t4_s(&self) -> f64 {
        2.0 * self.rtcal_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_hits_500khz_blf() {
        let t = LinkTiming::default_profile();
        t.validate().expect("default profile must be Gen2-legal");
        assert!((t.blf_hz() - 500e3).abs() < 1.0);
    }

    #[test]
    fn validation_catches_bad_tari() {
        let mut t = LinkTiming::default_profile();
        t.tari_s = 30e-6;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_rtcal() {
        let mut t = LinkTiming::default_profile();
        t.rtcal_s = 4.0 * t.tari_s;
        assert!(t.validate().unwrap_err().contains("RTcal"));
    }

    #[test]
    fn validation_catches_bad_trcal() {
        let mut t = LinkTiming::default_profile();
        t.trcal_s = 0.5 * t.rtcal_s;
        assert!(t.validate().unwrap_err().contains("TRcal"));
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
        let t = LinkTiming::default_profile();
        assert!((t.data1_s() - 1.5 * t.tari_s).abs() < 1e-12);
        assert!(t.t1_s() >= t.rtcal_s);
    }
}

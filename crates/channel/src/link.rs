//! Link budgets and SNR accounting.
//!
//! Read range (Fig. 11) is decided by two budgets: the *downlink power
//! budget* — can the query deliver the tag's −15 dBm power-up threshold?
//! — and the *uplink SNR budget* — does the backscatter response clear
//! the reader's decode threshold? This module does that arithmetic on
//! top of the path-loss and phasor models.

use rfly_dsp::units::{thermal_noise, Db, Dbm, Hertz};

/// One direction of a radio link.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Transmit power at the antenna port.
    pub tx_power: Dbm,
    /// Transmit antenna gain.
    pub tx_gain: Db,
    /// Receive antenna gain.
    pub rx_gain: Db,
    /// Receiver noise figure.
    pub noise_figure: Db,
    /// Receiver bandwidth (sets the noise floor).
    pub bandwidth: Hertz,
}

impl LinkBudget {
    /// The receiver noise floor (thermal + noise figure).
    pub fn noise_floor(&self) -> Dbm {
        thermal_noise(self.bandwidth) + self.noise_figure
    }

    /// Equivalent isotropically radiated power.
    pub fn eirp(&self) -> Dbm {
        self.tx_power + self.tx_gain
    }
}

/// Backscatter conversion: how much of the power illuminating a passive
/// tag comes back as modulated reflection.
///
/// A switching tag reflects a fraction of the incident power into the
/// modulated sidebands; with a typical modulation depth `m`, the useful
/// (differential) backscatter gain is about `−5 dB − 20·log10(1/m)`
/// relative to the incident wave. Off-the-shelf tags land around
/// −5…−10 dB total.
#[derive(Debug, Clone, Copy)]
pub struct Backscatter {
    /// Modulation depth in (0, 1]: the amplitude swing between the
    /// reflective and absorptive impedance states.
    pub modulation_depth: f64,
    /// Fixed conversion loss of the tag antenna/chip interface, dB.
    pub conversion_loss: Db,
}

impl Backscatter {
    /// An Alien-Squiggle-class passive tag: full-depth switching with
    /// ~5 dB conversion loss.
    pub fn passive_tag() -> Self {
        Self {
            modulation_depth: 1.0,
            conversion_loss: Db::new(5.0),
        }
    }

    /// The effective power gain (≤ 0 dB) from incident carrier power to
    /// modulated backscatter power.
    pub fn gain(&self) -> Db {
        assert!(
            self.modulation_depth > 0.0 && self.modulation_depth <= 1.0,
            "modulation depth must be in (0, 1]"
        );
        Db::from_amplitude(self.modulation_depth) - self.conversion_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typical FCC-compliant UHF RFID reader port: 30 dBm conducted,
    /// 6 dBi antenna (36 dBm EIRP), 8 dB noise figure, 2 MHz bandwidth.
    fn rfid_reader() -> LinkBudget {
        LinkBudget {
            tx_power: Dbm::new(30.0),
            tx_gain: Db::new(6.0),
            rx_gain: Db::new(6.0),
            noise_figure: Db::new(8.0),
            bandwidth: Hertz::mhz(2.0),
        }
    }

    #[test]
    fn eirp_is_power_plus_gain() {
        let b = rfid_reader();
        assert_eq!(b.eirp(), Dbm::new(36.0));
    }

    #[test]
    fn noise_floor_is_ktb_plus_noise_figure() {
        let b = rfid_reader();
        // kTB at 2 MHz ≈ −111 dBm, +8 dB NF ≈ −103 dBm.
        let nf = b.noise_floor();
        assert!((nf.value() + 103.0).abs() < 0.5, "nf = {nf}");
    }

    #[test]
    fn backscatter_gain_depends_on_depth() {
        let full = Backscatter::passive_tag().gain();
        let shallow = Backscatter {
            modulation_depth: 0.1,
            conversion_loss: Db::new(5.0),
        }
        .gain();
        assert!((full.value() + 5.0).abs() < 1e-12);
        assert!((shallow.value() + 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "modulation depth")]
    fn invalid_depth_rejected() {
        let _ = Backscatter {
            modulation_depth: 0.0,
            conversion_loss: Db::new(5.0),
        }
        .gain();
    }
}

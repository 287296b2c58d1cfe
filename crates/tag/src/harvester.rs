//! RF energy harvesting: the tag's power supply.
//!
//! A passive tag rectifies the reader's carrier to power its logic. The
//! paper's §2: "the reader must deliver sufficient power to the RFID
//! (around −15 dBm for off-the-shelf tags \[12\]) ... This limits the
//! reliable range of passive RFID communication to 3–6 m." The
//! harvester model captures the threshold, a charge-up delay, and
//! hysteresis (a charged storage cap rides through brief envelope dips
//! such as PIE low pulses).

use rfly_dsp::units::{Dbm, Seconds};

/// State of a tag's energy-harvesting front end.
#[derive(Debug, Clone)]
pub struct Harvester {
    /// Minimum incident power for net-positive charging.
    pub threshold: Dbm,
    /// Time of continuous above-threshold illumination required before
    /// the chip logic boots, seconds.
    pub charge_time: Seconds,
    /// How long a booted chip survives below-threshold power (storage
    /// capacitor), seconds.
    pub holdup: Seconds,
    charged_s: f64,
    starved_s: f64,
    powered: bool,
}

impl Harvester {
    /// An Alien-Squiggle-class harvester: −15 dBm threshold, ~300 µs
    /// charge-up, ~100 µs hold-up.
    pub fn passive_tag() -> Self {
        Self::new(Dbm::new(-15.0), Seconds::new(300e-6), Seconds::new(100e-6))
    }

    /// Creates a harvester with explicit parameters.
    pub fn new(threshold: Dbm, charge_time: Seconds, holdup: Seconds) -> Self {
        assert!(charge_time.value() >= 0.0 && holdup.value() >= 0.0);
        Self {
            threshold,
            charge_time,
            holdup,
            charged_s: 0.0,
            starved_s: 0.0,
            powered: false,
        }
    }

    /// True if the chip logic is currently running.
    #[inline]
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Advances the model by `dt` of illumination at
    /// `incident` power. Returns `true` if the chip lost power during
    /// this step (i.e. a power cycle the protocol machine must see).
    pub fn step(&mut self, incident: Dbm, dt: Seconds) -> bool {
        let dt_s = dt.value();
        assert!(dt_s >= 0.0);
        let above = incident.value() >= self.threshold.value();
        if above {
            self.starved_s = 0.0;
            self.charged_s += dt_s;
            if !self.powered && self.charged_s >= self.charge_time.value() {
                self.powered = true;
            }
            false
        } else {
            self.charged_s = 0.0;
            if self.powered {
                self.starved_s += dt_s;
                if self.starved_s > self.holdup.value() {
                    self.powered = false;
                    self.starved_s = 0.0;
                    return true;
                }
            }
            false
        }
    }

    /// Convenience for phasor-level simulation: would the tag operate if
    /// illuminated steadily at `incident`? (No state change.)
    #[inline]
    pub fn sustains(&self, incident: Dbm) -> bool {
        incident.value() >= self.threshold.value()
    }

    /// Resets to the cold (unpowered) state.
    pub fn reset(&mut self) {
        self.charged_s = 0.0;
        self.starved_s = 0.0;
        self.powered = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_tag_boots_after_charge_time() {
        let mut h = Harvester::passive_tag();
        assert!(!h.powered());
        h.step(Dbm::new(-10.0), Seconds::new(100e-6));
        assert!(!h.powered(), "not yet charged");
        h.step(Dbm::new(-10.0), Seconds::new(250e-6));
        assert!(h.powered(), "charged after 350 µs total");
    }

    #[test]
    fn below_threshold_never_boots() {
        let mut h = Harvester::passive_tag();
        for _ in 0..100 {
            h.step(Dbm::new(-15.1), Seconds::new(1e-3));
        }
        assert!(!h.powered());
    }

    #[test]
    fn exactly_at_threshold_counts() {
        let mut h = Harvester::passive_tag();
        h.step(Dbm::new(-15.0), Seconds::new(1e-3));
        assert!(h.powered());
        assert!(h.sustains(Dbm::new(-15.0)));
        assert!(!h.sustains(Dbm::new(-15.01)));
    }

    #[test]
    fn holdup_rides_through_pie_low_pulses() {
        let mut h = Harvester::passive_tag();
        h.step(Dbm::new(-10.0), Seconds::new(1e-3));
        assert!(h.powered());
        // A 12.5 µs delimiter at zero power: well within 100 µs hold-up.
        let lost = h.step(Dbm::new(-90.0), Seconds::new(12.5e-6));
        assert!(!lost);
        assert!(h.powered());
    }

    #[test]
    fn long_starvation_power_cycles() {
        let mut h = Harvester::passive_tag();
        h.step(Dbm::new(-10.0), Seconds::new(1e-3));
        let lost = h.step(Dbm::new(-90.0), Seconds::new(200e-6));
        assert!(lost, "power-cycle must be reported");
        assert!(!h.powered());
        // Needs a full recharge afterwards.
        h.step(Dbm::new(-10.0), Seconds::new(100e-6));
        assert!(!h.powered());
        h.step(Dbm::new(-10.0), Seconds::new(300e-6));
        assert!(h.powered());
    }

    #[test]
    fn interrupted_charging_restarts() {
        let mut h = Harvester::passive_tag();
        h.step(Dbm::new(-10.0), Seconds::new(200e-6)); // partial charge
        h.step(Dbm::new(-50.0), Seconds::new(10e-6)); // dip resets charge integral
        h.step(Dbm::new(-10.0), Seconds::new(200e-6));
        assert!(!h.powered(), "charge integral must restart after a dip");
        h.step(Dbm::new(-10.0), Seconds::new(100e-6));
        assert!(h.powered());
    }

    #[test]
    fn reset_goes_cold() {
        let mut h = Harvester::passive_tag();
        h.step(Dbm::new(-5.0), Seconds::new(1e-3));
        assert!(h.powered());
        h.reset();
        assert!(!h.powered());
    }
}

//! The relay's energy budget: one airframe + relay payload build.
//!
//! A flying relay spends its pack on hover (the airframe), on TX gain
//! (the downlink PA — output power is what the §6.1 gain allocation
//! buys), and on traffic served (each singulated read keeps the uplink
//! chain and SAR sampler busy); a dock recharges it at constant power.
//! The battery that folds these draws over a campaign is
//! `rfly_ops::energy::Battery`.

use rfly_dsp::units::Db;

/// The fleet-wide energy model: one airframe + relay payload build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Usable battery capacity, joules.
    pub capacity_j: f64,
    /// Hover draw, watts (airframe, avionics, tracking beacon).
    pub hover_w: f64,
    /// Relay TX chain draw at the reference gain, watts.
    pub tx_w: f64,
    /// The downlink gain the TX draw is quoted at.
    pub ref_gain: Db,
    /// Extra TX draw per dB of downlink gain above the reference,
    /// watts/dB (linearized PA bias curve; negative gain deltas save).
    pub tx_w_per_db: f64,
    /// Energy per successful tag read, joules (uplink chain + sampler).
    pub per_read_j: f64,
    /// Dock charging power, watts.
    pub charge_w: f64,
    /// Reserve margin: a serving relay must rotate out no later than
    /// the tick its state of charge falls **to** this fraction.
    pub reserve_frac: f64,
    /// A docked standby is launch-ready only at or above this fraction
    /// (launching a half-empty standby just schedules the next swap).
    pub ready_frac: f64,
}

impl Default for EnergyModel {
    /// A Bebop-2-class airframe with the §6 relay payload: ~108 kJ
    /// pack, ~72 W hover (≈ 25 min endurance), a 3 W TX chain at the
    /// 29 dBm PA point, and a 90 W charger.
    fn default() -> Self {
        Self {
            capacity_j: 108_000.0,
            hover_w: 72.0,
            tx_w: 3.0,
            ref_gain: Db::new(90.0),
            tx_w_per_db: 0.05,
            per_read_j: 0.5,
            charge_w: 90.0,
            reserve_frac: 0.2,
            ready_frac: 0.9,
        }
    }
}

impl EnergyModel {
    /// `Ok` when `reserve_frac < ready_frac ≤ 1`, else the reason: a
    /// standby must launch with more than the reserve. The scenario
    /// schema and `rfly_ops`'s roster both enforce it.
    pub fn check_fractions(&self) -> Result<(), String> {
        let (ready, reserve) = (self.ready_frac, self.reserve_frac);
        if reserve < ready && ready <= 1.0 {
            Ok(())
        } else {
            Err(format!(
                "`ready_frac` = {ready} must exceed `reserve_frac` = {reserve} and \
                 be at most 1 (a standby must launch with more than the reserve)"
            ))
        }
    }

    /// TX chain draw at `gain` of downlink gain, watts (floored at 0).
    pub fn tx_draw_w(&self, gain: Db) -> f64 {
        (self.tx_w + self.tx_w_per_db * (gain - self.ref_gain).value()).max(0.0)
    }

    /// Total draw while serving a cell at `gain`, watts.
    pub fn serve_draw_w(&self, gain: Db) -> f64 {
        self.hover_w + self.tx_draw_w(gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_draw_scales_with_gain_and_floors_at_zero() {
        let m = EnergyModel::default();
        let at_ref = m.tx_draw_w(m.ref_gain);
        assert!((at_ref - m.tx_w).abs() < 1e-12);
        assert!(m.tx_draw_w(m.ref_gain + Db::new(10.0)) > at_ref);
        assert_eq!(m.tx_draw_w(Db::new(-1e6)), 0.0);
    }
}

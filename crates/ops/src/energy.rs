//! Per-relay battery accounting.
//!
//! Drain follows the three levers the mission actually pulls: hover
//! time (the airframe), TX gain (the relay's downlink PA — output
//! power is what the §6.1 gain allocation buys), and traffic served
//! (each singulated read keeps the uplink chain and SAR sampler busy).
//! Charging happens on a dock at constant power. Every operation is a
//! pure `f64` fold with no hidden clock, so a drain trace is
//! bit-identical across same-seed runs — the property the ops test
//! suite asserts.

use rfly_dsp::units::{Db, Seconds};

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
    /// TX chain draw at `gain` of downlink gain, watts (floored at 0).
    pub fn tx_draw_w(&self, gain: Db) -> f64 {
        (self.tx_w + self.tx_w_per_db * (gain - self.ref_gain).value()).max(0.0)
    }

    /// Total draw while serving a cell at `gain`, watts.
    pub fn serve_draw_w(&self, gain: Db) -> f64 {
        self.hover_w + self.tx_draw_w(gain)
    }
}

/// One relay's battery state of charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Remaining charge, joules (clamped to `[0, capacity]`).
    pub charge_j: f64,
}

impl Battery {
    /// A battery fresh off the charger.
    pub fn full(model: &EnergyModel) -> Self {
        Self {
            charge_j: model.capacity_j,
        }
    }

    /// State of charge as a fraction of capacity, in `[0, 1]`.
    pub fn frac(&self, model: &EnergyModel) -> f64 {
        (self.charge_j / model.capacity_j).clamp(0.0, 1.0)
    }

    /// Whether the reserve margin has been reached: the rotation
    /// planner must swap this relay out **at** the threshold, not past
    /// it.
    pub fn at_reserve(&self, model: &EnergyModel) -> bool {
        self.frac(model) <= model.reserve_frac
    }

    /// Whether a docked relay is charged enough to launch.
    pub fn launch_ready(&self, model: &EnergyModel) -> bool {
        self.frac(model) >= model.ready_frac
    }

    /// Whether the pack is flat (a serving relay on a flat pack is
    /// down — the campaign counts it dead and repartitions).
    pub fn is_empty(&self) -> bool {
        self.charge_j <= 0.0
    }

    /// Drains one serving interval: `dt` of hover + TX at `gain`, plus
    /// `reads` successful tag reads.
    pub fn drain_serve(&mut self, model: &EnergyModel, dt: Seconds, gain: Db, reads: usize) {
        let drained = model.serve_draw_w(gain) * dt.value() + model.per_read_j * reads as f64;
        self.charge_j = (self.charge_j - drained).max(0.0);
    }

    /// Drains a transit leg flown over `dt` (launch, cell entry, or
    /// dock return): hover draw, TX off.
    pub fn drain_transit(&mut self, model: &EnergyModel, dt: Seconds) {
        self.charge_j = (self.charge_j - model.hover_w * dt.value()).max(0.0);
    }

    /// Charges on a dock for `dt`.
    pub fn charge(&mut self, model: &EnergyModel, dt: Seconds) {
        self.charge_j = (self.charge_j + model.charge_w * dt.value()).min(model.capacity_j);
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

    #[test]
    fn drain_and_charge_clamp_to_the_pack() {
        let m = EnergyModel::default();
        let mut b = Battery::full(&m);
        b.drain_serve(&m, Seconds::new(1e9), m.ref_gain, 0);
        assert!(b.is_empty());
        assert_eq!(b.frac(&m), 0.0);
        b.charge(&m, Seconds::new(1e9));
        assert_eq!(b.charge_j, m.capacity_j);
        assert_eq!(b.frac(&m), 1.0);
    }

    #[test]
    fn reserve_check_fires_exactly_at_the_threshold() {
        let m = EnergyModel::default();
        let mut b = Battery::full(&m);
        assert!(!b.at_reserve(&m));
        // One joule above the reserve line: still serving.
        b.charge_j = m.reserve_frac * m.capacity_j + 1.0;
        assert!(!b.at_reserve(&m));
        // Exactly at the line: the swap must trigger *now*.
        b.charge_j = m.reserve_frac * m.capacity_j;
        assert!(b.at_reserve(&m));
    }

    #[test]
    fn reads_cost_energy() {
        let m = EnergyModel::default();
        let mut quiet = Battery::full(&m);
        let mut busy = Battery::full(&m);
        quiet.drain_serve(&m, Seconds::new(60.0), m.ref_gain, 0);
        busy.drain_serve(&m, Seconds::new(60.0), m.ref_gain, 100);
        let extra = quiet.charge_j - busy.charge_j;
        assert!((extra - 100.0 * m.per_read_j).abs() < 1e-9);
    }
}

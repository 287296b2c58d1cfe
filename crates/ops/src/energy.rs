//! Per-relay battery accounting against the platform's
//! [`EnergyModel`]: drain from hover time, TX gain and traffic served,
//! charge on a dock at constant power. Every operation is a pure `f64`
//! fold with no hidden clock, so a drain trace is bit-identical across
//! same-seed runs — the property the ops test suite asserts.

use rfly_drone::energy::EnergyModel;
use rfly_dsp::units::{Db, Seconds};

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

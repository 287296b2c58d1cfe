//! Fault application: per-relay accumulated health and the
//! [`FaultLayer`] middleware that perturbs the air interface.
//!
//! Faults act at two levels, matching where the real failure lives:
//!
//! * **Hardware state** ([`RelayHealth::degraded_model`]) — gain drift,
//!   PA sag, and oscillator damage rewrite the relay's phasor model, so
//!   the unmodified [`rfly_sim::medium::WorldMedium`] physics (PA caps,
//!   Eq. 3 gates, fleet leakage) responds to them with no special
//!   cases.
//! * **Air interface** ([`FaultLayer`]) — transaction drops, deep
//!   fades, frame corruption, and phase scatter are one
//!   [`rfly_reader::medium::MediumLayer`] in the medium middleware
//!   stack (`base.layer(FaultLayer::new(..))`), behind the same
//!   [`Medium`] trait the reader stack already consumes, so the whole
//!   inventory engine runs unmodified under fault.

use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::Db;
use rfly_dsp::Complex;
use rfly_protocol::bits::Bits;
use rfly_protocol::commands::Command;
use rfly_reader::inventory::{Medium, Observation};
use rfly_reader::medium::MediumLayer;
use rfly_sim::world::RelayModel;

use crate::schedule::{FaultEvent, FaultKind};

/// The accumulated fault state of one relay and its drone.
#[derive(Debug, Clone)]
pub struct RelayHealth {
    /// False once a battery sag forced this drone to return-to-land.
    pub alive: bool,
    /// Permanent per-observation phase scatter (oscillator glitch), rad.
    pub phase_noise_rad: f64,
    /// Transient CFO phase scatter while `cfo_steps_left > 0`, rad.
    pub cfo_noise_rad: f64,
    /// Mission steps of CFO drift remaining.
    pub cfo_steps_left: usize,
    /// Thermal excess downlink gain, dB (erodes stability margins).
    pub gain_drift_db: f64,
    /// PA compression-point sag, dB.
    pub pa_sag_db: f64,
    /// Active uplink fade depth, dB.
    pub fade_db: f64,
    /// Mission steps of fade remaining.
    pub fade_steps_left: usize,
    /// Active per-frame corruption probability.
    pub corrupt_p: f64,
    /// Mission steps of corruption remaining.
    pub corrupt_steps_left: usize,
    /// Active per-transaction drop probability.
    pub drop_p: f64,
    /// Mission steps of transaction drops remaining.
    pub drop_steps_left: usize,
    /// Mission steps of tracking dropout remaining.
    pub tracking_lost_steps: usize,
    /// Active wind-gust waypoint offset, meters.
    pub gust_m: (f64, f64),
    /// Mission steps of gust remaining.
    pub gust_steps_left: usize,
    /// Fault id of the latest margin-eroding event (gain drift / PA
    /// sag) — the trigger a margin recovery cites.
    pub last_gain_fault: Option<usize>,
    /// Fault id of the latest uplink event (fade / burst / drop) — the
    /// trigger a retry cites.
    pub last_uplink_fault: Option<usize>,
    /// Fault id of the latest phase-incoherence event — the trigger an
    /// RSSI fallback cites.
    pub last_phase_fault: Option<usize>,
    /// Fault id of the battery sag that killed this relay.
    pub battery_fault: Option<usize>,
    /// Fault id of the latest tracking dropout.
    pub last_tracking_fault: Option<usize>,
}

impl RelayHealth {
    /// A healthy relay.
    pub fn new() -> Self {
        Self {
            alive: true,
            phase_noise_rad: 0.0,
            cfo_noise_rad: 0.0,
            cfo_steps_left: 0,
            gain_drift_db: 0.0,
            pa_sag_db: 0.0,
            fade_db: 0.0,
            fade_steps_left: 0,
            corrupt_p: 0.0,
            corrupt_steps_left: 0,
            drop_p: 0.0,
            drop_steps_left: 0,
            tracking_lost_steps: 0,
            gust_m: (0.0, 0.0),
            gust_steps_left: 0,
            last_gain_fault: None,
            last_uplink_fault: None,
            last_phase_fault: None,
            battery_fault: None,
            last_tracking_fault: None,
        }
    }

    /// Applies one scheduled fault to this relay's state.
    pub fn apply(&mut self, ev: &FaultEvent) {
        match ev.kind {
            FaultKind::PhaseGlitch { rad } => {
                self.phase_noise_rad = self.phase_noise_rad.max(rad);
                self.last_phase_fault = Some(ev.id);
            }
            FaultKind::CfoDrift { rad, steps } => {
                self.cfo_noise_rad = self.cfo_noise_rad.max(rad);
                self.cfo_steps_left = self.cfo_steps_left.max(steps);
                self.last_phase_fault = Some(ev.id);
            }
            FaultKind::GainDrift { db } => {
                self.gain_drift_db += db;
                self.last_gain_fault = Some(ev.id);
            }
            FaultKind::PaSag { db } => {
                self.pa_sag_db += db;
                self.last_gain_fault = Some(ev.id);
            }
            FaultKind::DeepFade { db, steps } => {
                self.fade_db = self.fade_db.max(db);
                self.fade_steps_left = self.fade_steps_left.max(steps);
                self.last_uplink_fault = Some(ev.id);
            }
            FaultKind::NoiseBurst { p_corrupt, steps } => {
                self.corrupt_p = self.corrupt_p.max(p_corrupt);
                self.corrupt_steps_left = self.corrupt_steps_left.max(steps);
                self.last_uplink_fault = Some(ev.id);
            }
            FaultKind::Gen2Drop { p_drop, steps } => {
                self.drop_p = self.drop_p.max(p_drop);
                self.drop_steps_left = self.drop_steps_left.max(steps);
                self.last_uplink_fault = Some(ev.id);
            }
            FaultKind::TrackingDropout { steps } => {
                self.tracking_lost_steps = self.tracking_lost_steps.max(steps);
                self.last_tracking_fault = Some(ev.id);
            }
            FaultKind::WindGust { dx_m, dy_m, steps } => {
                self.gust_m = (dx_m, dy_m);
                self.gust_steps_left = self.gust_steps_left.max(steps);
            }
            FaultKind::BatterySag => {
                self.alive = false;
                self.battery_fault = Some(ev.id);
            }
        }
    }

    /// Advances one mission step: transient faults run down.
    pub fn tick(&mut self) {
        let dec = |left: &mut usize| *left = left.saturating_sub(1);
        dec(&mut self.cfo_steps_left);
        if self.cfo_steps_left == 0 {
            self.cfo_noise_rad = 0.0;
        }
        dec(&mut self.fade_steps_left);
        if self.fade_steps_left == 0 {
            self.fade_db = 0.0;
        }
        dec(&mut self.corrupt_steps_left);
        if self.corrupt_steps_left == 0 {
            self.corrupt_p = 0.0;
        }
        dec(&mut self.drop_steps_left);
        if self.drop_steps_left == 0 {
            self.drop_p = 0.0;
        }
        dec(&mut self.tracking_lost_steps);
        dec(&mut self.gust_steps_left);
        if self.gust_steps_left == 0 {
            self.gust_m = (0.0, 0.0);
        }
    }

    /// The current per-observation phase scatter, radians.
    pub fn phase_scatter_rad(&self) -> f64 {
        let cfo = if self.cfo_steps_left > 0 {
            self.cfo_noise_rad
        } else {
            0.0
        };
        self.phase_noise_rad.max(cfo)
    }

    /// Whether an uplink fault (fade, burst, drops) is currently
    /// active — the condition under which a silent inventory stop is
    /// worth retrying.
    pub fn uplink_faulted(&self) -> bool {
        self.fade_steps_left > 0 || self.corrupt_steps_left > 0 || self.drop_steps_left > 0
    }

    /// The drone's current waypoint error from wind, meters.
    pub fn gust_offset(&self) -> (f64, f64) {
        if self.gust_steps_left > 0 {
            self.gust_m
        } else {
            (0.0, 0.0)
        }
    }

    /// Whether the tracking system currently has no fix on the drone.
    pub fn tracking_lost(&self) -> bool {
        self.tracking_lost_steps > 0
    }

    /// `base` with this health's hardware degradations applied: the
    /// thermal drift raises the downlink gain while eroding the
    /// self-interference isolation it was allocated against, and the
    /// PA sag lowers the compression cap.
    pub fn degraded_model(&self, base: &RelayModel) -> RelayModel {
        let mut m = base.clone();
        m.gains.downlink = m.gains.downlink + Db::new(self.gain_drift_db);
        m.stability_isolation = m.stability_isolation - Db::new(self.gain_drift_db);
        m.pa_limit = m.pa_limit - Db::new(self.pa_sag_db);
        if self.phase_scatter_rad() > 0.0 {
            // The damaged oscillator also walks the nominally-constant
            // hardware phase (the per-observation scatter is applied by
            // [`FaultyMedium`]).
            m.hw_constant *= Complex::cis(self.phase_scatter_rad() * 0.5);
        }
        m
    }
}

impl Default for RelayHealth {
    fn default() -> Self {
        Self::new()
    }
}

/// The fault-injection middleware: perturbs every transaction of the
/// medium below it in the stack. Seeded, so a mission under fault is
/// exactly reproducible.
#[derive(Debug)]
pub struct FaultLayer {
    drop_p: f64,
    fade: Db,
    corrupt_p: f64,
    phase_scatter_rad: f64,
    rng: StdRng,
}

impl FaultLayer {
    /// A layer applying the uplink faults currently active in `health`.
    pub fn new(health: &RelayHealth, seed: u64) -> Self {
        Self {
            drop_p: if health.drop_steps_left > 0 {
                health.drop_p
            } else {
                0.0
            },
            fade: Db::new(if health.fade_steps_left > 0 {
                health.fade_db
            } else {
                0.0
            }),
            corrupt_p: if health.corrupt_steps_left > 0 {
                health.corrupt_p
            } else {
                0.0
            },
            phase_scatter_rad: health.phase_scatter_rad(),
            rng: StdRng::seed_from_u64(seed ^ 0xFA_17),
        }
    }

    /// A layer with no active faults — the zero-fault hot path whose
    /// overhead the `ext_fault_overhead` benchmark bounds.
    pub fn inactive(seed: u64) -> Self {
        Self {
            drop_p: 0.0,
            fade: Db::new(0.0),
            corrupt_p: 0.0,
            phase_scatter_rad: 0.0,
            rng: StdRng::seed_from_u64(seed ^ 0xFA_17),
        }
    }
}

/// Flips one random bit of `frame` (a CRC-breaking corruption: the
/// reader's parser rejects the frame and the slot reads as a
/// collision).
fn flip_random_bit(frame: &Bits, rng: &mut StdRng) -> Bits {
    if frame.is_empty() {
        return frame.clone();
    }
    let mut bools = frame.as_slice().to_vec();
    let k = rng.gen_range(0..bools.len());
    bools[k] = !bools[k];
    Bits::from_bools(&bools)
}

impl MediumLayer for FaultLayer {
    fn process(&mut self, cmd: &Command, inner: &mut dyn Medium) -> Vec<Observation> {
        if self.drop_p > 0.0 && self.rng.gen_bool(self.drop_p) {
            // The whole Gen2 transaction times out.
            return Vec::new();
        }
        let mut obs = inner.transact(cmd);
        if self.fade.value() != 0.0 || self.corrupt_p > 0.0 || self.phase_scatter_rad > 0.0 {
            for o in obs.iter_mut() {
                o.snr = o.snr - self.fade;
                if self.corrupt_p > 0.0 && self.rng.gen_bool(self.corrupt_p) {
                    o.frame = flip_random_bit(&o.frame, &mut self.rng);
                }
                if self.phase_scatter_rad > 0.0 {
                    let j = self
                        .rng
                        .gen_range(-self.phase_scatter_rad..self.phase_scatter_rad);
                    o.channel *= Complex::cis(j);
                }
            }
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_reader::medium::MediumExt;

    /// A medium that always answers with one fixed observation.
    struct FixedMedium;

    impl Medium for FixedMedium {
        fn transact(&mut self, _cmd: &Command) -> Vec<Observation> {
            vec![Observation {
                frame: Bits::from_str01("1011001110001111"),
                channel: Complex::from_polar(1.0, 0.5),
                snr: Db::new(20.0),
            }]
        }
    }

    fn event(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            id: 0,
            step: 0,
            relay: 0,
            kind,
        }
    }

    #[test]
    fn transient_faults_expire_on_tick() {
        let mut h = RelayHealth::new();
        h.apply(&event(FaultKind::DeepFade { db: 15.0, steps: 2 }));
        h.apply(&event(FaultKind::Gen2Drop {
            p_drop: 0.5,
            steps: 1,
        }));
        assert!(h.uplink_faulted());
        h.tick();
        assert!(h.fade_steps_left == 1 && h.drop_steps_left == 0);
        h.tick();
        assert!(!h.uplink_faulted());
        assert_eq!(h.fade_db, 0.0);
    }

    #[test]
    fn phase_glitch_is_permanent_cfo_is_transient() {
        let mut h = RelayHealth::new();
        h.apply(&event(FaultKind::CfoDrift { rad: 1.0, steps: 2 }));
        assert!(h.phase_scatter_rad() > 0.9);
        h.tick();
        h.tick();
        assert_eq!(h.phase_scatter_rad(), 0.0);
        h.apply(&event(FaultKind::PhaseGlitch { rad: 2.0 }));
        for _ in 0..10 {
            h.tick();
        }
        assert_eq!(h.phase_scatter_rad(), 2.0);
    }

    #[test]
    fn degraded_model_erodes_the_stability_margin() {
        let base = RelayModel::prototype(rfly_dsp::units::Hertz::mhz(915.0));
        let mut h = RelayHealth::new();
        h.apply(&event(FaultKind::GainDrift { db: 30.0 }));
        h.apply(&event(FaultKind::PaSag { db: 5.0 }));
        let d = h.degraded_model(&base);
        assert!((d.gains.downlink.value() - base.gains.downlink.value() - 30.0).abs() < 1e-9);
        assert!(
            (base.stability_isolation.value() - d.stability_isolation.value() - 30.0).abs() < 1e-9
        );
        assert!((base.pa_limit.value() - d.pa_limit.value() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn full_drop_silences_the_medium_and_inactive_is_transparent() {
        let mut h = RelayHealth::new();
        h.apply(&event(FaultKind::Gen2Drop {
            p_drop: 1.0,
            steps: 3,
        }));
        let mut m = FixedMedium.layer(FaultLayer::new(&h, 1));
        assert!(m.transact(&Command::Nak).is_empty());

        let mut clean = FixedMedium.layer(FaultLayer::inactive(1));
        let obs = clean.transact(&Command::Nak);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].snr.value(), 20.0);
        assert_eq!(obs[0].channel, Complex::from_polar(1.0, 0.5));
    }

    #[test]
    fn fade_and_corruption_perturb_observations() {
        let mut h = RelayHealth::new();
        h.apply(&event(FaultKind::DeepFade { db: 12.0, steps: 3 }));
        h.apply(&event(FaultKind::NoiseBurst {
            p_corrupt: 1.0,
            steps: 3,
        }));
        let mut m = FixedMedium.layer(FaultLayer::new(&h, 2));
        let obs = m.transact(&Command::Nak);
        assert_eq!(obs[0].snr.value(), 8.0);
        assert!(obs[0].frame != Bits::from_str01("1011001110001111"));
        assert_eq!(obs[0].frame.len(), 16, "corruption flips, never truncates");
    }
}

//! The steppable mission state and its journal records.
//!
//! [`MissionState::advance`] executes one supervised (or bare) mission
//! step and returns the [`StepRecord`] that `rfly-replay` journals;
//! [`MissionState::snapshot`] / [`MissionState::from_snapshot`] are the
//! supervisor-level half of a crash-consistent checkpoint.

use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::GainPlan;
use rfly_drone::flightplan::FlightPlan;
use rfly_dsp::units::{Db, Hertz};
use rfly_dsp::Complex;
use rfly_fleet::channels::ChannelPlan;
use rfly_fleet::inventory::{stop_seed, FleetInventory, MissionConfig};
use rfly_fleet::partition::{partition, Cell, Partition};
use rfly_obs::Value;
use rfly_protocol::epc::Epc;
use rfly_sim::medium::{FleetRelay, FleetRf, WorldMedium};
use rfly_sim::world::{PhasorWorld, RelayModel};

use crate::inject::RelayHealth;
use crate::log::{LoggedRecovery, RecoveryAction, ResilienceLog};
use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};

use super::localize::{localize_all, track_coherence, ResilientOutcome};
use super::margin::{margin_monitor, worst_alive_margin};
use super::stop::inventory_stop;
use super::{MissionEnv, SupervisorConfig};

/// One stop's measurements through one relay — the unit of SAR track
/// data a mission checkpoint must carry.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrack {
    /// Where the relay believed it hovered (the position SAR uses).
    pub pos: Point2,
    /// Embedded-RFID channel observations at this stop (the coherence
    /// probe).
    pub embedded: Vec<Complex>,
    /// Deduplicated environment-tag channels observed at this stop.
    pub tags: Vec<(Epc, Complex)>,
}

/// One environment-tag read as the mission journal records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadRecord {
    /// The serving relay (original fleet index).
    pub relay: usize,
    /// The tag read.
    pub epc: Epc,
    /// The observed through-relay channel estimate.
    pub channel: Complex,
    /// The observed SNR.
    pub snr: Db,
}

/// Everything observable about one executed mission step — what
/// `rfly-replay` journals, and what its divergence detector compares
/// field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// The step index just executed.
    pub step: usize,
    /// Faults that struck this step (in application order).
    pub faults: Vec<FaultEvent>,
    /// Recovery actions this step (in order).
    pub recoveries: Vec<LoggedRecovery>,
    /// The fleet's worst alive mutual-loop pair `(i, j, margin_db)`
    /// under degraded gains, before any recovery this step.
    pub margin: Option<(usize, usize, f64)>,
    /// Environment-tag reads merged into the inventory this step.
    pub reads: Vec<ReadRecord>,
    /// The world's observation-noise RNG state after the step — the
    /// cheapest divergence probe (any extra or missing draw shows here).
    pub rng: [u64; 4],
    /// Whether the mission ended with this step.
    pub done: bool,
}

/// The supervisor-level half of a mission checkpoint: every mutable
/// field of [`MissionState`], public so `rfly-replay` can serialize it.
/// The world-level half is [`rfly_sim::world::WorldSnapshot`].
#[derive(Debug, Clone)]
pub struct MissionSnapshot {
    /// Next step index to execute.
    pub step: usize,
    /// Steps completed so far.
    pub steps: usize,
    /// Mission clock at the last completed step, seconds.
    pub duration_s: f64,
    /// The runaway-guard step cap.
    pub step_cap: usize,
    /// Whether the mission has ended.
    pub done: bool,
    /// Per-relay accumulated damage.
    pub health: Vec<RelayHealth>,
    /// The fault-and-recovery record so far.
    pub log: ResilienceLog,
    /// The deduplicated inventory so far.
    pub inventory: FleetInventory,
    /// Per-relay SAR track data so far.
    pub tracks: Vec<Vec<StepTrack>>,
    /// Current per-relay downlink carriers (Δf re-assignment rewrites
    /// these mid-flight).
    pub f1: Vec<Hertz>,
    /// Current per-relay frequency shifts.
    pub shift: Vec<Hertz>,
    /// The §6.1 gain allocation the channel plan was designed with.
    pub base_gains: GainPlan,
    /// Current flight plans (re-partitioning rewrites these).
    pub plans: Vec<FlightPlan>,
    /// Current cell assignment.
    pub cells: Vec<Cell>,
    /// Per-relay mission time at which its current route started.
    pub route_start: Vec<f64>,
    /// Per-relay accumulated route-hold time.
    pub hold: Vec<f64>,
    /// Per-relay last tracked position (goes stale through a dropout).
    pub believed: Vec<Point2>,
}

/// The full mutable state of one mission in flight, advanced one step
/// at a time.
///
/// [`super::run_supervised`] is a thin loop over [`Self::advance`]; the
/// stepper exists so `rfly-replay` can journal each [`StepRecord`],
/// checkpoint at step boundaries ([`Self::snapshot`] +
/// [`rfly_sim::world::PhasorWorld::snapshot`]), and resume a killed
/// mission bit-identically ([`Self::from_snapshot`] +
/// [`rfly_sim::world::PhasorWorld::restore`]).
#[derive(Debug, Clone)]
pub struct MissionState {
    n: usize,
    step: usize,
    steps: usize,
    duration_s: f64,
    step_cap: usize,
    done: bool,
    health: Vec<RelayHealth>,
    log: ResilienceLog,
    inventory: FleetInventory,
    tracks: Vec<Vec<StepTrack>>,
    f1: Vec<Hertz>,
    shift: Vec<Hertz>,
    base_gains: GainPlan,
    plans: Vec<FlightPlan>,
    cells: Vec<Cell>,
    route_start: Vec<f64>,
    hold: Vec<f64>,
    believed: Vec<Point2>,
}

impl MissionState {
    /// Fresh mission state at step 0.
    pub fn new(plan: &ChannelPlan, part: &Partition, cfg: &MissionConfig) -> Self {
        let n = part.len();
        assert_eq!(plan.f1.len(), n, "one channel pair per cell");
        let plans: Vec<FlightPlan> = part.plans.clone();
        let believed: Vec<Point2> = plans.iter().map(|p| p.position_at(0.0)).collect();
        // Hard cap: repartitions may lengthen the mission, but never
        // past 3× the fault-free step count (a runaway guard, not a
        // tuning knob).
        let base_steps = (part.duration() / cfg.sample_interval_s).ceil() as usize + 1;
        Self {
            n,
            step: 0,
            steps: 0,
            duration_s: 0.0,
            step_cap: base_steps * 3,
            done: false,
            health: vec![RelayHealth::new(); n],
            log: ResilienceLog::new(),
            inventory: FleetInventory::new(n),
            tracks: vec![Vec::new(); n],
            f1: plan.f1.clone(),
            shift: plan.shift.clone(),
            base_gains: plan.gains,
            plans,
            cells: part.cells.clone(),
            route_start: vec![0.0; n],
            hold: vec![0.0; n],
            believed,
        }
    }

    /// Whether the mission has ended (no further [`Self::advance`]).
    pub fn finished(&self) -> bool {
        self.done
    }

    /// The next step index to execute.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Captures the supervisor-level checkpoint half. Pair it with
    /// [`rfly_sim::world::PhasorWorld::snapshot`] taken at the same
    /// step boundary.
    pub fn snapshot(&self) -> MissionSnapshot {
        MissionSnapshot {
            step: self.step,
            steps: self.steps,
            duration_s: self.duration_s,
            step_cap: self.step_cap,
            done: self.done,
            health: self.health.clone(),
            log: self.log.clone(),
            inventory: self.inventory.clone(),
            tracks: self.tracks.clone(),
            f1: self.f1.clone(),
            shift: self.shift.clone(),
            base_gains: self.base_gains,
            plans: self.plans.clone(),
            cells: self.cells.clone(),
            route_start: self.route_start.clone(),
            hold: self.hold.clone(),
            believed: self.believed.clone(),
        }
    }

    /// Rebuilds mission state from a checkpoint.
    pub fn from_snapshot(snap: MissionSnapshot) -> Self {
        Self {
            n: snap.health.len(),
            step: snap.step,
            steps: snap.steps,
            duration_s: snap.duration_s,
            step_cap: snap.step_cap,
            done: snap.done,
            health: snap.health,
            log: snap.log,
            inventory: snap.inventory,
            tracks: snap.tracks,
            f1: snap.f1,
            shift: snap.shift,
            base_gains: snap.base_gains,
            plans: snap.plans,
            cells: snap.cells,
            route_start: snap.route_start,
            hold: snap.hold,
            believed: snap.believed,
        }
    }

    /// Executes one mission step: faults strike, the supervisor (if
    /// any) reacts, every surviving relay flies an inventory stop, and
    /// transient faults run down. Returns the step's journal record.
    ///
    /// Must not be called after [`Self::finished`] turns true.
    pub fn advance(
        &mut self,
        world: &mut PhasorWorld,
        env: &MissionEnv<'_>,
        cfg: &MissionConfig,
        schedule: &FaultSchedule,
        sup: Option<&SupervisorConfig>,
    ) -> StepRecord {
        assert!(!self.done, "advance() on a finished mission");
        let n = self.n;
        let step = self.step;
        let t = step as f64 * cfg.sample_interval_s;
        let faults_mark = self.log.faults.len();
        let recoveries_mark = self.log.recoveries.len();
        let mut reads_record: Vec<ReadRecord> = Vec::new();
        rfly_obs::counter_add("supervisor.steps", 1);

        // 1. This step's faults strike.
        let mut newly_dead = Vec::new();
        for ev in schedule.at(step) {
            if !self.health[ev.relay].alive {
                continue;
            }
            self.health[ev.relay].apply(ev);
            self.log.record_fault(ev);
            rfly_obs::counter_add("supervisor.faults", 1);
            if rfly_obs::is_active() {
                rfly_obs::event(
                    "supervisor.fault",
                    vec![
                        ("step", Value::U64(step as u64)),
                        ("relay", Value::U64(ev.relay as u64)),
                        ("kind", Value::Text(format!("{:?}", ev.kind))),
                    ],
                );
            }
            if !self.health[ev.relay].alive {
                newly_dead.push(ev.relay);
            }
        }

        // 2. Supervised: re-partition around any relay that went home.
        if sup.is_some() {
            for &dead in &newly_dead {
                let alive: Vec<usize> = (0..n).filter(|&i| self.health[i].alive).collect();
                #[expect(
                    clippy::expect_used,
                    reason = "relays enter newly_dead only after a battery fault is recorded"
                )]
                let trigger = self.health[dead].battery_fault.expect("sag was recorded");
                if alive.is_empty() {
                    break;
                }
                if let Ok(newp) = partition(env.scene, alive.len(), env.limits) {
                    let orphaned = self.cells[dead];
                    for (k, &r) in alive.iter().enumerate() {
                        self.plans[r] = newp.plans[k].clone();
                        self.cells[r] = newp.cells[k];
                        self.route_start[r] = t;
                        self.hold[r] = 0.0;
                    }
                    self.log.record(
                        step,
                        RecoveryAction::Repartition {
                            dead_relay: dead,
                            survivors: alive.len(),
                        },
                        trigger,
                    );
                    let to = alive
                        .iter()
                        .copied()
                        .find(|&r| self.cells[r].contains(orphaned.center()))
                        .unwrap_or(alive[0]);
                    self.log.record(
                        step,
                        RecoveryAction::CellHandoff {
                            cell: dead,
                            from: dead,
                            to,
                        },
                        trigger,
                    );
                }
            }
        }

        let alive: Vec<usize> = (0..n).filter(|&i| self.health[i].alive).collect();
        if alive.is_empty() {
            self.done = true;
            return StepRecord {
                step,
                faults: self.log.faults[faults_mark..].to_vec(),
                recoveries: self.log.recoveries[recoveries_mark..].to_vec(),
                margin: None,
                reads: reads_record,
                rng: world.rng_state(),
                done: true,
            };
        }

        // 3. Where every surviving drone actually is (wind included) —
        // and, supervised, hold any drone the tracker has lost.
        let mut positions: Vec<Point2> = Vec::with_capacity(alive.len());
        for &i in &alive {
            if sup.is_some() && self.health[i].tracking_lost() {
                self.hold[i] += cfg.sample_interval_s;
                if let Some(trigger) = self.health[i].last_tracking_fault {
                    self.log
                        .record(step, RecoveryAction::RouteHold { relay: i }, trigger);
                }
            }
            let t_eff =
                (t - self.route_start[i] - self.hold[i]).clamp(0.0, self.plans[i].duration());
            let (gx, gy) = self.health[i].gust_offset();
            let p = self.plans[i].position_at(t_eff);
            let pos = Point2::new(p.x + gx, p.y + gy);
            positions.push(pos);
            if !(self.health[i].tracking_lost() && sup.is_none()) {
                // Unsupervised drones fly on through a dropout, so
                // their recorded track goes stale.
                self.believed[i] = pos;
            }
        }

        // 4. The mutual-loop margin monitor. The worst degraded margin
        // is always computed (it is a journaled observable); only the
        // supervised run acts on it.
        let margin_record = {
            let drift: Vec<f64> = self.health.iter().map(|h| h.gain_drift_db).collect();
            let base_gains = self.base_gains;
            let degraded = |i: usize| GainPlan {
                downlink: base_gains.downlink + Db::new(drift[i]),
                uplink: base_gains.uplink,
            };
            let worst = worst_alive_margin(&alive, &positions, &self.f1, &self.shift, &degraded);
            if let Some((_, _, m)) = worst {
                rfly_obs::observe_db("supervisor.worst_margin_db", m);
            }
            if let Some(sup_cfg) = sup {
                margin_monitor(
                    sup_cfg,
                    env,
                    cfg,
                    step,
                    &alive,
                    &positions,
                    worst,
                    base_gains,
                    &mut self.f1,
                    &mut self.shift,
                    &mut self.health,
                    &mut self.log,
                );
            }
            worst.map(|(i, j, m)| (i, j, m.value()))
        };

        // 5. Build the (degraded) fleet and inventory through each
        // surviving relay in turn.
        let mut fleet: Vec<FleetRelay> = alive
            .iter()
            .zip(&positions)
            .map(|(&i, &pos)| {
                let base = RelayModel::from_budget(self.f1[i], self.shift[i], &env.budget);
                FleetRelay {
                    model: self.health[i].degraded_model(&base),
                    pos,
                }
            })
            .collect();
        // The step's RF plan, shared by every serving and retry below;
        // re-traced only when a gain trim rewrites a fleet member.
        let mut rf = FleetRf::trace(world, fleet.clone());

        for (s_idx, &relay) in alive.iter().enumerate() {
            let stop_seed = stop_seed(cfg.seed, step, relay);

            // Supervised: the serving relay's own Eq. 3 gate. Gain
            // drift eats stability_isolation directly, and no Δf
            // re-tune can fix a self-loop — the only cure is
            // re-programming the VGA chain back to its allocation.
            if sup.is_some() && self.health[relay].gain_drift_db > 0.0 && !rf.stable(s_idx) {
                let base = RelayModel::from_budget(self.f1[relay], self.shift[relay], &env.budget);
                let pristine = FleetRelay {
                    model: base,
                    pos: fleet[s_idx].pos,
                };
                if WorldMedium::probe_stability(world, &pristine) {
                    if let Some(trigger) = self.health[relay].last_gain_fault {
                        let trimmed = self.health[relay].gain_drift_db;
                        self.health[relay].gain_drift_db = 0.0;
                        let base =
                            RelayModel::from_budget(self.f1[relay], self.shift[relay], &env.budget);
                        fleet[s_idx].model = self.health[relay].degraded_model(&base);
                        rf = FleetRf::trace(world, fleet.clone());
                        self.log.record(
                            step,
                            RecoveryAction::GainTrim {
                                relay,
                                trimmed_db: trimmed,
                            },
                            trigger,
                        );
                    }
                }
            }
            let mut reads = inventory_stop(
                world,
                &rf,
                s_idx,
                &self.health[relay],
                stop_seed,
                cfg.max_rounds,
            );

            if let Some(sup_cfg) = sup {
                let mut attempt = 1;
                while attempt <= sup_cfg.max_retries
                    && self.health[relay].uplink_faulted()
                    && !reads.iter().any(|r| r.epc != PhasorWorld::embedded_epc())
                {
                    if let Some(trigger) = self.health[relay].last_uplink_fault {
                        self.log
                            .record(step, RecoveryAction::Retry { relay, attempt }, trigger);
                    }
                    reads = inventory_stop(
                        world,
                        &rf,
                        s_idx,
                        &self.health[relay],
                        stop_seed ^ ((attempt as u64) << 32),
                        cfg.max_rounds,
                    );
                    attempt += 1;
                }
            }

            let mut st = StepTrack {
                pos: self.believed[relay],
                embedded: Vec::new(),
                tags: Vec::new(),
            };
            for read in &reads {
                if read.epc == PhasorWorld::embedded_epc() {
                    st.embedded.push(read.channel);
                } else {
                    self.inventory.observe(read, relay, step);
                    reads_record.push(ReadRecord {
                        relay,
                        epc: read.epc,
                        channel: read.channel,
                        snr: read.snr,
                    });
                    if !st.tags.iter().any(|&(e, _)| e == read.epc) {
                        st.tags.push((read.epc, read.channel));
                    }
                }
            }
            if !st.embedded.is_empty() {
                self.tracks[relay].push(st);
            }
            world.power_cycle_tags();
        }

        // 6. Supervised: re-bias any sagged power amplifier. PA sag
        // compresses the relay's EIRP ceiling, so marginal tags stop
        // powering up — no Δf move or VGA trim can buy that back. The
        // output-power detector catches the compressed stop and
        // re-programs the PA bias to its §6.1 point for the next stop
        // (the sagged stop itself stays journaled as the observable
        // degradation).
        if sup.is_some() {
            for relay in 0..n {
                let sag = self.health[relay].pa_sag_db;
                if !self.health[relay].alive || sag <= 0.0 {
                    continue;
                }
                let trigger = self
                    .log
                    .faults
                    .iter()
                    .rev()
                    .find(|f| f.relay == relay && matches!(f.kind, FaultKind::PaSag { .. }))
                    .map(|f| f.id);
                if let Some(trigger) = trigger {
                    self.health[relay].pa_sag_db = 0.0;
                    self.log.record(
                        step,
                        RecoveryAction::PaRebias {
                            relay,
                            restored_db: sag,
                        },
                        trigger,
                    );
                }
            }
        }

        // 7. Transient faults run down; mission-over check.
        for h in self.health.iter_mut() {
            h.tick();
        }
        self.steps += 1;
        self.duration_s = t;
        self.step += 1;
        let end_time = alive
            .iter()
            .map(|&i| self.route_start[i] + self.hold[i] + self.plans[i].duration())
            .fold(0.0f64, f64::max);
        if t >= end_time || self.step >= self.step_cap {
            self.done = true;
        }

        let recoveries = self.log.recoveries[recoveries_mark..].to_vec();
        rfly_obs::counter_add("supervisor.recoveries", recoveries.len() as u64);
        if rfly_obs::is_active() {
            for r in &recoveries {
                rfly_obs::event(
                    "supervisor.recovery",
                    vec![
                        ("step", Value::U64(step as u64)),
                        ("action", Value::Text(r.action.name().to_string())),
                    ],
                );
            }
        }

        StepRecord {
            step,
            faults: self.log.faults[faults_mark..].to_vec(),
            recoveries,
            margin: margin_record,
            reads: reads_record,
            rng: world.rng_state(),
            done: self.done,
        }
    }

    /// Step 7 — end of mission: coherence-gated localization, then the
    /// outcome.
    pub fn into_outcome(
        mut self,
        env: &MissionEnv<'_>,
        sup: Option<&SupervisorConfig>,
    ) -> ResilientOutcome {
        let loc_cfg = sup.copied().unwrap_or_default();
        let coherence: Vec<f64> = self.tracks.iter().map(|trk| track_coherence(trk)).collect();
        let localization = localize_all(
            &self.tracks,
            &coherence,
            &self.f1,
            &self.shift,
            env,
            sup,
            &loc_cfg,
            &self.health,
            self.steps,
            &mut self.log,
        );
        ResilientOutcome {
            inventory: self.inventory,
            steps: self.steps,
            duration_s: self.duration_s,
            log: self.log,
            lost_relays: (0..self.n).filter(|&i| !self.health[i].alive).collect(),
            coherence,
            localization,
        }
    }
}

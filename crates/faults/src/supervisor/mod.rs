//! The degradation-aware mission supervisor.
//!
//! [`run_supervised`] flies the same TDM inventory mission as
//! [`rfly_fleet::inventory::run_mission`], but under a
//! [`FaultSchedule`], and reacts. Every stop also runs a one-round
//! coherence probe of the relay's embedded tag, so even a fault-free
//! supervised mission can read a different EPC set from `run_mission`
//! while flying the same stops. The reactions:
//!
//! * **Retry with bounded backoff** — an inventory stop that returns no
//!   environment reads while an uplink fault is active is re-attempted
//!   up to twice.
//! * **Δf re-assignment / gain trim** — every step the supervisor
//!   recomputes the fleet's worst mutual-loop margin with each relay's
//!   *degraded* gains. A fault-attributable violation first tries a
//!   fresh FCC channel assignment ([`rfly_fleet::channels::assign`]);
//!   if no re-tune restores the gate, the drifted VGA chain is
//!   re-programmed back to its §6.1 allocation.
//! * **Re-partition and cell handoff** — when a battery sag forces a
//!   drone home, the floor is re-partitioned among the survivors and
//!   the orphaned cell is handed to the relay now covering it.
//! * **Graceful localization degradation** — each relay's track
//!   coherence is measured from repeated embedded-RFID reads at the
//!   same hover point; a track below a fixed coherence gate (0.7)
//!   abandons SAR for coarse RSSI ranging ([`rfly_core::loc::rssi`]),
//!   flagged in the log.
//!
//! [`run_unsupervised`] flies the identical mission under the identical
//! schedule with every reaction disabled — the baseline that loses the
//! dead relay's cell outright.
//!
//! The module is split by concern: [`state`](self) holds the
//! steppable [`MissionState`] and its journal records, `stop` flies one
//! layered inventory stop, `margin` watches the mutual-loop gate, and
//! `localize` runs the coherence-gated end-of-mission localization.

mod localize;
mod margin;
mod state;
mod stop;

pub use localize::{LocMethod, LocalizationRecord, ResilientOutcome};
pub use state::{MissionState, ReadRecord, StepRecord, StepTrack};

use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::units::Db;
use rfly_fleet::channels::ChannelPlan;
use rfly_fleet::inventory::MissionConfig;
use rfly_fleet::partition::Partition;
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;

use crate::schedule::FaultSchedule;

/// Maximum retries of a silent, uplink-faulted inventory stop.
const MAX_RETRIES: usize = 2;

/// Candidate re-assignment seeds tried on a margin violation.
const REASSIGN_ATTEMPTS: usize = 4;

/// Selects the supervised mission: passing one to
/// [`MissionState::advance`] turns every reaction on. The reactions'
/// bounds are fixed (two stop retries, four re-assignment seeds), so
/// the type carries no fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupervisorConfig;

/// The static mission context the supervisor needs beyond the world:
/// the scene (re-partitioning), the isolation budget and margin gate
/// (re-assignment), and the drones' motion limits (re-routing).
#[derive(Debug, Clone)]
pub struct MissionEnv<'a> {
    /// The warehouse floor.
    pub scene: &'a Scene,
    /// The relays' shared isolation budget.
    pub budget: IsolationBudget,
    /// The Eq. 3 design margin every mutual loop must clear.
    pub margin: Db,
    /// The drones' motion limits.
    pub limits: MotionLimits,
}

/// Flies the mission under `schedule` with the supervisor active.
pub fn run_supervised(
    world: &mut PhasorWorld,
    plan: &ChannelPlan,
    part: &Partition,
    env: &MissionEnv<'_>,
    cfg: &MissionConfig,
    schedule: &FaultSchedule,
    sup: &SupervisorConfig,
) -> ResilientOutcome {
    run_faulted(world, plan, part, env, cfg, schedule, Some(sup))
}

/// Flies the identical mission under the identical schedule with every
/// supervisor reaction disabled — the degradation baseline.
pub fn run_unsupervised(
    world: &mut PhasorWorld,
    plan: &ChannelPlan,
    part: &Partition,
    env: &MissionEnv<'_>,
    cfg: &MissionConfig,
    schedule: &FaultSchedule,
) -> ResilientOutcome {
    run_faulted(world, plan, part, env, cfg, schedule, None)
}

fn run_faulted(
    world: &mut PhasorWorld,
    plan: &ChannelPlan,
    part: &Partition,
    env: &MissionEnv<'_>,
    cfg: &MissionConfig,
    schedule: &FaultSchedule,
    sup: Option<&SupervisorConfig>,
) -> ResilientOutcome {
    let mut state = MissionState::new(plan, part, cfg);
    while !state.finished() {
        let _ = state.advance(world, env, cfg, schedule, sup);
    }
    state.into_outcome(env, sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::RecoveryAction;
    use crate::schedule::{FaultEvent, FaultKind};

    fn small_mission(
        n_relays: usize,
        seed: u64,
    ) -> (Scene, ChannelPlan, Partition, PhasorWorld, MissionConfig) {
        let scene = Scene::warehouse(16.0, 12.0, 2);
        let (part, plan, world) = rfly_fleet::inventory::seeded_mission(
            &scene,
            n_relays,
            10,
            &IsolationBudget::fig9(),
            Db::new(10.0),
            seed,
        )
        .expect("mission builds");
        let cfg = MissionConfig {
            sample_interval_s: 8.0,
            max_rounds: 2,
            seed,
            time_budget_s: None,
        };
        (scene, plan, part, world, cfg)
    }

    #[test]
    fn fault_free_supervised_mission_flies_the_plain_pace_and_recovers_nothing() {
        let (scene, plan, part, mut world, cfg) = small_mission(2, 5);
        let env = MissionEnv {
            scene: &scene,
            budget: IsolationBudget::fig9(),
            margin: Db::new(10.0),
            limits: MotionLimits::indoor_drone(),
        };
        let out = run_supervised(
            &mut world,
            &plan,
            &part,
            &env,
            &cfg,
            &FaultSchedule::none(),
            &SupervisorConfig,
        );
        assert!(out.log.faults.is_empty());
        assert!(out.log.recoveries.is_empty(), "no faults, no recoveries");
        assert!(out.lost_relays.is_empty());
        assert!(out.inventory.unique_tags() > 0, "mission reads tags");
        assert!(
            out.coherence.iter().all(|&c| c > 0.9),
            "intact oscillators stay coherent: {:?}",
            out.coherence
        );
        assert!(out.log.is_consistent());
        // The supervised mission flies the plain mission's stops; its
        // reads differ through the embedded coherence probe. It reports
        // the time of its last stop, where `run_mission` clamps that
        // stop to the partition's duration.
        let (_, plan, part, mut plain_world, cfg) = small_mission(2, 5);
        let plain = rfly_fleet::inventory::run_mission(
            &mut plain_world,
            &plan,
            &part,
            &IsolationBudget::fig9(),
            &cfg,
        );
        assert_eq!(out.steps, plain.steps);
        let last_stop = (plain.steps - 1) as f64 * cfg.sample_interval_s;
        assert_eq!(out.duration_s, last_stop);
        assert!(
            plain.duration_s <= last_stop && plain.duration_s > last_stop - cfg.sample_interval_s
        );
    }

    /// Drives a mission through the public stepper, collecting every
    /// step record — the journal-side view of the mission.
    fn drive(
        world: &mut PhasorWorld,
        plan: &ChannelPlan,
        part: &Partition,
        env: &MissionEnv<'_>,
        cfg: &MissionConfig,
        schedule: &FaultSchedule,
        sup: Option<&SupervisorConfig>,
    ) -> (Vec<StepRecord>, ResilientOutcome) {
        let mut state = MissionState::new(plan, part, cfg);
        let mut records = Vec::new();
        while !state.finished() {
            records.push(state.advance(world, env, cfg, schedule, sup));
        }
        (records, state.into_outcome(env, sup))
    }

    /// The nondeterminism audit's pin: the supervised mission is a pure
    /// function of (seed, schedule) — no wall clocks, no iteration-order
    /// dependence, no RNG reuse. Two identically-constructed runs must
    /// agree on every journaled field, bit for bit.
    #[test]
    fn same_seed_twice_is_bit_identical() {
        let run = || {
            let (scene, plan, part, mut world, cfg) = small_mission(2, 11);
            let env = MissionEnv {
                scene: &scene,
                budget: IsolationBudget::fig9(),
                margin: Db::new(10.0),
                limits: MotionLimits::indoor_drone(),
            };
            let storm = FaultSchedule::storm(11, 2, 12);
            let sup = SupervisorConfig;
            drive(&mut world, &plan, &part, &env, &cfg, &storm, Some(&sup))
        };
        let (rec_a, out_a) = run();
        let (rec_b, out_b) = run();
        assert_eq!(rec_a, rec_b, "step records diverged between runs");
        assert_eq!(out_a.log, out_b.log);
        assert_eq!(out_a.inventory, out_b.inventory);
        assert_eq!(out_a.steps, out_b.steps);
        assert_eq!(
            out_a.duration_s.to_bits(),
            out_b.duration_s.to_bits(),
            "duration must be bit-identical"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out_a.coherence), bits(&out_b.coherence));
        assert_eq!(out_a.localization, out_b.localization);
    }

    /// Checkpoint/resume at every step boundary k: snapshotting, then
    /// resuming into a *freshly constructed* world, must reproduce the
    /// uninterrupted run's remaining step records bit-identically.
    #[test]
    fn snapshot_resume_mid_mission_is_bit_identical() {
        let seed = 13;
        let build = || {
            let (scene, plan, part, world, cfg) = small_mission(2, seed);
            (scene, plan, part, world, cfg)
        };
        let (scene, plan, part, mut world, cfg) = build();
        let env = MissionEnv {
            scene: &scene,
            budget: IsolationBudget::fig9(),
            margin: Db::new(10.0),
            limits: MotionLimits::indoor_drone(),
        };
        let storm = FaultSchedule::storm(seed, 2, 12);
        let sup = SupervisorConfig;

        // The uninterrupted run, with a checkpoint captured at k = 2.
        let kill_at = 2usize;
        let mut state = MissionState::new(&plan, &part, &cfg);
        let mut full_records = Vec::new();
        let mut checkpoint = None;
        while !state.finished() {
            if state.step() == kill_at {
                checkpoint = Some((state.clone(), world.snapshot()));
            }
            full_records.push(state.advance(&mut world, &env, &cfg, &storm, Some(&sup)));
        }
        let (mut resumed, world_snap) = checkpoint.expect("mission ran past the checkpoint step");

        // The crash: a brand-new world, restored from the checkpoint.
        let (_, _, _, mut world2, _) = build();
        world2.restore(&world_snap).expect("same construction");
        let mut tail_records = Vec::new();
        while !resumed.finished() {
            tail_records.push(resumed.advance(&mut world2, &env, &cfg, &storm, Some(&sup)));
        }
        assert_eq!(
            tail_records,
            full_records[kill_at..].to_vec(),
            "resumed remainder diverged from the uninterrupted run"
        );
    }

    /// The give-up path: an uplink fault that outlasts every retry. The
    /// supervisor must record exactly `MAX_RETRIES` attempts per starved
    /// stop, then move on — and the jammed relay contributes nothing
    /// while the fault is active.
    #[test]
    fn retries_exhaust_against_a_total_uplink_outage() {
        let (scene, plan, part, mut world, cfg) = small_mission(2, 21);
        let env = MissionEnv {
            scene: &scene,
            budget: IsolationBudget::fig9(),
            margin: Db::new(10.0),
            limits: MotionLimits::indoor_drone(),
        };
        // A certain-drop fault on relay 0 covering the whole mission:
        // no retry can ever succeed.
        let jam = FaultSchedule::from_events(vec![FaultEvent {
            id: 0,
            step: 0,
            relay: 0,
            kind: FaultKind::Gen2Drop {
                p_drop: 1.0,
                steps: 1000,
            },
        }]);
        let sup = SupervisorConfig;
        let (records, out) = drive(&mut world, &plan, &part, &env, &cfg, &jam, Some(&sup));

        assert_eq!(
            out.inventory.per_relay_reads[0], 0,
            "a 100%-drop uplink must yield zero reads through relay 0"
        );
        assert!(
            out.inventory.per_relay_reads[1] > 0,
            "the healthy relay still covers its cell"
        );
        // Every step starves relay 0, so every step exhausts the retry
        // budget: exactly MAX_RETRIES logged attempts per step, ending
        // at attempt == MAX_RETRIES (the give-up).
        assert_eq!(out.log.count("retry"), MAX_RETRIES * out.steps);
        for rec in &records {
            let attempts: Vec<usize> = rec
                .recoveries
                .iter()
                .filter_map(|r| match r.action {
                    RecoveryAction::Retry { relay: 0, attempt } => Some(attempt),
                    _ => None,
                })
                .collect();
            assert_eq!(attempts, vec![1, 2], "step {}: bounded backoff", rec.step);
            assert!(
                rec.reads.iter().all(|r| r.relay != 0),
                "step {}: no reads through the jammed relay",
                rec.step
            );
        }
        assert!(out.log.is_consistent());
    }

    #[test]
    fn battery_sag_repartitions_and_unsupervised_does_not() {
        let (scene, plan, part, mut world, cfg) = small_mission(2, 6);
        let env = MissionEnv {
            scene: &scene,
            budget: IsolationBudget::fig9(),
            margin: Db::new(10.0),
            limits: MotionLimits::indoor_drone(),
        };
        // A storm on 2 relays always sags one battery.
        let storm = FaultSchedule::storm(6, 2, 12);
        let dead = storm.battery_sag_relay().unwrap();

        let sup_out = run_supervised(
            &mut world,
            &plan,
            &part,
            &env,
            &cfg,
            &storm,
            &SupervisorConfig,
        );
        assert!(sup_out.lost_relays.contains(&dead));
        assert!(sup_out.log.count("repartition") >= 1);
        assert!(sup_out.log.count("cell-handoff") >= 1);
        assert!(sup_out.log.is_consistent());

        let (_, plan2, part2, mut world2, cfg2) = small_mission(2, 6);
        let unsup_out = run_unsupervised(&mut world2, &plan2, &part2, &env, &cfg2, &storm);
        assert!(unsup_out.lost_relays.contains(&dead));
        assert_eq!(unsup_out.log.count("repartition"), 0);
        assert_eq!(unsup_out.log.count("cell-handoff"), 0);
        assert!(unsup_out.log.is_consistent());
    }
}

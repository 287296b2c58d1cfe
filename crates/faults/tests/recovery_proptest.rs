//! Property test: any seeded fault schedule leaves the supervised
//! mission panic-free and the resilience log consistent — every
//! retry/handoff/fallback cites a fault event that actually struck at
//! or before it.
//!
//! The generator is [`FaultSchedule::random`]: arbitrary fault kinds,
//! arbitrary relays, arbitrary timing, including degenerate storms
//! (every relay dead, faults on already-dead relays, overlapping
//! transients).

use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::units::Db;
use rfly_faults::supervisor::{run_supervised, run_unsupervised, MissionEnv, SupervisorConfig};
use rfly_faults::FaultSchedule;
use rfly_fleet::channels::ChannelPlan;
use rfly_fleet::inventory::{seeded_mission, MissionConfig};
use rfly_fleet::partition::Partition;
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;

fn budget() -> IsolationBudget {
    IsolationBudget::fig9()
}

fn mission(
    scene: &Scene,
    n_relays: usize,
    seed: u64,
) -> (ChannelPlan, Partition, PhasorWorld, MissionConfig) {
    let (part, plan, world) =
        seeded_mission(scene, n_relays, 12, &budget(), Db::new(10.0), seed).expect("builds");
    let cfg = MissionConfig {
        sample_interval_s: 8.0,
        max_rounds: 2,
        seed,
        time_budget_s: None,
    };
    (plan, part, world, cfg)
}

/// The property: for every random schedule, the supervised mission
/// completes without panicking, its log is consistent, and no recovery
/// exists without a triggering fault. Unsupervised runs log no
/// recoveries at all.
#[test]
fn any_random_schedule_is_survivable_and_auditable() {
    let scene = Scene::warehouse(16.0, 12.0, 2);
    let env = MissionEnv {
        scene: &scene,
        budget: budget(),
        margin: Db::new(10.0),
        limits: MotionLimits::indoor_drone(),
    };
    for case in 0..8u64 {
        let n_relays = 2 + (case % 2) as usize;
        let (plan, part, mut world, cfg) = mission(&scene, n_relays, 100 + case);
        let steps = (part.duration() / cfg.sample_interval_s).ceil() as usize + 1;
        let schedule = FaultSchedule::random(case, n_relays, steps, 6 + (case as usize % 7));

        let out = run_supervised(
            &mut world,
            &plan,
            &part,
            &env,
            &cfg,
            &schedule,
            &SupervisorConfig::default(),
        );
        assert!(
            out.log.is_consistent(),
            "case {case}: recovery without a triggering fault: {:?}",
            out.log
        );
        // Only scheduled faults can be recorded, and only against
        // relays that were still alive when they struck.
        for f in &out.log.faults {
            assert!(
                schedule.events().contains(f),
                "case {case}: logged fault {f:?} was never scheduled"
            );
        }
        assert_eq!(out.coherence.len(), n_relays);
        assert!(out
            .coherence
            .iter()
            .all(|c| (0.0..=1.0 + 1e-12).contains(c)));
        assert!(
            out.steps > 0,
            "case {case}: mission must take at least one step"
        );

        let (plan2, part2, mut world2, cfg2) = mission(&scene, n_relays, 100 + case);
        let base = run_unsupervised(&mut world2, &plan2, &part2, &env, &cfg2, &schedule);
        assert!(
            base.log.recoveries.is_empty(),
            "case {case}: the unsupervised baseline must never recover"
        );
        assert!(base.log.is_consistent());
    }
}

/// The storm generator itself upholds the property on bigger fleets.
#[test]
fn standard_storms_are_survivable_on_a_three_relay_fleet() {
    let scene = Scene::warehouse(18.0, 14.0, 2);
    let env = MissionEnv {
        scene: &scene,
        budget: budget(),
        margin: Db::new(10.0),
        limits: MotionLimits::indoor_drone(),
    };
    for seed in [3u64, 11] {
        let (plan, part, mut world, cfg) = mission(&scene, 3, seed);
        let steps = (part.duration() / cfg.sample_interval_s).ceil() as usize + 1;
        let storm = FaultSchedule::storm(seed, 3, steps);
        let out = run_supervised(
            &mut world,
            &plan,
            &part,
            &env,
            &cfg,
            &storm,
            &SupervisorConfig::default(),
        );
        assert!(out.log.is_consistent(), "seed {seed}");
        assert!(
            out.lost_relays
                .contains(&storm.battery_sag_relay().unwrap()),
            "seed {seed}: the sagged relay must be recorded as lost"
        );
        assert!(
            out.log.count("repartition") >= 1,
            "seed {seed}: a death must trigger re-partitioning"
        );
    }
}

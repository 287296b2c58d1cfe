//! Fault storm: a supervised fleet mission rides out every fault the
//! injector can throw; an unsupervised one loses a cell.
//!
//! Three missions fly the paper's 30 × 40 m warehouse (220 tags, 4
//! relays) from identical initial conditions:
//!
//! 1. **fault-free** — the control run; its deduplicated read rate is
//!    the 100% mark,
//! 2. **supervised** — the standard [`FaultSchedule::storm`] strikes
//!    (a battery sag kills one drone, an oscillator glitch scrambles a
//!    second relay's phase, a gain stage drifts hot, and the tag
//!    uplink suffers drops/fades/noise bursts) with the degradation
//!    supervisor active,
//! 3. **unsupervised** — the *identical* storm with every recovery
//!    disabled.
//!
//! The acceptance gates assert the headline resilience claim: the
//! supervised mission retains ≥ 80% of the fault-free read rate with a
//! consistent, fault-attributed resilience log (including SAR→RSSI
//! localization fallback on the phase-glitched relay), while the
//! unsupervised baseline loses the dead relay's cell outright.
//!
//! The supervised mission is also flown a second time from the
//! declarative scenario file `scenarios/fault_storm_paper.toml`
//! (re-seeded from argv): its compiled storm and its outcome must be
//! bit-identical to the hard-coded setup.
//!
//! Run with: `cargo run --release --example fault_storm [seed]`

use rfly::channel::geometry::Point2;
use rfly::core::relay::gains::IsolationBudget;
use rfly::drone::kinematics::MotionLimits;
use rfly::dsp::rng::{Rng, StdRng};
use rfly::dsp::units::Db;
use rfly::faults::supervisor::{run_supervised, run_unsupervised, LocMethod, MissionEnv};
use rfly::faults::{FaultKind, FaultSchedule, ResilientOutcome, SupervisorConfig};
use rfly::fleet::inventory::{mission_world, MissionConfig};
use rfly::fleet::{assign, partition};
use rfly::sim::scene::Scene;
use rfly::tag::population::TagPopulation;

const N_RELAYS: usize = 4;
const N_TAGS: usize = 220;
const MARGIN: Db = Db(10.0);

/// Tagged items on random shelf spots, with rack-depth scatter.
fn items(scene: &Scene, n: usize, seed: u64) -> TagPopulation {
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..n)
        .map(|_| {
            let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
            Point2::new(
                spot.x + rng.gen_range(-0.8..0.8),
                spot.y + 0.3 - rng.gen_range(0.2..0.8),
            )
        })
        .collect();
    TagPopulation::generate(n, &positions, seed ^ 0xF1EE7)
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(42);
    let scene = Scene::paper_building();
    let budget = IsolationBudget::fig9();
    let limits = MotionLimits::indoor_drone();

    let part = partition(&scene, N_RELAYS, limits).expect("cells fit the floor");
    let hover: Vec<Point2> = part.cells.iter().map(|c| c.center()).collect();
    let plan = assign(&hover, &budget, MARGIN, seed).expect("feasible channel plan");
    let cfg = MissionConfig {
        sample_interval_s: 4.0,
        max_rounds: 3,
        seed,
        time_budget_s: None,
    };
    let env = MissionEnv {
        scene: &scene,
        budget,
        margin: MARGIN,
        limits,
    };
    let sup_cfg = SupervisorConfig;

    let base_steps = (part.duration() / cfg.sample_interval_s).ceil() as usize + 1;
    let storm = FaultSchedule::storm(seed, N_RELAYS, base_steps);
    let dead = storm
        .battery_sag_relay()
        .expect("the storm kills one drone");
    println!(
        "seed {seed}: {} scheduled faults over {base_steps} steps; relay {dead} will sag\n",
        storm.events().len()
    );

    let fly = |schedule: &FaultSchedule, supervised: bool| -> ResilientOutcome {
        let mut world = mission_world(
            &scene,
            Point2::new(1.0, 1.0),
            items(&scene, N_TAGS, seed),
            &plan,
            &budget,
            seed,
        );
        if supervised {
            run_supervised(&mut world, &plan, &part, &env, &cfg, schedule, &sup_cfg)
        } else {
            run_unsupervised(&mut world, &plan, &part, &env, &cfg, schedule)
        }
    };
    let clean = fly(&FaultSchedule::none(), true);
    // The supervised storm flies instrumented: every layer of the stack
    // feeds the recorder, and the mission's metric report lands under
    // results/obs/ in both text and JSON.
    rfly::obs::install(rfly::obs::Recorder::new(&format!("fault_storm_seed{seed}")));
    let sup = fly(&storm, true);
    let recorder = rfly::obs::take().expect("recorder was installed");
    let unsup = fly(&storm, false);

    // The same supervised storm, but loaded from the scenario file
    // (re-seeded so `cargo run --example fault_storm 7` still matches).
    let spec_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/fault_storm_paper.toml");
    let spec = rfly::scenario::load(&spec_path)
        .expect("scenario file parses")
        .with_seed(seed);
    let compiled = rfly::scenario::compile(&spec).expect("scenario compiles");
    assert_eq!(
        compiled.faults.events(),
        storm.events(),
        "the scenario-compiled storm must match the hard-coded schedule"
    );
    let mut scenario_world = compiled.world();
    let scenario_sup = run_supervised(
        &mut scenario_world,
        &compiled.plan,
        &compiled.partition,
        &compiled.mission_env(),
        &compiled.mission,
        &compiled.faults,
        &sup_cfg,
    );
    assert_eq!(
        sup, scenario_sup,
        "scenarios/fault_storm_paper.toml must reproduce the supervised mission bit for bit"
    );
    println!("scenario file reproduces the supervised mission bit for bit");

    // Per-cell accounting: which fraction of the dead relay's original
    // cell did each mission actually read?
    let tags = items(&scene, N_TAGS, seed);
    let dead_cell = part.cells[dead];
    let cell_tags: Vec<_> = tags
        .tags()
        .iter()
        .filter(|t| dead_cell.contains(t.position()))
        .map(|t| t.epc())
        .collect();
    let cell_rate = |out: &ResilientOutcome| {
        cell_tags
            .iter()
            .filter(|&&e| out.inventory.get(e).is_some())
            .count() as f64
            / cell_tags.len().max(1) as f64
    };
    // "Losing the cell outright" = after the sag, the cell stops
    // yielding new tags. Count dead-cell tags first discovered after
    // the sag step: the supervised fleet re-covers the cell, the
    // unsupervised one gets only boundary spillover from neighbors.
    let sag_step = storm
        .events()
        .iter()
        .find(|e| matches!(e.kind, FaultKind::BatterySag))
        .expect("storm has a sag")
        .step;
    let post_sag = |out: &ResilientOutcome| {
        cell_tags
            .iter()
            .filter(|&&e| {
                out.inventory
                    .get(e)
                    .is_some_and(|r| r.first_seen.step > sag_step)
            })
            .count()
    };

    let retention = sup.inventory.unique_tags() as f64 / clean.inventory.unique_tags() as f64;
    println!(
        "fault-free : {}/{N_TAGS} tags in {:.0} s ({} steps)",
        clean.inventory.unique_tags(),
        clean.duration_s,
        clean.steps
    );
    println!(
        "supervised : {}/{N_TAGS} tags in {:.0} s ({} steps) — {:.1}% retention",
        sup.inventory.unique_tags(),
        sup.duration_s,
        sup.steps,
        100.0 * retention
    );
    println!(
        "unsupervised: {}/{N_TAGS} tags in {:.0} s ({} steps)",
        unsup.inventory.unique_tags(),
        unsup.duration_s,
        unsup.steps
    );
    println!(
        "\nrelay {dead}'s cell ({} tags): fault-free {:.0}%, supervised {:.0}%, unsupervised {:.0}%",
        cell_tags.len(),
        100.0 * cell_rate(&clean),
        100.0 * cell_rate(&sup),
        100.0 * cell_rate(&unsup)
    );
    println!(
        "dead-cell tags first seen after the sag (step {sag_step}): supervised {}, unsupervised {}",
        post_sag(&sup),
        post_sag(&unsup)
    );
    println!("\ntrack coherence: {:?}", sup.coherence);
    let by_method = |out: &ResilientOutcome, m: LocMethod| {
        out.localization.iter().filter(|r| r.method == m).count()
    };
    println!(
        "localization: {} SAR, {} RSSI-fallback, {} unavailable",
        by_method(&sup, LocMethod::Sar),
        by_method(&sup, LocMethod::RssiFallback),
        by_method(&sup, LocMethod::Unavailable)
    );
    println!();
    sup.log.summary_table().print(false);

    // The acceptance gates.
    assert!(
        clean.log.faults.is_empty() && clean.log.recoveries.is_empty(),
        "the control run must be untouched"
    );
    assert!(
        retention >= 0.80,
        "supervised mission must retain >=80% of the fault-free read rate, got {:.1}%",
        100.0 * retention
    );
    assert!(
        sup.log.is_consistent() && unsup.log.is_consistent(),
        "every recovery must cite a prior fault"
    );
    assert!(
        sup.lost_relays.contains(&dead),
        "the sagged drone goes home"
    );
    assert!(
        sup.log.count("repartition") >= 1 && sup.log.count("cell-handoff") >= 1,
        "the supervisor must re-partition around the dead relay"
    );
    assert!(
        !sup.log.sar_fallbacks().is_empty(),
        "the phase-glitched relay must fall back to RSSI localization"
    );
    assert!(
        cell_rate(&unsup) < cell_rate(&sup),
        "supervision must out-read the baseline in the orphaned cell"
    );
    assert!(
        post_sag(&unsup) * 2 <= post_sag(&sup),
        "without supervision the dead relay's cell must be lost outright: after the \
         sag it yielded {} new tags unsupervised vs {} supervised",
        post_sag(&unsup),
        post_sag(&sup)
    );
    let report = rfly::obs::Report::from_recorder(&recorder);
    match report.write_to_dir(
        std::path::Path::new("results/obs"),
        &format!("fault_storm_seed{seed}"),
    ) {
        Ok((txt, _json)) => println!("\nobs metric report: {}", txt.display()),
        Err(e) => eprintln!("\nobs metric report not written: {e}"),
    }
    println!("\nall fault-storm gates passed (seed {seed})");
}

//! Fleet warehouse inventory: N drone relays, one reader, one floor.
//!
//! The paper flies one relay; this example flies a fleet of four over
//! the paper's 30 × 40 m warehouse with 220 tagged items. The fleet
//! stack does everything a deployment needs:
//!
//! 1. partition the floor into per-relay cells with boustrophedon
//!    routes over each cell's aisles,
//! 2. assign each relay a distinct (f₁, Δ) pair from the FCC hopping
//!    plan so every pairwise relay-to-relay feedback loop clears the
//!    extended Eq. 3 stability gate,
//! 3. fly the mission, inventorying through each relay in turn, and
//!    merge all observation streams into one deduplicated inventory.
//!
//! For scale, a single-relay baseline flies the same warehouse alone
//! under the same mission-time budget — the fleet's aggregate read
//! rate must strictly beat it.
//!
//! The fleet mission is also flown a second time from the declarative
//! scenario file `scenarios/warehouse_paper.toml`; the outcome must be
//! bit-identical to the hard-coded setup, proving the scenario
//! compiler is a faithful front end.
//!
//! Run with: `cargo run --release --example fleet_warehouse`

use rfly::channel::geometry::Point2;
use rfly::core::relay::gains::IsolationBudget;
use rfly::drone::kinematics::MotionLimits;
use rfly::dsp::rng::{Rng, StdRng};
use rfly::dsp::units::Db;
use rfly::fleet::inventory::{mission_world, run_mission, MissionConfig, MissionOutcome};
use rfly::fleet::report::{margin_histogram, per_relay_table, summary_table};
use rfly::fleet::{assign, partition, ChannelPlan, Partition};
use rfly::sim::scene::Scene;
use rfly::tag::population::TagPopulation;

const N_RELAYS: usize = 4;
const N_TAGS: usize = 220;
const MARGIN: Db = Db(10.0);
const SEED: u64 = 42;

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

fn fly(
    scene: &Scene,
    n_relays: usize,
    cfg: &MissionConfig,
) -> (ChannelPlan, Partition, MissionOutcome) {
    let budget = IsolationBudget::fig9();
    let cells =
        partition(scene, n_relays, MotionLimits::indoor_drone()).expect("cells fit the floor");
    let hover: Vec<Point2> = cells.cells.iter().map(|c| c.center()).collect();
    let plan = assign(&hover, &budget, MARGIN, SEED).expect("feasible channel plan");
    let mut world = mission_world(
        scene,
        Point2::new(1.0, 1.0),
        items(scene, N_TAGS, SEED),
        &plan,
        &budget,
        cfg.seed,
    );
    let outcome = run_mission(&mut world, &plan, &cells, &budget, cfg);
    (plan, cells, outcome)
}

fn main() {
    let scene = Scene::paper_building();
    println!(
        "warehouse {}x{} m, {} aisles, {} tags, {} relays\n",
        scene.max.x,
        scene.max.y,
        scene.aisles.len(),
        N_TAGS,
        N_RELAYS
    );

    let cfg = MissionConfig {
        sample_interval_s: 4.0,
        max_rounds: 3,
        seed: SEED,
        time_budget_s: None,
    };
    let (plan, cells, outcome) = fly(&scene, N_RELAYS, &cfg);

    // The same mission, but loaded from the scenario file.
    let spec_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/warehouse_paper.toml");
    let spec = rfly::scenario::load(&spec_path).expect("scenario file parses");
    let compiled = rfly::scenario::compile(&spec).expect("scenario compiles");
    let mut scenario_world = compiled.world();
    let scenario_outcome = run_mission(
        &mut scenario_world,
        &compiled.plan,
        &compiled.partition,
        &compiled.budget,
        &compiled.mission,
    );
    assert_eq!(
        outcome, scenario_outcome,
        "scenarios/warehouse_paper.toml must reproduce the hard-coded mission bit for bit"
    );
    println!("scenario file reproduces the hard-coded mission bit for bit\n");

    // The single-relay baseline gets the same mission time.
    let solo_cfg = MissionConfig {
        time_budget_s: Some(outcome.duration_s),
        ..cfg
    };
    let (_, _, solo) = fly(&scene, 1, &solo_cfg);

    summary_table(&outcome, N_TAGS).print(false);
    per_relay_table(&plan, &outcome).print(false);
    margin_histogram(&plan).print(false);

    let fleet_rate = outcome.inventory.read_rate(N_TAGS);
    let solo_rate = solo.inventory.read_rate(N_TAGS);
    println!(
        "fleet: {}/{N_TAGS} tags in {:.0} s  |  single relay, same time: {}/{N_TAGS}",
        outcome.inventory.unique_tags(),
        outcome.duration_s,
        solo.inventory.unique_tags()
    );
    println!(
        "aggregate read rate {:.1} % vs single-relay baseline {:.1} %; {} handoffs",
        100.0 * fleet_rate,
        100.0 * solo_rate,
        outcome.inventory.handoffs()
    );

    // The acceptance gates.
    const _: () = assert!(N_TAGS >= 200, "warehouse must hold at least 200 tags");
    assert!(cells.len() >= 3, "fleet must fly at least 3 relays");
    let min_margin = plan.min_margin().expect("pairwise margins exist");
    assert!(
        min_margin.value() >= MARGIN.value(),
        "a relay pair violates the Eq. 3 gate: {min_margin}"
    );
    assert!(
        fleet_rate > solo_rate,
        "fleet rate {fleet_rate} must strictly exceed single-relay {solo_rate}"
    );
}

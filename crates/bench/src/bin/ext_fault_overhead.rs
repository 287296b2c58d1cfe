//! Extension — fault-injector transparency: what stacking a
//! [`FaultLayer`] on the relay hot path costs when **no** fault is
//! active.
//!
//! The supervisor keeps the injector in the loop for the whole
//! mission, so the zero-fault path runs on every Gen2 transaction of
//! every inventory stop. An inactive layer draws nothing from its RNG
//! and forwards each transaction untouched, so it must add zero work.
//! That is checked exactly, not timed: from identical world states,
//! `STOPS` inventory stops through a bare [`WorldMedium`] and through
//! `FaultLayer::inactive` must give the same reads, the same
//! `sim.transactions` and `sim.tag_visits` counts (the `rfly_obs`
//! counters) and the same [`PhasorWorld::snapshot`]. A planted control,
//! a layer with one active noise-burst fault, must trip the same check.
//!
//! Wall time is telemetry only: the median and quartiles of the
//! wrapped/bare ratio over interleaved timed pairs.
//!
//! Run with: `cargo run --release --bin ext_fault_overhead`

use rfly_bench::prelude::*;
use rfly_channel::geometry::Point2;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::rng::StdRng;
use rfly_dsp::units::Db;
use rfly_faults::{FaultEvent, FaultKind, FaultLayer, RelayHealth};
use rfly_fleet::inventory::mission_world;
use rfly_fleet::{assign, partition};
use rfly_reader::inventory::{InventoryController, TagRead};
use rfly_reader::medium::MediumExt;
use rfly_sim::medium::{FleetRelay, FleetRf, WorldMedium};
use rfly_sim::scene::Scene;
use rfly_sim::world::{PhasorWorld, RelayModel};

const N_TAGS: usize = 60;
const ROUNDS_PER_STOP: usize = 3;
const STOPS: usize = 120;
const TRIALS: usize = 11;
const SEED: u64 = 42;

fn build() -> (PhasorWorld, Vec<FleetRelay>) {
    let scene = Scene::warehouse(20.0, 16.0, 3);
    let budget = IsolationBudget::fig9();
    let part = partition(&scene, 2, MotionLimits::indoor_drone()).expect("cells fit");
    let hover: Vec<Point2> = part.cells.iter().map(|c| c.center()).collect();
    let plan = assign(&hover, &budget, Db::new(10.0), SEED).expect("feasible plan");
    let tags = shelf_items(&scene, N_TAGS, SEED, None);
    let world = mission_world(&scene, Point2::new(1.0, 1.0), tags, &plan, &budget, SEED);
    let fleet: Vec<FleetRelay> = hover
        .iter()
        .enumerate()
        .map(|(i, &pos)| FleetRelay {
            model: RelayModel::from_budget(plan.f1[i], plan.shift[i], &budget),
            pos,
        })
        .collect();
    (world, fleet)
}

/// Which medium stack a pass runs through.
#[derive(Debug, Clone, Copy)]
enum Stack {
    Bare,
    Inactive,
    /// The planted control: one active noise-burst fault.
    Faulted,
}

/// `STOPS` full inventory stops through `stack`, all served from one RF
/// plan (nothing moves between stops); returns every read.
fn run(world: &mut PhasorWorld, fleet: &[FleetRelay], stack: Stack) -> Vec<TagRead> {
    let rf = FleetRf::trace(world, fleet.to_vec());
    let mut reads = Vec::new();
    for stop in 0..STOPS {
        let seed = SEED ^ stop as u64;
        let mut ctrl = InventoryController::new(world.config.clone(), StdRng::seed_from_u64(seed));
        let medium = WorldMedium::fleet_planned(world, &rf, stop % fleet.len());
        reads.extend(match stack {
            Stack::Bare => {
                let mut medium = medium;
                ctrl.run_until_quiet(&mut medium, ROUNDS_PER_STOP)
            }
            Stack::Inactive => {
                let mut layered = medium.layer(FaultLayer::inactive(seed));
                ctrl.run_until_quiet(&mut layered, ROUNDS_PER_STOP)
            }
            Stack::Faulted => {
                let mut health = RelayHealth::new();
                health.apply(&FaultEvent {
                    id: 0,
                    step: 0,
                    relay: 0,
                    kind: FaultKind::NoiseBurst {
                        p_corrupt: 0.5,
                        steps: 1,
                    },
                });
                let mut layered = medium.layer(FaultLayer::new(&health, seed));
                ctrl.run_until_quiet(&mut layered, ROUNDS_PER_STOP)
            }
        });
        world.power_cycle_tags();
    }
    reads
}

/// The deterministic outcome of one pass from a freshly built world.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every read, in order, rendered exactly.
    reads: String,
    /// The `sim.transactions` counter.
    transactions: u64,
    /// The `sim.tag_visits` counter: tag protocol steps the medium ran.
    tag_visits: u64,
    /// The world state after the last stop.
    snapshot: String,
}

fn outcome(stack: Stack) -> Outcome {
    let (mut world, fleet) = build();
    rfly_obs::install(rfly_obs::Recorder::new("ext_fault_overhead"));
    let reads = run(&mut world, &fleet, stack);
    let rec = rfly_obs::take().expect("recorder installed above");
    let counter = |name: &str| rec.counters.get(name).copied().unwrap_or(0);
    Outcome {
        reads: format!("{reads:?}"),
        transactions: counter("sim.transactions"),
        tag_visits: counter("sim.tag_visits"),
        snapshot: format!("{:?}", world.snapshot()),
    }
}

fn main() {
    let mut bench = Bench::new("ext_fault_overhead", SEED);

    // The gate: an inactive injector is exactly transparent.
    let bare = outcome(Stack::Bare);
    let inactive = outcome(Stack::Inactive);
    let faulted = outcome(Stack::Faulted);
    assert!(bare.transactions > 0, "the obs counter saw no transactions");
    assert!(bare.tag_visits > 0, "the obs counter saw no tag visits");
    assert_eq!(
        bare, inactive,
        "an inactive injector must leave reads, transaction and tag-visit counts and world state unchanged"
    );
    assert_ne!(
        bare, faulted,
        "planted control: an active fault slipped past the transparency check"
    );
    println!(
        "transparency: {} transactions, {} tag visits, identical reads and world snapshot; \
         planted fault caught ({} transactions, {} tag visits)",
        bare.transactions, bare.tag_visits, faulted.transactions, faulted.tag_visits
    );

    // Telemetry: interleaved timed pairs, alternating which stack runs
    // first so a systematic first-runner penalty cancels.
    let (mut world, fleet) = build();
    let mut wall = |stack: Stack| time(|| run(&mut world, &fleet, stack)).1;
    let mut rows = Vec::new();
    for trial in 0..TRIALS {
        let (b, w) = if trial % 2 == 0 {
            let b = wall(Stack::Bare);
            (b, wall(Stack::Inactive))
        } else {
            let w = wall(Stack::Inactive);
            (wall(Stack::Bare), w)
        };
        rows.push((b, w));
    }

    let mut t = Table::new(
        "Zero-fault injector wall time (telemetry)",
        &["trial", "bare (ms)", "wrapped (ms)", "ratio"],
    );
    for (trial, (b, w)) in rows.iter().enumerate() {
        t.row(&[
            trial.to_string(),
            format!("{:.2}", 1e3 * b),
            format!("{:.2}", 1e3 * w),
            format!("{:.4}", w / b),
        ]);
    }
    // Wall time: printed, never recorded in the committed report.
    t.print(false);

    let mut ratios: Vec<f64> = rows.iter().map(|(b, w)| w / b).collect();
    let (q1, median, q3) = quartiles(&mut ratios);
    println!(
        "\n{STOPS} stops x {ROUNDS_PER_STOP} rounds, {N_TAGS} tags: wrapped/bare median {median:.4} \
         (IQR {q1:.4}-{q3:.4}, telemetry only)"
    );
    bench.metric("sim_transactions", bare.transactions as f64);
    bench.metric("sim_tag_visits", bare.tag_visits as f64);
    bench.telemetry("zero_fault_ratio_median", median);
    bench.telemetry("zero_fault_ratio_q1", q1);
    bench.telemetry("zero_fault_ratio_q3", q3);
    println!("transparency gate passed");
    bench.finish();
}

//! Extension — fleet scaling: multi-warehouse campaigns, 32 → 128
//! relays, ≥10k tags per row, on the deterministic work pool.
//!
//! The paper flies one relay; this sweep asks how inventory scales
//! when the *operation* grows past one warehouse. FCC Part 15 caps a
//! single site's fleet well below 32 relays (every relay needs a
//! distinct channel pair with ≥1 MHz carrier spacing inside one band),
//! so large fleets are campaigns: `n / 8` independent warehouse sites,
//! each flying the 8-relay paper-building mission over its own tag
//! population and seed. Sites share no state, which makes them exactly
//! the indexed-task shape `rfly_sim::pool::Pool` runs: the sweep fans
//! sites out over the pool and merges rows in site order.
//!
//! Every row is flown twice — once at 1 worker, once at the full
//! width (`RFLY_THREADS` or available parallelism) — and the rows are
//! asserted **bit-identical** before printing: worker count may only
//! change wall-clock, never bytes. That bit-identity is the only
//! parallel check; the serial/parallel ratio is printed and lands in
//! `BENCH_report.json` as `parallel_speedup`, as telemetry only.
//!
//! Feasibility (partition + channel assignment) is pre-flighted
//! serially per row before any mission spawns, so an infeasible row
//! stops the sweep without burning worker time; a worker panic
//! surfaces as that row's `Err` note, never as a process abort.

#![allow(
    clippy::disallowed_types,
    reason = "wall-clock timing is telemetry, outside the seeded contract"
)]

use std::time::Instant;

use rfly_bench::prelude::*;
use rfly_channel::geometry::Point2;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::units::{Db, Meters};
use rfly_fleet::channels::ChannelPlan;
use rfly_fleet::inventory::{mission_world, run_mission, MissionConfig};
use rfly_fleet::partition::Partition;
use rfly_fleet::{assign, partition};
use rfly_sim::pool::{global_workers, set_global_workers, Pool};
use rfly_sim::scene::Scene;

const MARGIN: Db = Db(10.0);
const SEED: u64 = 7;
/// One warehouse site's fleet: the largest size the band fits with
/// 1 MHz carrier spacing and the 12 dB fault headroom.
const SITE_RELAYS: usize = 8;
/// Tags inventoried by every row of the sweep (≥ 10k, split evenly
/// across the row's sites).
const ROW_TAGS: usize = 10_240;
/// Campaign fleet sizes: 4, 8, and 16 warehouse sites.
const FLEETS: [usize; 3] = [32, 64, 128];
/// Per-site mission cap: enough flight for three inventory stops per
/// cell, which bounds the sweep's wall-clock without changing its
/// scaling shape.
const TIME_BUDGET_S: f64 = 8.0;

/// One warehouse site's flown outcome.
struct SiteOutcome {
    duration_s: f64,
    steps: usize,
    unique: usize,
    handoffs: usize,
    min_margin: Option<Db>,
}

/// A pre-flighted site: partition + channel plan proven feasible
/// before any mission work spawns.
struct SitePlan {
    cells: Partition,
    plan: ChannelPlan,
    seed: u64,
    tags: usize,
}

/// Pre-flights one row serially: partitioning and channel assignment
/// are cheap, and failing here stops the sweep before a single mission
/// runs. Sites are separate warehouses, so they reuse one partition
/// and one channel plan (geographic spectrum reuse) while each flies
/// its own world and tag population from its own seed.
fn preflight_row(scene: &Scene, n: usize) -> Result<Vec<SitePlan>, String> {
    let budget = IsolationBudget::fig9();
    let sites = n / SITE_RELAYS;
    let site_tags = ROW_TAGS / sites;
    let cells = partition(scene, SITE_RELAYS, MotionLimits::indoor_drone())
        .map_err(|e| format!("{n} relays: site partition infeasible ({e})"))?;
    let hover: Vec<Point2> = cells.cells.iter().map(|c| c.center()).collect();
    let plan = assign(&hover, &budget, MARGIN, SEED)
        .map_err(|e| format!("{n} relays: no stable channel plan ({e})"))?;
    Ok((0..sites)
        .map(|site| SitePlan {
            cells: cells.clone(),
            plan: plan.clone(),
            seed: SEED ^ ((n as u64) << 32) ^ site as u64,
            tags: site_tags,
        })
        .collect())
}

/// Flies one pre-flighted warehouse site end to end.
fn fly_site(scene: &Scene, site: &SitePlan) -> SiteOutcome {
    let budget = IsolationBudget::fig9();
    let cfg = MissionConfig {
        sample_interval_s: 4.0,
        max_rounds: 1,
        seed: site.seed,
        time_budget_s: Some(TIME_BUDGET_S),
    };
    let mut world = mission_world(
        scene,
        Point2::new(1.0, 1.0),
        shelf_items(scene, site.tags, site.seed, Some(Meters::new(0.5))),
        &site.plan,
        &budget,
        cfg.seed,
    );
    let outcome = run_mission(&mut world, &site.plan, &site.cells, &budget, &cfg);
    SiteOutcome {
        duration_s: outcome.duration_s,
        steps: outcome.steps,
        unique: outcome.inventory.unique_tags(),
        handoffs: outcome.inventory.handoffs(),
        min_margin: site.plan.min_margin(),
    }
}

/// One campaign row: pre-flight, fan the sites out over `pool`, merge
/// in site order. An infeasible pre-flight becomes this row's `Err`
/// note; a worker panic propagates as it would on the serial pass.
fn sweep_row(scene: &Scene, n: usize, pool: Pool) -> Result<Vec<String>, String> {
    let sites = preflight_row(scene, n)?;
    let outcomes = pool.map(sites.len(), |i| fly_site(scene, &sites[i]));

    // Sites fly concurrently in the field too, so the campaign lasts
    // as long as its slowest site.
    let duration = outcomes.iter().map(|o| o.duration_s).fold(0.0, f64::max);
    let steps = outcomes.iter().map(|o| o.steps).max().unwrap_or(0);
    let unique: usize = outcomes.iter().map(|o| o.unique).sum();
    let handoffs: usize = outcomes.iter().map(|o| o.handoffs).sum();
    let margin = outcomes
        .iter()
        .filter_map(|o| o.min_margin)
        .reduce(Db::min)
        .map(|m| format!("{:.1}", m.value()))
        .unwrap_or_else(|| "n/a".into());
    let rate = 100.0 * unique as f64 / ROW_TAGS as f64;
    let per_min = unique as f64 / (duration / 60.0);
    Ok(vec![
        n.to_string(),
        outcomes.len().to_string(),
        ROW_TAGS.to_string(),
        format!("{duration:.0}"),
        steps.to_string(),
        unique.to_string(),
        format!("{rate:.1}"),
        format!("{per_min:.0}"),
        handoffs.to_string(),
        margin,
    ])
}

/// The whole sweep at one pool width, stopping at the first infeasible
/// row (later rows never spawn work).
fn sweep(scene: &Scene, pool: Pool) -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for n in FLEETS {
        match sweep_row(scene, n, pool) {
            Ok(row) => rows.push(row),
            Err(note) => {
                notes.push(format!("{note}; stopping sweep"));
                break;
            }
        }
    }
    (rows, notes)
}

fn main() {
    let mut bench = Bench::new("ext_fleet_scaling", SEED);
    let scene = Scene::paper_building();
    let workers = global_workers();

    // Serial pass: 1 worker everywhere, including the per-step RF
    // traces inside the missions.
    set_global_workers(1);
    let t0 = Instant::now();
    let (serial_rows, serial_notes) = sweep(&scene, Pool::serial());
    let serial_s = t0.elapsed().as_secs_f64();

    // Parallel pass: full width everywhere. Identical bytes required.
    set_global_workers(workers);
    let t1 = Instant::now();
    let (parallel_rows, parallel_notes) = sweep(&scene, Pool::new(workers));
    let parallel_s = t1.elapsed().as_secs_f64();

    assert_eq!(
        serial_rows, parallel_rows,
        "the parallel sweep must be bit-identical to the serial one"
    );
    assert_eq!(serial_notes, parallel_notes);

    let mut table = Table::new(
        "ext — fleet scaling, multi-warehouse campaigns (8-relay sites), 10240 tags/row",
        &[
            "relays",
            "sites",
            "tags",
            "mission (s)",
            "stops",
            "tags read",
            "read rate (%)",
            "tags/min",
            "handoffs",
            "min margin (dB)",
        ],
    );
    for row in &serial_rows {
        table.row(row);
    }
    for note in &serial_notes {
        println!("{note}");
    }
    bench.table("main", table, true);

    let speedup = serial_s / parallel_s;
    println!(
        "\nsweep wall-clock: serial {serial_s:.2} s, 1 worker; parallel {parallel_s:.2} s, \
         {workers} worker(s) ({speedup:.2}x, rows bit-identical; RFLY_THREADS overrides the width \
         — results are identical at any value)"
    );
    bench.metric("serial_s", serial_s); // rfly-lint: allow(determinism-taint) -- wall-time IS the measurement here; the report tolerates jitter in these fields.
    bench.metric("parallel_s", parallel_s); // rfly-lint: allow(determinism-taint) -- wall-time IS the measurement here; the report tolerates jitter in these fields.
    bench.metric("parallel_speedup", speedup); // rfly-lint: allow(determinism-taint) -- wall-time IS the measurement here; the report tolerates jitter in these fields.
    bench.metric("workers", workers as f64);
    bench.finish();
}

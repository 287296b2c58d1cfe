//! The crash-matrix gate: every storage operation of the workspace's
//! two durable workloads — the journaled supervised mission and the
//! continuous-operation campaign — is crashed in every fault mode
//! (torn write, lost-but-acked, duplicated append, clean cut), and
//! recovery must leave the durable files bit-identical to an
//! uncrashed run.
//!
//! Per seed the bench also runs a planted-bug control: a recovery
//! routine that "forgets" to truncate the torn journal tail. The
//! matrix must catch it — a matrix that passes a broken recovery is
//! itself broken, and that is an internal failure.
//!
//! Run with: `cargo run --release --bin crash_matrix`
//!
//! Exit codes: `0` all crash points recovered and the control was
//! caught; `2` at least one crash point did not recover (the gate CI
//! trips on); `1` internal failure (harness error, control missed).

use std::process::ExitCode;

use rfly_bench::harness::{time, Bench};
use rfly_channel::geometry::Point2;
use rfly_chaos::durable::{self, recover_keeping_torn_tail, Durable};
use rfly_chaos::{verify_recovery, CrashReport, MemStorage, Storage, StorePaths};
use rfly_dsp::units::Seconds;
use rfly_faults::FaultSchedule;
use rfly_ops::{CampaignRun, OpsConfig};
use rfly_replay::{MissionRun, Scenario};
use rfly_sim::report::Table;
use rfly_sim::scene::Scene;

/// Checkpoint cadence for both workloads — small enough that the
/// matrix crosses several checkpoint writes per run.
const EVERY: usize = 3;

/// Seeds 1..=SEEDS each run both workloads and the planted-bug control.
const SEEDS: u64 = 2;

/// Steps the journaled mission's fault storm spreads its events over.
const STORM_STEPS: usize = 12;

/// Accumulated wall-clock spent inside recovery routines, for the
/// recovery-time stats in the telemetry side file.
#[derive(Default)]
struct RecoveryClock {
    total_s: f64,
    max_s: f64,
    runs: usize,
}

impl RecoveryClock {
    fn observe(&mut self, seconds: f64) {
        self.total_s += seconds;
        if seconds > self.max_s {
            self.max_s = seconds;
        }
        self.runs += 1;
    }

    fn mean_ms(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.total_s / self.runs as f64 * 1e3
    }
}

fn docked_scene() -> Scene {
    let mut scene = Scene::warehouse(16.0, 12.0, 2);
    scene.add_dock(Point2::new(1.0, 11.0), 2);
    scene
}

/// A 2-hour standby-short campaign: rotations, deaths, and a
/// repartition all happen, so the matrix crashes storage mid-rotation.
fn campaign_config(seed: u64) -> OpsConfig {
    let mut cfg = OpsConfig::small(seed);
    cfg.duration = Seconds::new(7200.0);
    cfg
}

/// One durable workload under the matrix: [`durable::run`] of a fresh
/// `make()`, recovered (and timed) by [`durable::recover`] of another.
fn durable_matrix<D: Durable>(
    make: &dyn Fn() -> Result<D, String>,
    paths: &StorePaths,
    seed: u64,
    clock: &mut RecoveryClock,
) -> Result<CrashReport, String> {
    let mut workload = |s: &mut dyn Storage| durable::run(make()?, s, paths, EVERY).map(|_| ());
    let mut recover = |mut survivor: MemStorage| {
        let (recovered, secs) = time(|| durable::recover(make()?, &mut survivor, paths, EVERY));
        recovered?;
        clock.observe(secs);
        Ok(survivor)
    };
    verify_recovery(&mut workload, &mut recover, seed)
}

/// The planted-bug control: a recovery that resumes correctly but
/// leaves the torn tail in the journal. Returns `Ok(true)` when the
/// matrix caught it (failures include a torn-write point).
fn planted_bug_control(
    scn: &Scenario,
    schedule: &FaultSchedule,
    seed: u64,
) -> Result<bool, String> {
    let paths = StorePaths::default();
    let make = || MissionRun::new(scn, schedule);
    let mut workload = |s: &mut dyn Storage| durable::run(make()?, s, &paths, EVERY).map(|_| ());
    let mut buggy = |survivor| recover_keeping_torn_tail(make()?, survivor, &paths, EVERY);
    let report = verify_recovery(&mut workload, &mut buggy, seed)?;
    Ok(!report.all_recovered()
        && report
            .failures
            .iter()
            .any(|f| f.point.kind.name() == "torn"))
}

fn row_for(table: &mut Table, seed: u64, workload: &str, report: &CrashReport) {
    table.row(&[
        seed.to_string(),
        workload.to_string(),
        report.ops.to_string(),
        report.crash_points.to_string(),
        report.exact.to_string(),
        report.failures.len().to_string(),
    ]);
}

fn main() -> ExitCode {
    let mut bench = Bench::new("crash_matrix", SEEDS);
    let mut table = Table::new(
        "Crash matrix: every storage op crashed in every fault mode",
        &["seed", "workload", "ops", "points", "exact", "failed"],
    );
    let mut clock = RecoveryClock::default();
    let mut points = 0usize;
    let mut exact = 0usize;
    let mut failures = 0usize;
    let mut controls_caught = 0usize;

    for seed in 1..=SEEDS {
        let scn = Scenario::small(seed);
        let schedule = FaultSchedule::storm(seed, 2, STORM_STEPS);
        let scene = docked_scene();
        let cfg = campaign_config(seed);
        let reports = [
            (
                "journal",
                durable_matrix(
                    &|| MissionRun::new(&scn, &schedule),
                    &StorePaths::default(),
                    seed,
                    &mut clock,
                ),
            ),
            (
                "campaign",
                durable_matrix(
                    &|| CampaignRun::new(&scene, &cfg),
                    &StorePaths::named("campaign"),
                    seed,
                    &mut clock,
                ),
            ),
        ];
        for (workload, report) in reports {
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("crash_matrix: {workload} workload seed {seed}: {e}");
                    return ExitCode::from(1);
                }
            };
            row_for(&mut table, seed, workload, &report);
            points += report.crash_points;
            exact += report.exact;
            failures += report.failures.len();
            for f in report.failures.iter().take(3) {
                eprintln!(
                    "crash_matrix: seed {seed}: unrecovered {:?} at op {:?}: {}",
                    f.point, f.op, f.detail
                );
            }
        }
        match planted_bug_control(&scn, &schedule, seed) {
            Ok(true) => controls_caught += 1,
            Ok(false) => {
                eprintln!(
                    "crash_matrix: seed {seed}: the matrix MISSED the planted \
                     truncation bug — the harness itself is broken"
                );
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("crash_matrix: control seed {seed}: {e}");
                return ExitCode::from(1);
            }
        }
    }

    bench.table("main", table, false);
    bench.metric("seeds", SEEDS as f64);
    bench.metric("crash_points", points as f64);
    bench.metric("exact", exact as f64);
    bench.metric("unrecovered", failures as f64);
    bench.metric("controls_caught", controls_caught as f64);
    bench.metric("recovery_runs", clock.runs as f64);
    bench.telemetry("recovery_mean_ms", clock.mean_ms());
    bench.telemetry("recovery_max_ms", clock.max_s * 1e3);
    println!(
        "{points} crash points over {} seeds: {exact} exact, \
         {failures} unrecovered; {}/{} planted-bug controls caught; \
         recovery mean {:.2} ms, max {:.2} ms",
        SEEDS,
        controls_caught,
        SEEDS,
        clock.mean_ms(),
        clock.max_s * 1e3,
    );
    bench.finish();
    if failures > 0 {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

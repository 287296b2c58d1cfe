//! Ablation — the pruned localization searches against their exhaustive
//! oracles (footnote 7 of the paper: the grid search can be made
//! faster).
//!
//! Same channels, same region, ten seeded trials. The gate is exact:
//! - `SarLocalizer::localize` (certified screen, then exact scores only
//!   for the peaks and the neighbours their bounds cannot order) must
//!   return bit-identical estimates to the exhaustive `heatmap()` +
//!   `select_nearest_peak`;
//! - `RssiLocalizer::localize` (tile branch-and-bound, then a `sqrt`
//!   bound per cell before its `hypot` cost) must return bit-identical
//!   estimates to a full row-major scan;
//! - at the default seed, the cells each search scored exactly (the
//!   `loc.sar.cells_exact` / `loc.rssi.cells_exact` rfly-obs counters)
//!   must equal the committed totals, like any golden work counter.
//!
//! Wall time and speedup are telemetry only (`Bench::telemetry`):
//! they never enter the committed `results/bench/ablation_grid.json`.
//!
//! Run with: `cargo run --release --bin ablation_grid [seed]`

use rfly_bench::prelude::*;
use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_core::loc::peaks::select_nearest_peak;
use rfly_core::loc::rssi::RssiLocalizer;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::rng::Rng;
use rfly_dsp::units::Hertz;
use rfly_dsp::Complex;
use rfly_obs::Recorder;

const F2: Hertz = Hertz(916e6);
const SEED: u64 = 2017;
/// `loc.sar.cells_exact` over the ten trials at [`SEED`]: the peaks and
/// the neighbours their bounds cannot order (53,259 when every cell that
/// could reach the refine cut was scored).
const SAR_CELLS_EXACT: u64 = 104;
/// `loc.rssi.cells_exact` over the ten trials at [`SEED`]: the cells
/// whose `sqrt`-form bound does not already lose (2,688 when every cell
/// of a visited tile was scored).
const RSSI_CELLS_EXACT: u64 = 196;

/// The RSSI oracle: every cell in row-major order, first strict minimum
/// wins — the search `RssiLocalizer::localize` must reproduce.
fn rssi_full_scan(loc: &RssiLocalizer, traj: &Trajectory, ch: &[Complex]) -> Option<Point2> {
    let ranges: Vec<(Point2, f64)> = traj
        .points()
        .iter()
        .zip(ch)
        .filter_map(|(p, h)| loc.distance_from_amplitude(*h).map(|d| (*p, d)))
        .collect();
    if ranges.is_empty() {
        return None;
    }
    let nx = ((loc.region_max.x - loc.region_min.x) / loc.resolution).ceil() as usize + 1;
    let ny = ((loc.region_max.y - loc.region_min.y) / loc.resolution).ceil() as usize + 1;
    let mut best = (Point2::ORIGIN, f64::MAX);
    for iy in 0..ny {
        for ix in 0..nx {
            let p = Point2::new(
                loc.region_min.x + ix as f64 * loc.resolution,
                loc.region_min.y + iy as f64 * loc.resolution,
            );
            let cost: f64 = ranges
                .iter()
                .map(|(t, d)| {
                    let e = t.distance(p) - d;
                    e * e
                })
                .sum();
            if cost < best.1 {
                best = (p, cost);
            }
        }
    }
    Some(best.0)
}

fn same(a: Point2, b: Point2) -> bool {
    (a.x.to_bits(), a.y.to_bits()) == (b.x.to_bits(), b.y.to_bits())
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let (out, secs) = time(f);
    *acc += secs;
    out
}

fn main() {
    let mut bench = Bench::from_args("ablation_grid", SEED);
    let seed = bench.seed();
    let trials = 10;
    let mc = MonteCarlo::new(seed);
    let env = Environment::free_space();
    let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 51);
    let (min, max, res) = (Point2::new(-1.0, 0.05), Point2::new(9.0, 6.0), 0.02);
    let sar = SarLocalizer::new(F2, min, max, res);
    let rssi = RssiLocalizer {
        frequency: F2,
        region_min: min,
        region_max: max,
        resolution: res,
        reference_amplitude_1m: env
            .trace(Point2::ORIGIN, Point2::new(1.0, 0.0), F2)
            .round_trip(F2)
            .abs(),
    };
    let results: Vec<(Point2, Vec<Complex>)> = mc.run(trials, |_, rng| {
        let tag = Point2::new(rng.gen_range(0.5..6.0), rng.gen_range(0.8..4.0));
        let ch = traj
            .points()
            .iter()
            .map(|p| env.trace(*p, tag, F2).round_trip(F2))
            .collect();
        (tag, ch)
    });

    // Seconds per method: SAR oracle, SAR pruned, RSSI oracle, RSSI pruned.
    let mut t = [0.0; 4];
    let mut err_sar = Vec::new();
    let mut err_rssi = Vec::new();
    let (mut agree_sar, mut agree_rssi) = (0usize, 0usize);
    let mut grid_cells = 0;
    rfly_obs::install(Recorder::new("ablation_grid"));
    for (tag, ch) in &results {
        let oracle = timed(&mut t[0], || {
            let map = sar.heatmap(&traj, ch);
            grid_cells = map.nx() * map.ny();
            select_nearest_peak(&map, &traj).expect("oracle localizes")
        });
        let pruned = timed(&mut t[1], || sar.localize(&traj, ch).expect("localizes").0);
        let full = timed(&mut t[2], || {
            rssi_full_scan(&rssi, &traj, ch).expect("ranges")
        });
        let bnb = timed(&mut t[3], || rssi.localize(&traj, ch).expect("ranges"));
        agree_sar += usize::from(same(oracle, pruned));
        agree_rssi += usize::from(same(full, bnb));
        err_sar.push(pruned.distance(*tag));
        err_rssi.push(bnb.distance(*tag));
    }
    let counters = rfly_obs::take().map(|r| r.counters).unwrap_or_default();
    let sar_cells = counters.get("loc.sar.cells_exact").copied().unwrap_or(0);
    let rssi_cells = counters.get("loc.rssi.cells_exact").copied().unwrap_or(0);

    let (e_sar, e_rssi) = (ErrorStats::new(err_sar), ErrorStats::new(err_rssi));
    let n = trials as f64;
    let all_cells = (grid_cells * trials) as f64;
    let mut table = Table::new(
        "Ablation: pruned vs exhaustive localization search",
        &[
            "method",
            "median error",
            "cells scored/trial",
            "bit-identical",
        ],
    );
    let mut row = |method: &str, e: &ErrorStats, cells: f64, agree: String| {
        table.row(&[
            method.into(),
            fmt_m(e.median()),
            format!("{:.0}", cells / n),
            agree,
        ]);
    };
    row("SAR exhaustive (oracle)", &e_sar, all_cells, "-".into());
    let agree = format!("{agree_sar}/{trials}");
    row("SAR screened", &e_sar, sar_cells as f64, agree);
    row("RSSI full scan (oracle)", &e_rssi, all_cells, "-".into());
    let agree = format!("{agree_rssi}/{trials}");
    row("RSSI branch-and-bound", &e_rssi, rssi_cells as f64, agree);
    bench.table("main", table, true);
    bench.metric("sar_cells_exact", sar_cells as f64);
    bench.metric("rssi_cells_exact", rssi_cells as f64);
    let methods = ["sar_oracle", "sar_screened", "rssi_oracle", "rssi_bnb"];
    for (method, secs) in methods.into_iter().zip(t) {
        bench.telemetry(&format!("{method}_ms_per_trial"), secs / n * 1e3);
    }

    assert_eq!(agree_sar, trials, "SAR screen changed an estimate");
    assert_eq!(
        agree_rssi, trials,
        "RSSI branch-and-bound changed an estimate"
    );
    if seed == SEED {
        assert_eq!(
            (sar_cells, rssi_cells),
            (SAR_CELLS_EXACT, RSSI_CELLS_EXACT),
            "exactly-scored cell totals drifted from the committed values"
        );
    }
    println!(
        "Conclusion: bit-identical estimates on {trials}/{trials} trials; \
         speedup {:.1}x (SAR), {:.1}x (RSSI) — telemetry only.",
        t[0] / t[1],
        t[2] / t[3]
    );
    bench.finish();
}

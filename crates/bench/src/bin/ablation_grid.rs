//! Ablation — exhaustive grid search vs the multi-resolution search
//! (footnote 7 of the paper).
//!
//! Same channels, same region: the coarse-to-fine search visits a small
//! fraction of the cells with (near-)identical estimates.

#![allow(
    clippy::disallowed_types,
    reason = "wall-clock timing is telemetry, outside the seeded contract"
)]

use std::time::Instant;

use rfly_bench::prelude::*;
use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_core::loc::multires::localize_multires;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::rng::Rng;
use rfly_dsp::units::Hertz;
use rfly_dsp::Complex;

const F2: Hertz = Hertz(916e6);

fn main() {
    let mut bench = Bench::from_args("ablation_grid", 2017);
    let seed = bench.seed();
    let trials = 10;
    let mc = MonteCarlo::new(seed);
    let env = Environment::free_space();
    let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 51);
    let loc = SarLocalizer::new(F2, Point2::new(-1.0, 0.05), Point2::new(9.0, 6.0), 0.02);

    let mut t_exh = 0.0;
    let mut t_mr = 0.0;
    let mut err_exh = Vec::new();
    let mut err_mr = Vec::new();
    let mut agree = 0usize;
    let results: Vec<(Point2, Vec<Complex>)> = mc.run(trials, |_, rng| {
        let tag = Point2::new(rng.gen_range(0.5..6.0), rng.gen_range(0.8..4.0));
        let ch = traj
            .points()
            .iter()
            .map(|p| env.trace(*p, tag, F2).round_trip(F2))
            .collect();
        (tag, ch)
    });
    for (tag, ch) in &results {
        let t0 = Instant::now();
        let exhaustive = loc.localize(&traj, ch).expect("exhaustive localizes").0;
        t_exh += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let fast = localize_multires(&loc, &traj, ch, 4).expect("multires localizes");
        t_mr += t1.elapsed().as_secs_f64();
        err_exh.push(exhaustive.distance(*tag));
        err_mr.push(fast.distance(*tag));
        if fast.distance(exhaustive) <= 0.1 {
            agree += 1;
        }
    }

    let e = ErrorStats::new(err_exh);
    let m = ErrorStats::new(err_mr);
    let mut table = Table::new(
        "Ablation: exhaustive vs multi-resolution SAR search",
        &["method", "median error", "time/trial", "agreement"],
    );
    table.row(&[
        "exhaustive".into(),
        fmt_m(e.median()),
        format!("{:.0} ms", t_exh / trials as f64 * 1e3),
        "-".into(),
    ]);
    table.row(&[
        "multires (4x coarse)".into(),
        fmt_m(m.median()),
        format!("{:.0} ms", t_mr / trials as f64 * 1e3),
        format!("{agree}/{trials}"),
    ]);
    bench.table("main", table, true);

    assert!(t_mr < t_exh, "multires must be faster");
    assert!(agree >= trials * 8 / 10, "estimates must agree");
    println!(
        "Conclusion: {:.1}x speedup at matching accuracy.",
        t_exh / t_mr
    );
    bench.finish();
}

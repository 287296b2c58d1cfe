//! Fig. 6 — localization heatmaps `P(x, y)` in line-of-sight and under
//! strong multipath.
//!
//! Paper: (a) LoS — a single sharp peak at the tag, error < 7 cm;
//! (b) steel shelves — multiple red regions (ghosts), resolved by
//! choosing the peak nearest the trajectory.

use rfly_bench::prelude::*;
use rfly_channel::environment::{Environment, Material, Obstacle};
use rfly_channel::geometry::{Point2, Segment};
use rfly_core::loc::peaks;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::units::Hertz;
use rfly_dsp::Complex;

const F2: Hertz = Hertz(916e6);

fn channels(env: &Environment, traj: &Trajectory, tag: Point2) -> Vec<Complex> {
    traj.points()
        .iter()
        .map(|p| env.trace(*p, tag, F2).round_trip(F2))
        .collect()
}

fn run_case(name: &str, env: &Environment, tag: Point2) -> f64 {
    // The paper's Fig. 6 geometry: ~3 m trajectory along y ≈ 0, tag a
    // bit over a meter off the path.
    let traj = Trajectory::line(Point2::new(-0.4, 0.0), Point2::new(2.9, 0.0), 61);
    let ch = channels(env, &traj, tag);
    let loc = SarLocalizer::new(F2, Point2::new(-0.5, 0.05), Point2::new(3.0, 3.0), 0.02);
    let (est, _) = loc.localize(&traj, &ch).expect("localizes");
    // Render the exhaustive map: `localize` zeroes the cells it proved
    // below the candidate floor.
    let mut map = loc.heatmap(&traj, &ch);
    map.normalize();

    println!("--- {name} ---");
    println!("{}", map.render_ascii(72));
    let salient = peaks::suppress_sidelobes(peaks::find_peaks(&map, peaks::CANDIDATE_THRESHOLD));
    println!("salient peaks:");
    for p in &salient {
        println!(
            "  {}  rel={:.2}  dist-to-trajectory={:.2} m",
            p.position,
            p.value,
            traj.distance_to(p.position)
        );
    }
    let err = est.distance(tag);
    println!("tag truth {tag}  estimate {est}  error {}", fmt_m(err));
    println!();
    err
}

fn main() {
    let mut bench = Bench::new("fig06_heatmaps", 0);
    // (a) Line of sight: free space.
    let los_env = Environment::free_space();
    let tag = Point2::new(1.3, 1.2);
    let e_los = run_case("Fig. 6(a): line-of-sight", &los_env, tag);

    // (b) Strong multipath: steel shelving behind and beside the tag.
    let mut mp_env = Environment::free_space();
    mp_env.add(Obstacle::new(
        Segment::new(Point2::new(-2.0, 2.4), Point2::new(5.0, 2.4)),
        Material::STEEL_SHELF,
    ));
    mp_env.add(Obstacle::new(
        Segment::new(Point2::new(3.4, -1.0), Point2::new(3.4, 4.0)),
        Material::STEEL_SHELF,
    ));
    let e_mp = run_case("Fig. 6(b): strong multipath (steel shelves)", &mp_env, tag);

    let mut table = Table::new("Fig. 6 summary", &["case", "error", "paper"]);
    table.row(&["line-of-sight".into(), fmt_m(e_los), "< 0.07 m".into()]);
    table.row(&[
        "strong multipath".into(),
        fmt_m(e_mp),
        "ghosts rejected".into(),
    ]);
    bench.table("main", table, true);
    bench.metric("los_error_m", e_los);
    bench.metric("multipath_error_m", e_mp);
    assert!(e_los < 0.07, "LoS error {e_los} m exceeds the paper's 7 cm");
    assert!(e_mp < 0.3, "multipath error {e_mp} m — ghost not rejected");
    bench.finish();
}

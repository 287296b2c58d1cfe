//! Tier-1 guard for the screened SAR search: seeded synthetic trials,
//! localized under an `rfly_obs` recorder, must return exactly the
//! exhaustive search's estimate and score exactly the committed number
//! of grid cells.
//!
//! `SarLocalizer::localize` screens every cell with a fast phasor
//! kernel and re-scores only the cells that can reach the candidate
//! floor. A kernel or slack change that breaks the screen's upper
//! bound can move an estimate off the oracle's bits; one that loosens or
//! tightens the screen moves `loc.sar.cells_exact`, whose expected
//! total is committed here.

use rfly::channel::geometry::Point2;
use rfly::channel::phasor::{Path, PathSet};
use rfly::core::loc::peaks::select_nearest_peak;
use rfly::core::loc::sar::SarLocalizer;
use rfly::core::loc::trajectory::Trajectory;
use rfly::dsp::rng::{Rng, StdRng};
use rfly::dsp::units::{Hertz, Meters};
use rfly::dsp::Complex;

const F2: Hertz = Hertz(916e6);

/// One seeded trial: a trajectory (straight or bent), a tag, and the
/// round-trip channels of a line-of-sight, two-reflector or noisy link.
fn trial(rng: &mut StdRng, kind: usize) -> (Trajectory, Vec<Complex>) {
    let k = rng.gen_range(21usize..42);
    let a = Point2::new(rng.gen_range(-0.3..0.3), 0.0);
    let c = Point2::new(rng.gen_range(2.2..2.8), 0.0);
    let traj = if kind == 1 {
        let b = Point2::new(rng.gen_range(1.0..1.5), rng.gen_range(0.2..0.5));
        let mut pts = Trajectory::line(a, b, k / 2 + 1).points().to_vec();
        pts.extend(&Trajectory::line(b, c, k - k / 2).points()[1..]);
        Trajectory::from_points(pts)
    } else {
        Trajectory::line(a, c, k)
    };
    let tag = Point2::new(rng.gen_range(0.4..2.4), rng.gen_range(0.8..2.2));
    let images = [
        Point2::new(rng.gen_range(-1.0..4.0), rng.gen_range(1.0..3.5)),
        Point2::new(rng.gen_range(-1.0..4.0), rng.gen_range(1.0..3.5)),
    ];
    let ch = traj
        .points()
        .iter()
        .map(|p| {
            let los = Path::new(Meters::new(p.distance(tag)), 1.0);
            match kind {
                2 => {
                    let mut paths = vec![los];
                    paths.extend(
                        images
                            .iter()
                            .map(|q| Path::new(Meters::new(p.distance(*q)), 0.6)),
                    );
                    PathSet::from_paths(paths).round_trip(F2)
                }
                3 => {
                    let h = PathSet::from_paths(vec![los]).round_trip(F2);
                    let n = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    h + n * (0.3 * h.abs())
                }
                _ => PathSet::from_paths(vec![los]).round_trip(F2),
            }
        })
        .collect();
    (traj, ch)
}

#[test]
fn screened_sar_matches_the_exhaustive_search_with_the_committed_work() {
    let sar = SarLocalizer::new(F2, Point2::new(-0.5, 0.05), Point2::new(3.0, 3.0), 0.04);
    let mut rng = StdRng::seed_from_u64(0x5A12_0030);
    rfly::obs::install(rfly::obs::Recorder::new("sar-screen"));
    let mut estimates = Vec::new();
    for kind in 0..4 {
        let (traj, ch) = trial(&mut rng, kind);
        let (est, _) = sar.localize(&traj, &ch).expect("localizes");
        estimates.push((traj, ch, est));
    }
    let counters = rfly::obs::take().expect("recorder installed").counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);

    for (i, (traj, ch, est)) in estimates.iter().enumerate() {
        let oracle = select_nearest_peak(&sar.heatmap(traj, ch), traj).expect("oracle peak");
        assert_eq!(
            (est.x.to_bits(), est.y.to_bits()),
            (oracle.x.to_bits(), oracle.y.to_bits()),
            "trial {i}: screened {est} vs exhaustive {oracle}"
        );
    }
    assert_eq!(
        [
            ("loc.sar.passes", counter("loc.sar.passes")),
            ("loc.sar.cells_exact", counter("loc.sar.cells_exact")),
        ],
        [("loc.sar.passes", 4), ("loc.sar.cells_exact", 1_052)]
    );
}

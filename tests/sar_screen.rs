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
//!
//! The screen's first tier, an f32 pass with a certified error,
//! prunes cells before the f64 bound; `loc.sar.cells_f64` counts the
//! cells that reach the f64 tier, and its total is committed too.
//! Tier 1 sums each cell in stages and stops once the rest of the
//! aperture cannot lift it to the pruning cut;
//! `loc.sar.tier1_terms` counts the cell × measurement phasors it
//! evaluated, and its total is committed as well.

use rfly::channel::geometry::Point2;
use rfly::channel::phasor::{Path, PathSet};
use rfly::core::loc::peaks::{select_nearest_peak, CANDIDATE_THRESHOLD};
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

/// The localizer the trials run through.
fn localizer() -> SarLocalizer {
    SarLocalizer::new(F2, Point2::new(-0.5, 0.05), Point2::new(3.0, 3.0), 0.04)
}

/// The four seeded trials, one of each kind.
fn trials() -> Vec<(Trajectory, Vec<Complex>)> {
    let mut rng = StdRng::seed_from_u64(0x5A12_0030);
    (0..4).map(|kind| trial(&mut rng, kind)).collect()
}

/// The committed number of cells the f64 tier bounds over [`trials`].
const CELLS_F64: u64 = 1_053;

/// The committed number of phasors tier 1 evaluates over [`trials`].
/// Without stages it would be every cell × K, 861,075.
const TIER1_TERMS: u64 = 550_862;

#[test]
fn screened_sar_matches_the_exhaustive_search_with_the_committed_work() {
    let sar = localizer();
    rfly::obs::install(rfly::obs::Recorder::new("sar-screen"));
    let mut estimates = Vec::new();
    for (traj, ch) in trials() {
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
    assert_eq!(counter("loc.sar.cells_f64"), CELLS_F64);
    assert_eq!(counter("loc.sar.tier1_terms"), TIER1_TERMS);
}

#[test]
fn planted_control_a_halved_pruning_radius_moves_the_f64_work() {
    // Tier 1 pruning with half its radius keeps cells it could have
    // dropped: the estimates stay exact, but the committed f64 and
    // tier-1 work totals must each catch the change.
    let sar = localizer();
    rfly::obs::install(rfly::obs::Recorder::new("sar-screen-control"));
    for (traj, ch) in trials() {
        let _ = sar.screened_heatmap_with_radius(&traj, &ch, CANDIDATE_THRESHOLD, 0.5);
    }
    let counters = rfly::obs::take().expect("recorder installed").counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_ne!(
        counter("loc.sar.cells_f64"),
        CELLS_F64,
        "the halved radius went undetected by the f64 work"
    );
    assert_ne!(
        counter("loc.sar.tier1_terms"),
        TIER1_TERMS,
        "the halved radius went undetected by the tier-1 work"
    );
}

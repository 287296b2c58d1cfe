//! Differential tests for the pruned localization searches: on seeded
//! random trajectories, channels, regions and resolutions, the screened
//! SAR search and the RSSI branch-and-bound must return exactly what
//! the exhaustive searches return.
//!
//! The SAR oracle is `SarLocalizer::heatmap` + `select_nearest_peak`;
//! the RSSI oracle is `RssiLocalizer::full_scan`. The screened SAR
//! map must keep its contract with the oracle's: no cell above it, the
//! global maximum exact, and the same candidate peaks from `find_peaks`
//! (positions and value bits), so the same estimate. A planted control
//! reruns the SAR property with a wrong screen threshold and must see
//! it fail. The cases include geometries mirror-symmetric about the
//! trajectory, whose mirror cells tie exactly in both searches, and an
//! exact RSSI cost tie between cells of different tiles.
//!
//! An ignored sweep runs 240 more seeded trials, a quarter of them on
//! the supervisor's 40 × 30 m, 0.5 m scene grid with K = 4–5 and half
//! of those mirror-symmetric: `cargo test --release -p rfly-core --test
//! loc_exactness -- --ignored`.
//!
//! The screen's f32 tier only prunes: the screened map must equal, bit
//! for bit, the map of the f64 tier run with every cell surviving (a
//! pruning radius of 0). A planted control doubles the radius and must
//! see the maps differ.

use rfly_channel::geometry::Point2;
use rfly_channel::phasor::{Path, PathSet};
use rfly_core::loc::heatmap::Heatmap;
use rfly_core::loc::peaks::{find_peaks, select_nearest_peak, CANDIDATE_THRESHOLD};
use rfly_core::loc::rssi::RssiLocalizer;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::{Hertz, Meters};
use rfly_dsp::Complex;

const F2: Hertz = Hertz(916e6);
const RESOLUTIONS: [f64; 3] = [0.02, 0.04, 0.05];

/// One seeded scenario: a localizer, a trajectory and its channels.
struct Case {
    sar: SarLocalizer,
    rssi: RssiLocalizer,
    traj: Trajectory,
    ch: Vec<Complex>,
}

#[derive(Clone, Copy)]
enum Channel {
    LineOfSight,
    Multipath,
    Noisy,
}

/// Every combination of resolution × channel kind × region side ×
/// trajectory shape, with random geometry and 3–61 measurements, one
/// scene-scale case, one mirror-symmetric case and one exact RSSI tie.
fn cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x0C03_E100);
    let mut out = Vec::new();
    for res in RESOLUTIONS {
        for kind in [Channel::LineOfSight, Channel::Multipath, Channel::Noisy] {
            for two_sided in [false, true] {
                for bent in [false, true] {
                    out.push(case(&mut rng, res, kind, two_sided, bent));
                }
            }
        }
    }
    out.push(scene_case(&mut rng));
    out.push(mirror_case(&mut rng, Channel::Multipath));
    out.push(range_tie_case());
    out
}

fn case(rng: &mut StdRng, res: f64, kind: Channel, two_sided: bool, bent: bool) -> Case {
    let k = rng.gen_range(3usize..62);
    let a = Point2::new(rng.gen_range(-0.4..0.4), 0.0);
    let c = Point2::new(rng.gen_range(2.0..2.8), rng.gen_range(-0.2..0.2));
    let traj = if bent {
        let b = Point2::new(rng.gen_range(0.8..1.6), rng.gen_range(0.2..0.6));
        let first = k / 2 + 1;
        let mut pts = Trajectory::line(a, b, first).points().to_vec();
        pts.extend(&Trajectory::line(b, c, k + 1 - first).points()[1..]);
        Trajectory::from_points(pts)
    } else {
        Trajectory::line(a, c, k)
    };
    let tag = Point2::new(rng.gen_range(0.2..2.6), rng.gen_range(0.6..2.4));
    let images: Vec<(Point2, f64)> = (0..rng.gen_range(1usize..4))
        .map(|_| {
            let image = Point2::new(rng.gen_range(-1.5..4.5), rng.gen_range(0.5..4.0));
            (image, rng.gen_range(0.2..1.0))
        })
        .collect();
    let ch = channels(rng, kind, &traj, tag, &images);
    let min = Point2::new(-0.5, if two_sided { -2.0 } else { 0.05 });
    Case::new(min, Point2::new(3.0, 3.0), res, traj, ch)
}

/// The supervisor's scene-wide search: a 40 × 30 m region at 0.5 m
/// around a pass down an aisle, where the round-trip phase reaches
/// ~1,800 rad.
fn scene_case(rng: &mut StdRng) -> Case {
    let traj = Trajectory::line(Point2::new(2.0, 1.5), Point2::new(38.0, 1.5), 61);
    let tag = Point2::new(rng.gen_range(5.0..35.0), rng.gen_range(4.0..28.0));
    let images: Vec<(Point2, f64)> = (0..3)
        .map(|_| {
            let image = Point2::new(rng.gen_range(0.0..40.0), rng.gen_range(4.0..30.0));
            (image, rng.gen_range(0.2..1.0))
        })
        .collect();
    let ch = channels(rng, Channel::Multipath, &traj, tag, &images);
    Case::new(Point2::ORIGIN, Point2::new(40.0, 30.0), 0.5, traj, ch)
}

/// A straight pass along y = 0 over a region symmetric about it, on a
/// 1/32 m grid whose coordinates are exact: a cell and its mirror image
/// have bit-identical distances to every trajectory point, so their SAR
/// scores and RSSI costs tie exactly.
fn mirror_case(rng: &mut StdRng, kind: Channel) -> Case {
    let k = rng.gen_range(3usize..62);
    let a = Point2::new(rng.gen_range(-0.4..0.4), 0.0);
    let traj = Trajectory::line(a, Point2::new(rng.gen_range(2.0..2.8), 0.0), k);
    let tag = Point2::new(rng.gen_range(0.2..2.6), rng.gen_range(0.3..1.8));
    let images = [(
        Point2::new(rng.gen_range(-1.0..4.0), rng.gen_range(0.5..2.0)),
        0.6,
    )];
    let ch = channels(rng, kind, &traj, tag, &images);
    let (min, max) = (Point2::new(-0.5, -2.0), Point2::new(3.0, 2.0));
    Case::new(min, max, 0.03125, traj, ch)
}

/// The supervisor's localization: K = 4–5 drone stops on the 40 × 30 m
/// scene grid at 0.5 m. With `mirror` the stops lie on y = 15, the
/// grid's axis of symmetry, so mirror cells tie exactly.
fn supervisor_case(rng: &mut StdRng, kind: Channel, mirror: bool) -> Case {
    let stops = (0..rng.gen_range(4usize..6))
        .map(|_| {
            let x = rng.gen_range(2.0..38.0);
            Point2::new(
                x,
                if mirror {
                    15.0
                } else {
                    rng.gen_range(1.0..29.0)
                },
            )
        })
        .collect();
    let traj = Trajectory::from_points(stops);
    let tag = Point2::new(rng.gen_range(1.0..39.0), rng.gen_range(1.0..29.0));
    let images: Vec<(Point2, f64)> = (0..rng.gen_range(0usize..4))
        .map(|_| {
            let image = Point2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..30.0));
            (image, rng.gen_range(0.2..1.0))
        })
        .collect();
    let ch = channels(rng, kind, &traj, tag, &images);
    Case::new(Point2::ORIGIN, Point2::new(40.0, 30.0), 0.5, traj, ch)
}

/// One measurement at (2, 3.25) ranging exactly 1.25 m on a 0.25 m
/// grid: twelve cells cost exactly 0, and the first of them in
/// row-major order, (2, 2), lies in a later tile than (1.25, 2.25),
/// which the search visits first.
fn range_tie_case() -> Case {
    let traj = Trajectory::from_points(vec![Point2::new(2.0, 3.25)]);
    let mut c = Case::new(
        Point2::ORIGIN,
        Point2::new(4.0, 5.0),
        0.25,
        traj,
        vec![Complex::from_re(1.0)],
    );
    c.rssi.reference_amplitude_1m = 1.5625;
    c
}

/// The round-trip channels at every trajectory point for a tag at
/// `tag`, with reflector `images` for multipath.
fn channels(
    rng: &mut StdRng,
    kind: Channel,
    traj: &Trajectory,
    tag: Point2,
    images: &[(Point2, f64)],
) -> Vec<Complex> {
    let direct = rng.gen_range(0.4..1.0);
    let sigma = rng.gen_range(0.05..0.5);
    traj.points()
        .iter()
        .map(|p| {
            let los = Path::new(Meters::new(p.distance(tag)), 1.0);
            match kind {
                Channel::LineOfSight => PathSet::from_paths(vec![los]).round_trip(F2),
                Channel::Multipath => {
                    let mut paths = vec![Path::new(Meters::new(p.distance(tag)), direct)];
                    paths.extend(
                        images
                            .iter()
                            .map(|&(q, amp)| Path::new(Meters::new(p.distance(q)), amp)),
                    );
                    PathSet::from_paths(paths).round_trip(F2)
                }
                Channel::Noisy => {
                    let h = PathSet::from_paths(vec![los]).round_trip(F2);
                    let n = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    h + n * (sigma * h.abs())
                }
            }
        })
        .collect()
}

impl Case {
    fn new(min: Point2, max: Point2, res: f64, traj: Trajectory, ch: Vec<Complex>) -> Self {
        let sar = SarLocalizer::new(F2, min, max, res);
        let rssi = RssiLocalizer {
            frequency: F2,
            region_min: min,
            region_max: max,
            resolution: res,
            reference_amplitude_1m: PathSet::line_of_sight(Meters::new(1.0), 1.0)
                .round_trip(F2)
                .abs(),
        };
        Case {
            sar,
            rssi,
            traj,
            ch,
        }
    }
}

fn bits(p: Option<Point2>) -> Option<(u64, u64)> {
    p.map(|p| (p.x.to_bits(), p.y.to_bits()))
}

/// Whether a screened map and its estimate break the map contract
/// against the oracle's: a cell above the oracle's value, a global
/// maximum without the oracle's bits, different candidate peaks from
/// `find_peaks` (positions or value bits; so every peak it returns is
/// exact), or a different estimate.
fn differs(
    oracle: &Heatmap,
    oracle_est: Option<Point2>,
    map: &Heatmap,
    est: Option<Point2>,
) -> bool {
    assert_eq!((map.nx(), map.ny()), (oracle.nx(), oracle.ny()));
    let above = oracle.iter().any(|(ix, iy, _, v)| map.get(ix, iy) > v);
    let g = oracle.peak().1;
    let max_differs = oracle
        .iter()
        .any(|(ix, iy, _, v)| v == g && map.get(ix, iy).to_bits() != v.to_bits());
    let peaks = |m: &Heatmap| {
        let found = find_peaks(m, CANDIDATE_THRESHOLD);
        found
            .iter()
            .map(|p| (bits(Some(p.position)), p.value.to_bits()))
            .collect::<Vec<_>>()
    };
    above || max_differs || peaks(map) != peaks(oracle) || bits(est) != bits(oracle_est)
}

/// Asserts that both pruned searches agree with their oracles on `c`.
fn check(i: usize, c: &Case) {
    let oracle = c.sar.heatmap(&c.traj, &c.ch);
    let oracle_est = select_nearest_peak(&oracle, &c.traj);
    let (est, map) = c.sar.localize(&c.traj, &c.ch).expect("localizes");
    assert!(
        !differs(&oracle, oracle_est, &map, Some(est)),
        "case {i}: SAR estimate {est} vs oracle {oracle_est:?}"
    );
    let rssi = c.rssi.localize(&c.traj, &c.ch);
    let full = c.rssi.full_scan(&c.traj, &c.ch);
    assert_eq!(
        bits(rssi),
        bits(full),
        "case {i}: RSSI {rssi:?} vs full scan {full:?}"
    );
}

#[test]
fn pruned_searches_match_the_exhaustive_oracles_bit_for_bit() {
    for (i, c) in cases().iter().enumerate() {
        check(i, c);
    }
    // The tie cases tie: a mirror case has candidate peaks of equal
    // bits at mirrored positions, and the range tie's oracle answer is
    // the first of its zero-cost cells.
    let mut rng = StdRng::seed_from_u64(0x0C03_E100);
    let mirror = mirror_case(&mut rng, Channel::Multipath);
    let peaks = find_peaks(
        &mirror.sar.heatmap(&mirror.traj, &mirror.ch),
        CANDIDATE_THRESHOLD,
    );
    let tied = peaks.iter().any(|p| {
        peaks.iter().any(|q| {
            p.position.y > 0.0
                && (q.position.x, -q.position.y) == (p.position.x, p.position.y)
                && q.value.to_bits() == p.value.to_bits()
        })
    });
    assert!(tied, "no exactly tied mirror peaks");
    let tie = range_tie_case();
    let full = tie.rssi.full_scan(&tie.traj, &tie.ch);
    assert_eq!(full, Some(Point2::new(2.0, 2.0)), "the tie's first cell");
}

#[test]
#[ignore = "240 seeded trials; scripts/ci.sh runs them in release"]
fn seeded_sweep_matches_the_exhaustive_oracles() {
    let mut rng = StdRng::seed_from_u64(0x5EE9_0039);
    let kinds = [Channel::LineOfSight, Channel::Multipath, Channel::Noisy];
    for i in 0..240 {
        let kind = kinds[rng.gen_range(0usize..3)];
        let c = match i % 4 {
            0 => {
                let res = RESOLUTIONS[rng.gen_range(0usize..3)];
                let (two_sided, bent) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
                case(&mut rng, res, kind, two_sided, bent)
            }
            1 => supervisor_case(&mut rng, kind, false),
            2 => supervisor_case(&mut rng, kind, true),
            _ => mirror_case(&mut rng, kind),
        };
        check(i, &c);
    }
}

#[test]
fn planted_control_a_wrong_screen_threshold_is_caught() {
    // Pruning at 0.9 × the anchor instead of the candidate floor drops
    // cells the peak finder reads: the same property must fail.
    let mismatches = cases()
        .iter()
        .filter(|c| {
            let oracle = c.sar.heatmap(&c.traj, &c.ch);
            let oracle_est = select_nearest_peak(&oracle, &c.traj);
            let map = c.sar.screened_heatmap(&c.traj, &c.ch, 0.9);
            let est = select_nearest_peak(&map, &c.traj);
            differs(&oracle, oracle_est, &map, est)
        })
        .count();
    assert!(mismatches >= 1, "the planted threshold went undetected");
}

/// The cases whose screened map at `radius` × tier 1's pruning radius
/// differs in any bit from the map with nothing pruned.
fn radius_mismatches(radius: f64) -> Vec<usize> {
    let bits = |m: &Heatmap| m.iter().map(|(_, _, _, v)| v.to_bits()).collect::<Vec<_>>();
    cases()
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            let pruned =
                c.sar
                    .screened_heatmap_with_radius(&c.traj, &c.ch, CANDIDATE_THRESHOLD, radius);
            let reference =
                c.sar
                    .screened_heatmap_with_radius(&c.traj, &c.ch, CANDIDATE_THRESHOLD, 0.0);
            bits(&pruned) != bits(&reference)
        })
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn the_f32_tier_leaves_the_f64_screen_bit_for_bit() {
    assert_eq!(radius_mismatches(1.0), Vec::<usize>::new());
}

#[test]
fn planted_control_a_doubled_pruning_radius_is_caught() {
    assert!(
        !radius_mismatches(2.0).is_empty(),
        "the doubled radius went undetected"
    );
}

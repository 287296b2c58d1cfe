//! Peak extraction and multipath-aware peak selection (§5.2).
//!
//! "Rather than picking the highest peak in Eq. 12, \[RFly\] chooses the
//! peak nearest to its trajectory" — because every reflection travels a
//! longer path than the direct one, multipath ghosts always project
//! *farther* from the trajectory than the true tag.

use std::collections::BTreeMap;

use rfly_channel::geometry::Point2;

use super::heatmap::Heatmap;
use super::trajectory::Trajectory;

/// A local maximum of the heatmap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// The peak position.
    pub position: Point2,
    /// Its (unnormalized) score.
    pub value: f64,
}

/// Fraction of the global maximum a local maximum must reach to count
/// as a candidate peak.
///
/// Calibration: a uniform K-element synthetic array has −13 dB (≈ 5 %)
/// first sidelobes near the mainlobe, but for *distant* tags the poor
/// range resolution of a small aperture raises radial lobes to ~15 % —
/// and those lie toward the trajectory, exactly where the nearest-peak
/// rule would wrongly prefer them. 35 % sits above that clutter while
/// still admitting a direct-path peak whose amplitude is down to ~60 %
/// of a dominant reflection component (the Fig. 5 obstructed-direct
/// case). This is the inherent tradeoff of the §5.2 selection rule.
pub const CANDIDATE_THRESHOLD: f64 = 0.35;

/// Finds all local maxima (8-neighborhood) at or above
/// `threshold × global_max`, strongest first (ties in row-major order),
/// with plateau duplicates merged: a maximum within 1.5 cells of a
/// stronger one kept before it is dropped. The number of maxima
/// examined is the `loc.peaks.local_maxima` counter.
pub fn find_peaks(map: &Heatmap, threshold: f64) -> Vec<Peak> {
    let mut peaks = local_maxima(map, threshold);
    rfly_obs::counter_add("loc.peaks.local_maxima", peaks.len() as u64);
    // Merge plateau duplicates: keep one peak per cluster of adjacent
    // equal-valued cells (within one cell size).
    peaks.sort_by(|a, b| b.value.total_cmp(&a.value));
    keep_apart(peaks, map.resolution() * 1.5, 1)
}

/// The local maxima (8-neighborhood) at or above `threshold ×
/// global_max`, in row-major order.
fn local_maxima(map: &Heatmap, threshold: f64) -> Vec<Peak> {
    assert!((0.0..=1.0).contains(&threshold));
    let (_, global) = map.peak();
    if global <= 0.0 {
        return Vec::new();
    }
    let floor = global * threshold;
    let mut peaks = Vec::new();
    for iy in 0..map.ny() {
        for ix in 0..map.nx() {
            let v = map.get(ix, iy);
            if v < floor {
                continue;
            }
            if !map.neighbours(ix, iy).any(|(x, y)| map.get(x, y) > v) {
                peaks.push(Peak {
                    position: map.position(ix, iy),
                    value: v,
                });
            }
        }
    }
    peaks
}

/// Keeps each peak, in order, that lies farther than `radius` from
/// every peak kept before it: the greedy rule of plateau merging and
/// sidelobe suppression, in time linear in the number of peaks.
///
/// Kept peaks sit in square buckets `w = radius·(1 + 2⁻²⁰)` wide, keyed
/// by `⌊x/w⌋, ⌊y/w⌋`, and a peak is tested with the exact
/// `Point2::distance` against the kept peaks in the `reach` rings of
/// buckets around its own (1; any other value is a planted fault).
/// That misses no kept peak within `radius`: such a peak is within
/// `radius·(1 + 3u)` of it along each axis (`u = 2⁻⁵³`; the difference
/// and `hypot` round by at most 1 ulp each), so the two quotients differ
/// by at most `(1 + 3u)/(1 + 2⁻²⁰) + 2u·Q < 1`, `Q < 2³⁰` their size,
/// and their floors by at most 1. A peak with a quotient of 2³⁰ or more
/// or one that is not finite (every peak, when `radius` is 0 or NaN)
/// takes no bucket: it is tested against every kept peak, and every
/// later peak is tested against it.
fn keep_apart(peaks: Vec<Peak>, radius: f64, reach: i64) -> Vec<Peak> {
    const LIMIT: f64 = 1_073_741_824.0;
    let w = radius * (1.0 + 1.0 / 1_048_576.0);
    let bucket = |p: Point2| {
        let (x, y) = (p.x / w, p.y / w);
        (x.abs() < LIMIT && y.abs() < LIMIT).then(|| (x.floor() as i64, y.floor() as i64))
    };
    // Each bucket's last kept peak; `next[i]` is the kept peak put in
    // kept peak i's bucket before it (usize::MAX ends the chain). Kept
    // peaks without a bucket chain from `loose`.
    let mut kept: Vec<Peak> = Vec::new();
    let mut next: Vec<usize> = Vec::new();
    let mut heads: BTreeMap<(i64, i64), usize> = BTreeMap::new();
    let mut loose = usize::MAX;
    for p in peaks {
        let apart = |mut i: usize| {
            // Written as the reference's test: a NaN distance is not far.
            while i != usize::MAX {
                let far = kept[i].position.distance(p.position) > radius;
                if !far {
                    return false;
                }
                i = next[i];
            }
            true
        };
        let key = bucket(p.position);
        let clear = match key {
            Some((bx, by)) => {
                apart(loose)
                    && (by - reach..=by + reach).all(|y| {
                        (bx - reach..=bx + reach)
                            .all(|x| heads.get(&(x, y)).is_none_or(|&i| apart(i)))
                    })
            }
            None => kept
                .iter()
                .all(|q| q.position.distance(p.position) > radius),
        };
        if clear {
            let head = match key {
                Some(k) => heads.entry(k).or_insert(usize::MAX),
                None => &mut loose,
            };
            next.push(*head);
            *head = kept.len();
            kept.push(p);
        }
    }
    kept
}

/// Sidelobe suppression radius, meters: a candidate peak within this
/// distance of a *stronger* candidate is treated as that peak's
/// sidelobe, not an independent image. The two-way array pattern's
/// range/grating lobes cluster within roughly 2λ–3λ (≲ 1 m at UHF) of
/// their mainlobe, while multipath ghosts — whose path excess is a
/// reflection geometry — land meters away.
pub const SIDELOBE_RADIUS_M: f64 = 1.0;

/// Removes candidates lying within [`SIDELOBE_RADIUS_M`] of a stronger
/// candidate. Input must be sorted strongest-first (as `find_peaks`
/// returns).
pub fn suppress_sidelobes(peaks: Vec<Peak>) -> Vec<Peak> {
    keep_apart(peaks, SIDELOBE_RADIUS_M, 1)
}

/// The paper's selection rule: among salient candidate peaks (above
/// [`CANDIDATE_THRESHOLD`], sidelobes suppressed), pick the one nearest
/// the trajectory.
pub fn select_nearest_peak(map: &Heatmap, trajectory: &Trajectory) -> Option<Point2> {
    let candidates = suppress_sidelobes(find_peaks(map, CANDIDATE_THRESHOLD));
    candidates
        .into_iter()
        .min_by(|a, b| {
            trajectory
                .distance_to(a.position)
                .total_cmp(&trajectory.distance_to(b.position))
        })
        .map(|p| p.position)
}

/// The naive selection rule (highest peak) — kept as the ablation
/// baseline for the `ablation_peak_selection` bench.
pub fn select_highest_peak(map: &Heatmap) -> Option<Point2> {
    let (pos, v) = map.peak();
    (v > 0.0).then_some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(peaks: &[(usize, usize, f64)]) -> Heatmap {
        let mut m = Heatmap::new(Point2::ORIGIN, 0.5, 20, 20);
        for &(x, y, v) in peaks {
            m.set(x, y, v);
        }
        m
    }

    #[test]
    fn finds_isolated_maxima() {
        let m = map_with(&[(5, 5, 1.0), (15, 15, 0.8), (10, 2, 0.2)]);
        let peaks = find_peaks(&m, 0.5);
        assert_eq!(peaks.len(), 2, "0.2 peak is below threshold");
        assert_eq!(peaks[0].position, Point2::new(2.5, 2.5));
        assert_eq!(peaks[1].position, Point2::new(7.5, 7.5));
    }

    #[test]
    fn nearest_peak_beats_highest_peak() {
        // Ghost at (15,15) is stronger but farther from the trajectory
        // along y = 0.
        let m = map_with(&[(5, 2, 0.9), (15, 15, 1.0)]);
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(9.0, 0.0), 10);
        let nearest = select_nearest_peak(&m, &traj).unwrap();
        assert_eq!(nearest, Point2::new(2.5, 1.0));
        let highest = select_highest_peak(&m).unwrap();
        assert_eq!(highest, Point2::new(7.5, 7.5));
    }

    #[test]
    fn threshold_excludes_weak_ghosts_from_candidacy() {
        // A weak blob very near the trajectory must NOT be chosen over
        // the real peak, because it fails the candidate threshold.
        let m = map_with(&[(5, 10, 1.0), (2, 0, 0.1)]);
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(9.0, 0.0), 10);
        let sel = select_nearest_peak(&m, &traj).unwrap();
        assert_eq!(sel, Point2::new(2.5, 5.0));
    }

    #[test]
    fn plateau_collapses_to_one_peak() {
        let mut m = Heatmap::new(Point2::ORIGIN, 0.5, 10, 10);
        m.set(4, 4, 1.0);
        m.set(4, 5, 1.0);
        m.set(5, 4, 1.0);
        let peaks = find_peaks(&m, 0.5);
        assert_eq!(peaks.len(), 1, "adjacent equal maxima merge");
    }

    #[test]
    fn empty_map_has_no_peaks() {
        let m = Heatmap::new(Point2::ORIGIN, 1.0, 5, 5);
        assert!(find_peaks(&m, 0.5).is_empty());
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 2);
        assert!(select_nearest_peak(&m, &traj).is_none());
        assert!(select_highest_peak(&m).is_none());
    }

    /// The O(P²) greedy rule [`keep_apart`] replaces: each peak tested
    /// against every peak kept before it.
    fn keep_apart_reference(peaks: Vec<Peak>, radius: f64) -> Vec<Peak> {
        let mut kept: Vec<Peak> = Vec::new();
        for p in peaks {
            if kept
                .iter()
                .all(|q| q.position.distance(p.position) > radius)
            {
                kept.push(p);
            }
        }
        kept
    }

    fn same(a: &[Peak], b: &[Peak]) -> bool {
        let key = |p: &Peak| {
            (
                p.position.x.to_bits(),
                p.position.y.to_bits(),
                p.value.to_bits(),
            )
        };
        a.iter().map(key).eq(b.iter().map(key))
    }

    /// Over seeded inputs, the cases where [`keep_apart`] with `reach`
    /// differs from the reference:
    /// - maps on a 0.25 m grid with a negative origin, whose values come
    ///   from four levels (plateaus and exact ties), through the merge at
    ///   1.5 cells and the suppression at 1 m (4 cells along an axis);
    /// - peak lists on a 0.25 m lattice around the origin, kept at
    ///   1.25 m, which offsets of (5, 0) and (3, 4) steps meet exactly.
    fn bucket_mismatches(reach: i64) -> usize {
        use rfly_dsp::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xB0C4E7);
        let mut out = 0;
        for _ in 0..200 {
            let (nx, ny) = (rng.gen_range(8usize..48), rng.gen_range(8usize..48));
            let mut m = Heatmap::new(Point2::new(-3.0, -5.5), 0.25, nx, ny);
            for iy in 0..ny {
                for ix in 0..nx {
                    m.set(ix, iy, [0.0, 0.4, 0.7, 1.0][rng.gen_range(0usize..4)]);
                }
            }
            let mut raw = local_maxima(&m, CANDIDATE_THRESHOLD);
            raw.sort_by(|a, b| b.value.total_cmp(&a.value));
            let merged = keep_apart_reference(raw.clone(), 0.375);
            let kept = keep_apart_reference(merged.clone(), SIDELOBE_RADIUS_M);
            out += usize::from(!same(&keep_apart(raw, 0.375, reach), &merged));
            out += usize::from(!same(&keep_apart(merged, SIDELOBE_RADIUS_M, reach), &kept));

            let peaks: Vec<Peak> = (0..rng.gen_range(1usize..120))
                .map(|_| Peak {
                    position: Point2::new(
                        f64::from(rng.gen_range(-20i32..20)) * 0.25,
                        f64::from(rng.gen_range(-20i32..20)) * 0.25,
                    ),
                    value: f64::from(rng.gen_range(1u32..4)),
                })
                .collect();
            let reference = keep_apart_reference(peaks.clone(), 1.25);
            out += usize::from(!same(&keep_apart(peaks, 1.25, reach), &reference));
        }
        out
    }

    #[test]
    fn bucketed_greedy_matches_the_quadratic_rule() {
        assert_eq!(Point2::ORIGIN.distance(Point2::new(0.75, 1.0)), 1.25);
        assert_eq!(bucket_mismatches(1), 0);
    }

    #[test]
    fn planted_control_skipping_the_bucket_ring_is_caught() {
        assert!(
            bucket_mismatches(0) >= 1,
            "the skipped ring went undetected"
        );
    }

    #[test]
    fn peaks_without_a_bucket_are_tested_against_every_kept_peak() {
        // A peak 2³⁰ buckets out, a NaN one and an infinite one take no
        // bucket; a NaN position is never farther than the radius, so
        // once kept it blocks every later peak, as the reference does.
        let at = |x: f64, y: f64, value: f64| Peak {
            position: Point2::new(x, y),
            value,
        };
        let cases = [
            vec![
                at(2e9, 0.0, 3.0),
                at(2e9 + 0.5, 0.0, 2.0),
                at(0.0, 0.0, 1.0),
            ],
            vec![at(f64::NAN, 0.0, 3.0), at(5.0, 5.0, 2.0)],
            vec![
                at(1.0, 1.0, 3.0),
                at(f64::INFINITY, 0.0, 2.0),
                at(1.5, 1.0, 1.0),
            ],
        ];
        for peaks in cases {
            for radius in [1.0, 0.0, f64::NAN] {
                let reference = keep_apart_reference(peaks.clone(), radius);
                assert!(same(&keep_apart(peaks.clone(), radius, 1), &reference));
            }
        }
    }

    #[test]
    fn edge_cells_can_be_peaks() {
        let m = map_with(&[(0, 0, 1.0)]);
        let peaks = find_peaks(&m, 0.5);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].position, Point2::ORIGIN);
    }
}

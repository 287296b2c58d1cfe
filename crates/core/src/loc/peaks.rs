//! Peak extraction and multipath-aware peak selection (§5.2).
//!
//! "Rather than picking the highest peak in Eq. 12, \[RFly\] chooses the
//! peak nearest to its trajectory" — because every reflection travels a
//! longer path than the direct one, multipath ghosts always project
//! *farther* from the trajectory than the true tag.

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
/// `threshold × global_max`.
pub fn find_peaks(map: &Heatmap, threshold: f64) -> Vec<Peak> {
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
            let mut is_max = true;
            'nb: for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = ix as i64 + dx;
                    let ny = iy as i64 + dy;
                    if nx < 0 || ny < 0 || nx >= map.nx() as i64 || ny >= map.ny() as i64 {
                        continue;
                    }
                    if map.get(nx as usize, ny as usize) > v {
                        is_max = false;
                        break 'nb;
                    }
                }
            }
            if is_max {
                peaks.push(Peak {
                    position: map.position(ix, iy),
                    value: v,
                });
            }
        }
    }
    // Merge plateau duplicates: keep one peak per cluster of adjacent
    // equal-valued cells (within one cell size).
    peaks.sort_by(|a, b| b.value.total_cmp(&a.value));
    let mut merged: Vec<Peak> = Vec::new();
    for p in peaks {
        if merged
            .iter()
            .all(|q| q.position.distance(p.position) > map.resolution() * 1.5)
        {
            merged.push(p);
        }
    }
    merged
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
    let mut kept: Vec<Peak> = Vec::new();
    for p in peaks {
        if kept
            .iter()
            .all(|q| q.position.distance(p.position) > SIDELOBE_RADIUS_M)
        {
            kept.push(p);
        }
    }
    kept
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

    #[test]
    fn edge_cells_can_be_peaks() {
        let m = map_with(&[(0, 0, 1.0)]);
        let peaks = find_peaks(&m, 0.5);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].position, Point2::ORIGIN);
    }
}

//! Synthetic-aperture localization: the non-linear projection of
//! Eqs. 11–12.
//!
//! Every candidate point `(x, y)` is scored by how coherently the
//! isolated half-link channels `h'_l` add up after compensating the
//! round-trip phase to each trajectory position:
//!
//! ```text
//! P(x,y) = | Σ_l h'_l · e^{ +j·2π·f₂·2·√((x−x_l)² + (y−y_l)²) / c } |²
//! ```
//!
//! The peak of `P` is the tag estimate in line-of-sight; under
//! multipath, [`super::peaks`] refines the choice. Because the
//! projection is non-linear in position, a 1D trajectory suffices for a
//! 2D fix (one of the paper's observations about Fig. 6).
//!
//! [`SarLocalizer::heatmap`] is the exhaustive grid search.
//! [`SarLocalizer::localize`] returns the same estimate, bit for bit,
//! while scoring exactly only the cells that can change it — the faster
//! search the paper's footnote 7 points at, exact by construction.

use rfly_channel::geometry::Point2;
use rfly_dsp::units::Hertz;
use rfly_dsp::{Complex, SPEED_OF_LIGHT};

use super::heatmap::Heatmap;
use super::peaks;
use super::trajectory::Trajectory;

/// Grid-search SAR localizer.
#[derive(Debug, Clone)]
pub struct SarLocalizer {
    /// The frequency of the relay→tag half-link (f₂). The paper notes
    /// (§5.2) that using the reader's f instead changes results by
    /// < 1 % since |f − f₂|/f < 0.01; we use the exact value.
    pub frequency: Hertz,
    /// Lower-left corner of the search region.
    pub region_min: Point2,
    /// Upper-right corner of the search region.
    pub region_max: Point2,
    /// Grid cell size, meters.
    pub resolution: f64,
}

impl SarLocalizer {
    /// Creates a localizer over a rectangular region.
    pub fn new(frequency: Hertz, region_min: Point2, region_max: Point2, resolution: f64) -> Self {
        assert!(region_max.x > region_min.x && region_max.y > region_min.y);
        assert!(resolution > 0.0);
        Self {
            frequency,
            region_min,
            region_max,
            resolution,
        }
    }

    /// The matched-filter score at a single point — `P(x, y)` for one
    /// candidate.
    pub fn score_at(&self, p: Point2, trajectory: &Trajectory, channels: &[Complex]) -> f64 {
        assert_eq!(
            trajectory.len(),
            channels.len(),
            "one channel per trajectory position"
        );
        let k = std::f64::consts::TAU * self.frequency.as_hz() / SPEED_OF_LIGHT;
        let mut acc = Complex::default();
        for (pos, h) in trajectory.points().iter().zip(channels) {
            let d = pos.distance(p);
            acc += *h * Complex::cis(k * 2.0 * d);
        }
        acc.norm_sq()
    }

    /// The grid [`Self::heatmap`] and [`Self::localize`] share.
    fn empty_map(&self) -> Heatmap {
        let nx = ((self.region_max.x - self.region_min.x) / self.resolution).ceil() as usize + 1;
        let ny = ((self.region_max.y - self.region_min.y) / self.resolution).ceil() as usize + 1;
        Heatmap::new(self.region_min, self.resolution, nx, ny)
    }

    /// Evaluates `P(x, y)` over the whole grid: the exhaustive search,
    /// and the oracle [`Self::localize`] is tested against.
    pub fn heatmap(&self, trajectory: &Trajectory, channels: &[Complex]) -> Heatmap {
        let mut map = self.empty_map();
        for iy in 0..map.ny() {
            for ix in 0..map.nx() {
                let p = map.position(ix, iy);
                map.set(ix, iy, self.score_at(p, trajectory, channels));
            }
        }
        map
    }

    /// Full localization: heatmap → multipath-aware peak selection
    /// (nearest candidate peak to the trajectory, §5.2). Returns the
    /// estimate and the heatmap (for diagnostics).
    ///
    /// The estimate is bit-identical to [`peaks::select_nearest_peak`]
    /// over the exhaustive [`Self::heatmap`], but only the cells that
    /// can change it are scored exactly (see [`Self::screened_heatmap`]).
    /// Every cell at or above the candidate floor holds the exhaustive
    /// map's bits; cells proven below the floor read 0.
    pub fn localize(
        &self,
        trajectory: &Trajectory,
        channels: &[Complex],
    ) -> Option<(Point2, Heatmap)> {
        if channels.is_empty() || channels.iter().all(|h| h.norm_sq() == 0.0) {
            return None;
        }
        let _span = rfly_obs::span("loc.sar.localize");
        rfly_obs::counter_add("loc.sar.passes", 1);
        rfly_obs::counter_add("loc.sar.measurements", channels.len() as u64);
        let map = self.screened_heatmap(trajectory, channels, peaks::CANDIDATE_THRESHOLD);
        let est = peaks::select_nearest_peak(&map, trajectory)?;
        Some((est, map))
    }

    /// The heatmap [`Self::localize`] selects from: exact wherever a
    /// cell can reach `threshold` × the global maximum, 0 elsewhere.
    /// `threshold` is [`peaks::CANDIDATE_THRESHOLD`] in production; it
    /// is a parameter only so tests can plant a wrong one.
    ///
    /// Filter and refine with a certified error bound:
    ///
    /// 1. *Screen.* Row by row, every cell gets an upper bound
    ///    `ub ≥ √P` from a branch-free, autovectorised evaluation of
    ///    Eq. 12 ([`fast_cis`], error < 1e-9 per phasor) plus a slack of
    ///    [`SCREEN_SLACK`]·Σ|hₖ|, which covers that error, the range
    ///    reduction and the f64 accumulation by orders of magnitude. The
    ///    bounds live in the heatmap's own storage.
    /// 2. *Anchor.* The cell with the largest bound is scored exactly
    ///    with [`Self::score_at`]: `L ≤ G`, the global maximum.
    /// 3. *Refine.* Every cell with `ub²·(1 + 1e-9) ≥ threshold·L` is
    ///    re-scored with the unchanged [`Self::score_at`], so it holds
    ///    the exhaustive map's bits; every other cell is set to 0.
    ///
    /// Why [`peaks::select_nearest_peak`] then returns exactly what it
    /// returns on the exhaustive map: a cell whose true `P` reaches
    /// `find_peaks`' floor `threshold·G ≥ threshold·L` has
    /// `ub² ≥ P ≥ threshold·L`, so it is exact — the global maximum
    /// included, hence the floor itself is unchanged. A pruned cell is
    /// below the floor both as stored (0) and in truth. So every
    /// candidate cell, its value, and the outcome of each 8-neighbour
    /// test against it (a neighbour below the floor can never exceed a
    /// candidate) are the same; plateau merging, sidelobe suppression
    /// and the nearest-peak choice read nothing else.
    ///
    /// A degenerate map (`L ≤ 0` or not finite) falls back to
    /// [`Self::heatmap`]. A bound that is NaN is never pruned.
    #[doc(hidden)]
    pub fn screened_heatmap(
        &self,
        trajectory: &Trajectory,
        channels: &[Complex],
        threshold: f64,
    ) -> Heatmap {
        assert_eq!(
            trajectory.len(),
            channels.len(),
            "one channel per trajectory position"
        );
        let mut map = self.empty_map();
        let (nx, ny) = (map.nx(), map.ny());
        let k2 = 2.0 * std::f64::consts::TAU * self.frequency.as_hz() / SPEED_OF_LIGHT;
        let slack = SCREEN_SLACK * channels.iter().map(|h| h.abs()).sum::<f64>();
        let xs: Vec<f64> = (0..nx).map(|ix| map.position(ix, 0).x).collect();
        let mut re = vec![0.0; nx];
        let mut im = vec![0.0; nx];
        let mut anchor = (0, 0, f64::NEG_INFINITY);
        for iy in 0..ny {
            let y = map.position(0, iy).y;
            re.fill(0.0);
            im.fill(0.0);
            for (pos, h) in trajectory.points().iter().zip(channels) {
                let dy = y - pos.y;
                let dy2 = dy * dy;
                for ((x, r), i) in xs.iter().zip(&mut re).zip(&mut im) {
                    let dx = x - pos.x;
                    let (c, s) = fast_cis(k2 * (dx * dx + dy2).sqrt());
                    *r += h.re * c - h.im * s;
                    *i += h.re * s + h.im * c;
                }
            }
            for (ix, (r, i)) in re.iter().zip(&im).enumerate() {
                let ub = (r * r + i * i).sqrt() + slack;
                map.set(ix, iy, ub);
                if ub > anchor.2 {
                    anchor = (ix, iy, ub);
                }
            }
        }

        let l = self.score_at(map.position(anchor.0, anchor.1), trajectory, channels);
        if !(l > 0.0 && l.is_finite()) {
            rfly_obs::counter_add("loc.sar.cells_exact", (nx * ny + 1) as u64);
            return self.heatmap(trajectory, channels);
        }
        let cut = threshold * l;
        let mut exact = 1u64;
        for iy in 0..ny {
            for ix in 0..nx {
                let ub = map.get(ix, iy);
                let v = if ub * ub * (1.0 + 1e-9) < cut {
                    0.0
                } else {
                    exact += 1;
                    self.score_at(map.position(ix, iy), trajectory, channels)
                };
                map.set(ix, iy, v);
            }
        }
        rfly_obs::counter_add("loc.sar.cells_exact", exact);
        map
    }
}

/// The screen's slack, as a fraction of Σ|hₖ|: the bound on how far
/// its `|Ŝ|` may sit below the exact `|S|`. [`fast_cis`] alone is good
/// to < 1e-9 per phasor, so this is ~1000× the worst case.
const SCREEN_SLACK: f64 = 1e-6;

/// `(cos φ, sin φ)` without a branch or a libm call, so the screen's
/// inner loop autovectorises. Absolute error < 1e-9 for φ ∈ [0, 2000].
///
/// φ is reduced by 2π to r ∈ [−π, π] (round-to-nearest by the
/// 1.5·2⁵² "magic number"), the half angle h = r/2 ∈ [−π/2, π/2] goes
/// through Taylor polynomials to h¹⁵ and h¹⁶ (truncation < 1e-11),
/// and one double-angle step gives cos r = c² − s², sin r = 2sc.
#[inline(always)]
fn fast_cis(phi: f64) -> (f64, f64) {
    const TAU: f64 = std::f64::consts::TAU;
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let n = (phi * (1.0 / TAU) + ROUND) - ROUND;
    let h = 0.5 * (phi - n * TAU);
    let h2 = h * h;
    let s = h
        * (1.0
            + h2 * (-1.0 / 6.0
                + h2 * (1.0 / 120.0
                    + h2 * (-1.0 / 5_040.0
                        + h2 * (1.0 / 362_880.0
                            + h2 * (-1.0 / 39_916_800.0
                                + h2 * (1.0 / 6_227_020_800.0
                                    + h2 * (-1.0 / 1_307_674_368_000.0))))))));
    let c = 1.0
        + h2 * (-1.0 / 2.0
            + h2 * (1.0 / 24.0
                + h2 * (-1.0 / 720.0
                    + h2 * (1.0 / 40_320.0
                        + h2 * (-1.0 / 3_628_800.0
                            + h2 * (1.0 / 479_001_600.0
                                + h2 * (-1.0 / 87_178_291_200.0
                                    + h2 * (1.0 / 20_922_789_888_000.0))))))));
    (c * c - s * s, 2.0 * s * c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_channel::phasor::{Path, PathSet};
    use rfly_dsp::units::Meters;

    const F2: Hertz = Hertz(917e6);

    /// Ground-truth forward model: the isolated half-link channel at
    /// each trajectory point for a tag at `tag` (round-trip phase).
    fn channels_for(tag: Point2, traj: &Trajectory) -> Vec<Complex> {
        traj.points()
            .iter()
            .map(|p| PathSet::line_of_sight(Meters::new(p.distance(tag)), 1.0).round_trip(F2))
            .collect()
    }

    fn localizer() -> SarLocalizer {
        SarLocalizer::new(F2, Point2::new(-0.5, -0.5), Point2::new(3.0, 3.0), 0.02)
    }

    #[test]
    fn los_localization_is_centimeter_accurate() {
        // Mirrors Fig. 6(a): 3 m aperture, tag ~1.2 m off the path;
        // the paper reports < 7 cm error in LoS.
        let traj = Trajectory::line(Point2::new(-0.25, 0.0), Point2::new(2.75, 0.0), 61);
        let tag = Point2::new(1.3, 1.2);
        let ch = channels_for(tag, &traj);
        let (est, _) = localizer().localize(&traj, &ch).expect("localizes");
        let err = est.distance(tag);
        assert!(err < 0.07, "error {err} m");
    }

    #[test]
    fn score_peaks_at_the_true_location() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0), 41);
        let tag = Point2::new(1.0, 1.0);
        let ch = channels_for(tag, &traj);
        let loc = localizer();
        let at_tag = loc.score_at(tag, &traj, &ch);
        // Perfect coherence: |Σ 1|² = K².
        assert!((at_tag - (41.0f64).powi(2)).abs() < 1e-6);
        for probe in [
            Point2::new(0.2, 2.0),
            Point2::new(2.5, 0.5),
            Point2::new(1.0, 2.5),
        ] {
            assert!(loc.score_at(probe, &traj, &ch) < at_tag);
        }
    }

    #[test]
    fn one_dimensional_trajectory_gives_2d_fix() {
        // The y-coordinate is recoverable from a purely-x trajectory —
        // the non-linearity of the projection at work. The mirror
        // ambiguity y ↔ −y inherent to a linear array is broken by a
        // one-sided search region, as in the paper's setups where the
        // robot drives along a wall/edge of the area of interest.
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 51);
        let one_sided = SarLocalizer::new(F2, Point2::new(-0.5, 0.2), Point2::new(3.0, 3.0), 0.02);
        for tag_y in [0.6, 1.4, 2.2] {
            let tag = Point2::new(1.2, tag_y);
            let ch = channels_for(tag, &traj);
            let (est, _) = one_sided.localize(&traj, &ch).expect("localizes");
            assert!(
                (est.y - tag_y).abs() < 0.08,
                "y error {} at tag_y {tag_y}",
                (est.y - tag_y).abs()
            );
        }
    }

    #[test]
    fn longer_aperture_sharpens_the_fix() {
        // Fig. 13's mechanism: larger aperture → narrower beam → smaller
        // error. Test via the heatmap mainlobe width.
        let tag = Point2::new(1.5, 1.5);
        let mut widths = Vec::new();
        for k in [11usize, 41] {
            let half = if k == 11 { 0.25 } else { 1.25 };
            let traj = Trajectory::line(
                Point2::new(1.5 - half, 0.0),
                Point2::new(1.5 + half, 0.0),
                k,
            );
            let ch = channels_for(tag, &traj);
            let mut map = localizer().heatmap(&traj, &ch);
            map.normalize();
            // Count cells above half power — a proxy for beam area.
            let area = map.iter().filter(|(_, _, _, v)| *v > 0.5).count();
            widths.push(area);
        }
        assert!(
            widths[1] * 2 <= widths[0],
            "aperture 2.5 m ({}) should focus much tighter than 0.5 m ({})",
            widths[1],
            widths[0]
        );
    }

    #[test]
    fn multipath_creates_ghosts_farther_than_truth() {
        // §5.2's insight: reflections travel farther, so ghost peaks lie
        // farther from the trajectory than the true tag. A specular
        // bounce off a wall produces a coherent ghost exactly at the
        // tag's mirror image — here a wall at x = 3 with the direct path
        // badly attenuated by an obstacle (the Fig. 5 scenario), so the
        // ghost is the *global* peak.
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 51);
        let tag = Point2::new(1.2, 1.0);
        let image = Point2::new(4.8, 1.0); // mirror across x = 3
        let ch: Vec<Complex> = traj
            .points()
            .iter()
            .map(|p| {
                let ps = PathSet::from_paths(vec![
                    Path::new(Meters::new(p.distance(tag)), 1.0),
                    Path::new(Meters::new(p.distance(image)), 0.7),
                ]);
                ps.round_trip(F2)
            })
            .collect();
        // One-sided region (y ≥ 0): the linear trajectory cannot break
        // the y ↔ −y mirror ambiguity by itself.
        let loc = SarLocalizer::new(F2, Point2::new(-0.5, 0.0), Point2::new(8.5, 4.5), 0.02);
        let (est, map) = loc.localize(&traj, &ch).expect("localizes");
        // The *global* peak is a multipath ghost (the squared two-path
        // channel produces images at the mirror point and at cross-term
        // loci — all farther from the trajectory than the truth)...
        let (global, _) = map.peak();
        assert!(
            global.distance(tag) > 1.0,
            "global peak at {global} should be a far ghost, not the tag {tag}"
        );
        assert!(traj.distance_to(global) > traj.distance_to(tag) + 0.5);
        // ...but nearest-peak selection still lands on the true tag.
        assert!(est.distance(tag) < 0.15, "error {}", est.distance(tag));
    }

    #[test]
    fn silent_channels_do_not_localize() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 11);
        let ch = vec![Complex::default(); 11];
        assert!(localizer().localize(&traj, &ch).is_none());
    }

    #[test]
    fn fast_cis_is_accurate_over_the_search_range() {
        // 2000 rad is a 170 m round trip at 916 MHz, far past any
        // search region; the screen's slack assumes < 1e-9.
        let mut worst = 0.0f64;
        for i in 0..=2_000_000 {
            let phi = f64::from(i) * 1e-3 + 1.234_567e-7 * f64::from(i % 7);
            let (c, s) = fast_cis(phi);
            let exact = Complex::cis(phi);
            worst = worst.max((c - exact.re).abs()).max((s - exact.im).abs());
        }
        assert!(worst < 1e-9, "fast_cis error {worst}");
    }

    #[test]
    #[should_panic(expected = "one channel per trajectory position")]
    fn mismatched_lengths_rejected() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 5);
        let _ = localizer().score_at(Point2::ORIGIN, &traj, &[Complex::default()]);
    }
}

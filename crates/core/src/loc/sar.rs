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
//! search the paper's footnote 7 points at, exact by construction. Its
//! screen bounds every cell from above with phasors read from a
//! 256-entry table and rotated by a short Taylor polynomial, whose
//! error is a stated function of the phase (see `table_cis`).

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
    /// 1. *Screen* ([`Self::screen`]). Row by row, every cell gets an
    ///    upper bound `ub ≥ √P` from a branch-free, autovectorised
    ///    evaluation of Eq. 12 through the phasor table ([`table_cis`],
    ///    error ≤ 2e-15 + 2e-16·φ per phasor) plus a slack of
    ///    [`SCREEN_SLACK`]·Σ|hₖ|, which covers that error, the phase
    ///    argument's rounding and the f64 accumulation by orders of
    ///    magnitude. The bounds live in the heatmap's own storage.
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
        let slack = SCREEN_SLACK * channels.iter().map(|h| h.abs()).sum::<f64>();
        let (mut map, anchor) = self.screen(trajectory, channels, slack);
        let (nx, ny) = (map.nx(), map.ny());

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

    /// The screen of [`Self::screened_heatmap`]: the map of bounds
    /// `|Ŝ| + slack`, where `Ŝ` is Eq. 12's sum with every phasor taken
    /// from [`table_cis`], and the first cell (row-major) holding the
    /// largest bound. With `slack` = [`SCREEN_SLACK`]·Σ|hₖ| every bound
    /// is at least `√P`; with a smaller one it need not be.
    fn screen(
        &self,
        trajectory: &Trajectory,
        channels: &[Complex],
        slack: f64,
    ) -> (Heatmap, (usize, usize)) {
        let mut map = self.empty_map();
        let (nx, ny) = (map.nx(), map.ny());
        let k2 = 2.0 * std::f64::consts::TAU * self.frequency.as_hz() / SPEED_OF_LIGHT;
        let table = cis_table();
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
                    let (c, s) = table_cis(&table, k2 * (dx * dx + dy2).sqrt());
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
        (map, (anchor.0, anchor.1))
    }
}

/// The screen's slack, as a fraction of Σ|hₖ|: the bound on how far
/// its `|Ŝ|` may sit below the exact `|S|`. [`table_cis`] alone is good
/// to 2e-15 + 2e-16·φ per phasor, so this covers every φ below ~5e9 rad
/// (a 130,000 km round trip at 916 MHz) with room to spare.
const SCREEN_SLACK: f64 = 1e-6;

/// Entries in the phasor table of [`table_cis`]: `2πj/256`, j = 0‥255.
/// A power of two, so `n mod 256` is a mask of the rounded quotient.
const TABLE_LEN: usize = 256;

/// `(cos θⱼ, sin θⱼ)` for `θⱼ = j·(2π/256)`, from libm through
/// [`Complex::cis`]: each entry is within 1e-15 of the true phasor.
fn cis_table() -> [(f64, f64); TABLE_LEN] {
    let step = std::f64::consts::TAU / TABLE_LEN as f64;
    std::array::from_fn(|j| {
        let z = Complex::cis(j as f64 * step);
        (z.re, z.im)
    })
}

/// `(cos φ, sin φ)` without a branch or a libm call, so the screen's
/// inner loop autovectorises.
///
/// φ = n·(2π/256) + r: `n` is φ·256/2π rounded to nearest by the
/// 1.5·2⁵² "magic number", whose sum keeps `n mod 256` in its low
/// mantissa bits (read by `to_bits`, as a float→int conversion would
/// stop SSE2 vectorisation), so `table[n mod 256]` is `cis(n·2π/256)`.
/// The residual `|r| ≤ π/256` goes through Taylor polynomials to r⁵
/// and r⁶, and one complex multiply rotates the table entry by it.
///
/// Absolute error per component, against the true `(cos φ, sin φ)`:
/// - table entry (libm on a rounded angle): < 1e-15;
/// - truncation: `r⁷/7! + r⁸/8! < 1e-17` at `|r| = π/256`;
/// - evaluation and the final multiply: a few ulps of 1, < 1e-15;
/// - reduction: `r` carries the rounding of `n·(2π/256)` (≤ ½ ulp of
///   φ, 1.1e-16·φ) and the f64 constant's own error (n·1e-18, 4e-17·φ),
///   so this term grows ∝ φ.
///
/// In all, ≤ 2e-15 + 2e-16·φ, for 0 ≤ φ < 5e13 (the magic number needs
/// `|φ·256/2π| < 2⁵¹`). A 40×30 m scene at 916 MHz reaches φ ≈ 1,920.
#[inline(always)]
fn table_cis(table: &[(f64, f64); TABLE_LEN], phi: f64) -> (f64, f64) {
    const STEP: f64 = std::f64::consts::TAU / TABLE_LEN as f64;
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let t = phi * (1.0 / STEP) + ROUND;
    let (tc, ts) = table[t.to_bits() as usize & (TABLE_LEN - 1)];
    let r = phi - (t - ROUND) * STEP;
    let r2 = r * r;
    let s = r * (1.0 + r2 * (-1.0 / 6.0 + r2 * (1.0 / 120.0)));
    let c = 1.0 + r2 * (-1.0 / 2.0 + r2 * (1.0 / 24.0 + r2 * (-1.0 / 720.0)));
    (tc * c - ts * s, ts * c + tc * s)
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

    /// [`table_cis`]'s stated per-component error bound at φ.
    fn kernel_bound(phi: f64) -> f64 {
        2e-15 + 2e-16 * phi
    }

    #[test]
    fn table_cis_meets_its_bound_over_every_reachable_phase() {
        // The supervisor's scene-wide search reaches φ ≈ 1,920 rad on a
        // 40 × 30 m world; 1e5 rad is a 2.6 km round trip.
        let table = cis_table();
        let check = |phi: f64| {
            let (c, s) = table_cis(&table, phi);
            let exact = Complex::cis(phi);
            let err = (c - exact.re).abs().max((s - exact.im).abs());
            assert!(err <= kernel_bound(phi), "error {err:e} at φ = {phi}");
        };
        for i in 0..=2_000_000 {
            check(f64::from(i) * 0.05 + 1.234_567e-7 * f64::from(i % 7));
        }
        // The seams: every table entry φ = 2πj/256 and every rounding
        // boundary (j + ½)·2π/256, ± 1 ulp, over turns near 0 and near
        // 1e5 rad; j = 256 is the next turn's entry 0, so each turn's
        // 255 → 0 index wrap is crossed.
        let step = std::f64::consts::TAU / TABLE_LEN as f64;
        for turn in [0u32, 1, 2, 15_914] {
            for j in 0..=TABLE_LEN as u32 {
                for half in [0.0, 0.5] {
                    let phi = (f64::from(turn * 256 + j) + half) * step;
                    for p in [phi.next_down(), phi, phi.next_up()] {
                        if p >= 0.0 {
                            check(p);
                        }
                    }
                }
            }
        }
    }

    /// Seeded straight, bent, line-of-sight and multipath cases.
    fn bound_cases() -> Vec<(Trajectory, Vec<Complex>)> {
        use rfly_dsp::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xB0_0D5);
        let mut out = Vec::new();
        for bent in [false, true] {
            for multipath in [false, true] {
                let k = rng.gen_range(11usize..42);
                let a = Point2::new(rng.gen_range(-0.3..0.3), 0.0);
                let c = Point2::new(rng.gen_range(2.2..2.8), 0.0);
                let traj = if bent {
                    let b = Point2::new(rng.gen_range(1.0..1.5), rng.gen_range(0.2..0.5));
                    let mut pts = Trajectory::line(a, b, k / 2 + 1).points().to_vec();
                    pts.extend(&Trajectory::line(b, c, k - k / 2).points()[1..]);
                    Trajectory::from_points(pts)
                } else {
                    Trajectory::line(a, c, k)
                };
                let tag = Point2::new(rng.gen_range(0.2..2.6), rng.gen_range(0.6..2.4));
                let image = Point2::new(rng.gen_range(-1.0..4.0), rng.gen_range(1.0..3.0));
                let ch = traj
                    .points()
                    .iter()
                    .map(|p| {
                        let mut paths = vec![Path::new(Meters::new(p.distance(tag)), 1.0)];
                        if multipath {
                            paths.push(Path::new(Meters::new(p.distance(image)), 0.7));
                        }
                        PathSet::from_paths(paths).round_trip(F2)
                    })
                    .collect();
                out.push((traj, ch));
            }
        }
        out
    }

    /// Cells whose screen bound, at `slack`·Σ|hₖ|, sits below `√P`.
    fn bound_violations(slack: f64) -> usize {
        let loc = SarLocalizer::new(F2, Point2::new(-0.5, -0.5), Point2::new(3.0, 3.0), 0.04);
        bound_cases()
            .iter()
            .map(|(traj, ch)| {
                let sum: f64 = ch.iter().map(|h| h.abs()).sum();
                let (ub, _) = loc.screen(traj, ch, slack * sum);
                ub.iter()
                    .filter(|&(_, _, p, ub)| ub < loc.score_at(p, traj, ch).sqrt())
                    .count()
            })
            .sum()
    }

    #[test]
    fn screen_bounds_every_cell_from_above() {
        // The invariant the exactness proof of `screened_heatmap` rests
        // on: every bound is at least the exact √P.
        assert_eq!(bound_violations(SCREEN_SLACK), 0);
    }

    #[test]
    fn planted_control_a_screen_without_slack_is_caught() {
        // Without the slack, |Ŝ| alone sits below |S| wherever the
        // kernel's error happens to point inward.
        assert!(bound_violations(0.0) >= 1, "the zero slack went undetected");
    }

    #[test]
    #[should_panic(expected = "one channel per trajectory position")]
    fn mismatched_lengths_rejected() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 5);
        let _ = localizer().score_at(Point2::ORIGIN, &traj, &[Complex::default()]);
    }
}

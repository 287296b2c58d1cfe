//! RSSI-based localization — the baseline of Figs. 13–14.
//!
//! §7.3: "We provide the channels of both the relay-embedded RFID and
//! the target RFID to the RSSI-based technique and apply the free-space
//! propagation model to the RSS measurements for estimating the
//! distance from the target tag to the relay." Position is then the
//! grid point whose distances to the trajectory best match the RSS
//! ranges — multilateration by grid search, sharing the SAR machinery's
//! region so the comparison is apples-to-apples.
//!
//! The paper finds this baseline ~20× worse than SAR (≈1 m median at a
//! 2.5 m aperture): amplitude decays slowly with distance and fading
//! corrupts it, whereas phase turns over every 16 cm.
//!
//! [`RssiLocalizer::localize`] returns the first minimum of the full
//! row-major scan, [`RssiLocalizer::full_scan`], bit for bit, but
//! prices cells with `√(dx² + dy²)` lower bounds first, over tiles and
//! then over the cells of each visited tile, and calls `hypot`
//! (`Point2::distance`, the scan's own cost) only for the cells those
//! bounds cannot rule out: ~13 of the ~610 in a localize pass.

use rfly_channel::geometry::Point2;
use rfly_dsp::units::Hertz;
use rfly_dsp::Complex;

use super::trajectory::Trajectory;

/// RSSI multilateration over a grid.
#[derive(Debug, Clone)]
pub struct RssiLocalizer {
    /// Carrier frequency of the relay→tag half-link.
    pub frequency: Hertz,
    /// Lower-left corner of the search region.
    pub region_min: Point2,
    /// Upper-right corner of the search region.
    pub region_max: Point2,
    /// Grid cell size, meters.
    pub resolution: f64,
    /// Reference amplitude: |h'| expected at 1 m round-trip. The
    /// experiment calibrates this from the known relay output power and
    /// tag backscatter gain; with disentangled channels normalized by
    /// the embedded tag, it is a system constant.
    pub reference_amplitude_1m: f64,
}

impl RssiLocalizer {
    /// Estimates the tag–relay distance from one channel magnitude via
    /// the free-space model: round-trip amplitude ∝ 1/d², so
    /// `d = √(A₁ₘ / |h|)`.
    pub fn distance_from_amplitude(&self, h: Complex) -> Option<f64> {
        let a = h.abs();
        if a <= 0.0 {
            return None;
        }
        Some((self.reference_amplitude_1m / a).sqrt())
    }

    /// Localizes by minimizing Σ (dist(p, traj_l) − d_l)² over the grid:
    /// the first minimum in row-major order, as [`Self::full_scan`]
    /// finds it.
    ///
    /// Branch-and-bound over tiles of `TILE`×`TILE` cells, then over
    /// the cells of each visited tile; every distance a bound reads is
    /// `√(dx² + dy²)`, and only a cell whose bound does not already lose
    /// gets its cost from `hypot` (`Point2::distance`), the full scan's
    /// expression:
    /// - *Tiles.* For a tile with box centre c and half-diagonal r, the
    ///   triangle inequality gives | |p − t| − |c − t| | ≤ r for every
    ///   cell p in it, so Σ max(0, |a − d| − r − 1e-9·(r + a + d))², with
    ///   `a` the centre's distance, bounds every cost in the tile from
    ///   below. Tiles are visited in ascending bound order until the
    ///   bound exceeds the best cost.
    /// - *Cells.* In a visited tile a cell's cost is bounded below by
    ///   Σ max(0, |a − d| − 1e-9·(a + d))², `a` its own distance, and the
    ///   cell is skipped only when that bound is strictly above the best
    ///   cost so far. Ties are broken by (cost, iy, ix), so the result
    ///   is bit-identical to the full scan.
    ///
    /// Why the bounds hold. `a` and the cost's `h = hypot(dx, dy)` take
    /// the same rounded differences, and each is within 2 ulp of
    /// `√(dx² + dy²)` (glibc's `hypot` is not correctly rounded, but its
    /// error is below 1 ulp), so `|a − h| ≤ 4u·a` with `u = 2⁻⁵³`. The
    /// margin 1e-9·(a + d) exceeds that, the rounding of `a − d` and of
    /// the margin itself (each ≤ u·(a + d)) more than 10⁶-fold, so each
    /// bound term `g` satisfies `g ≤ |fl(h − d)|·(1 − 9.8e-10)` and
    /// `g² ≤ fl(h − d)²·(1 − 1.9e-9)`. Squaring and summing K terms, in
    /// either sum, moves it by at most (K + 1)·u relative, so the bound
    /// stays below the computed cost while K < 10⁶. With r the same
    /// holds for a tile (r's own rounding is covered by 1e-9·r). The
    /// relative error of `a` needs `dx²` and `dy²` to stay normal or
    /// negligible: with every coordinate below 10¹⁰⁰ m in magnitude and
    /// every range in \[10⁻¹⁰⁰, 10¹⁰⁰\] m, no square overflows, and a
    /// distance whose squares underflow is below 2e-154 m, where
    /// 1e-9·d alone covers its error. Outside those limits (or with
    /// K ≥ 10⁶) no bound prunes, and every cell is scored.
    ///
    /// Returns `None` when every channel is silent, or when any channel
    /// or position is not finite.
    pub fn localize(&self, trajectory: &Trajectory, channels: &[Complex]) -> Option<Point2> {
        self.search(trajectory, channels, false)
    }

    /// [`Self::localize`]; with `skip_ties` (a planted fault) a cell is
    /// skipped when its bound merely equals the best cost.
    fn search(
        &self,
        trajectory: &Trajectory,
        channels: &[Complex],
        skip_ties: bool,
    ) -> Option<Point2> {
        assert_eq!(trajectory.len(), channels.len());
        if !trajectory.is_finite() || channels.iter().any(|h| !h.is_finite()) {
            return None;
        }
        let ranges = self.ranges(trajectory, channels);
        if ranges.is_empty() {
            return None;
        }
        let (nx, ny) = self.grid();
        let small = |v: f64| v.abs() < 1e100;
        let bounded = ranges.len() < 1_000_000
            && [self.region_min, self.cell(nx - 1, ny - 1)]
                .iter()
                .chain(trajectory.points())
                .all(|p| small(p.x) && small(p.y))
            && ranges.iter().all(|&(_, d)| small(d) && d >= 1e-100);
        // Σ max(0, |a − d| − r − 1e-9·(r + a + d))² over the ranges, `a`
        // the distance from `p`: a lower bound on the cost of every cell
        // within `r` of `p`; 0 when the limits above do not hold.
        let bound = |p: Point2, r: f64| -> f64 {
            if !bounded {
                return 0.0;
            }
            ranges
                .iter()
                .map(|&(t, d)| {
                    let a = root_distance(t, p);
                    let gap = ((a - d).abs() - r - 1e-9 * (r + a + d)).max(0.0);
                    gap * gap
                })
                .sum()
        };
        let mut tiles: Vec<(f64, usize, usize)> = (0..ny.div_ceil(TILE))
            .flat_map(|ty| (0..nx.div_ceil(TILE)).map(move |tx| (tx * TILE, ty * TILE)))
            .map(|(x0, y0)| {
                let lo = self.cell(x0, y0);
                let hi = self.cell((x0 + TILE).min(nx) - 1, (y0 + TILE).min(ny) - 1);
                let c = Point2::new(0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y));
                (bound(c, 0.5 * root_distance(lo, hi)), x0, y0)
            })
            .collect();
        tiles.sort_by(|a, b| a.0.total_cmp(&b.0));

        // (cost, iy, ix) of the best cell so far; a full scan only takes
        // a cost below f64::MAX.
        let mut best: Option<(f64, usize, usize)> = None;
        let mut exact = 0u64;
        for (lb, x0, y0) in tiles {
            if best.is_some_and(|b| lb > b.0) {
                break;
            }
            for iy in y0..(y0 + TILE).min(ny) {
                for ix in x0..(x0 + TILE).min(nx) {
                    let p = self.cell(ix, iy);
                    if let Some(b) = best {
                        let lb = bound(p, 0.0);
                        if lb > b.0 || (skip_ties && lb == b.0) {
                            continue;
                        }
                    }
                    let cost = range_cost(&ranges, p);
                    exact += 1;
                    let better = match best {
                        None => cost < f64::MAX,
                        Some(b) => cost < b.0 || (cost == b.0 && (iy, ix) < (b.1, b.2)),
                    };
                    if better {
                        best = Some((cost, iy, ix));
                    }
                }
            }
        }
        rfly_obs::counter_add("loc.rssi.cells_exact", exact);
        Some(best.map_or(Point2::ORIGIN, |(_, iy, ix)| self.cell(ix, iy)))
    }

    /// The exhaustive search: every cell's cost, in row-major order, the
    /// first strict minimum winning. It is the oracle [`Self::localize`]
    /// must reproduce bit for bit, the RSSI twin of
    /// [`SarLocalizer::heatmap`](super::sar::SarLocalizer::heatmap).
    ///
    /// Returns `None` when every channel is silent.
    pub fn full_scan(&self, trajectory: &Trajectory, channels: &[Complex]) -> Option<Point2> {
        let ranges = self.ranges(trajectory, channels);
        if ranges.is_empty() {
            return None;
        }
        let (nx, ny) = self.grid();
        let mut best = (Point2::ORIGIN, f64::MAX);
        for iy in 0..ny {
            for ix in 0..nx {
                let p = self.cell(ix, iy);
                let cost = range_cost(&ranges, p);
                if cost < best.1 {
                    best = (p, cost);
                }
            }
        }
        Some(best.0)
    }

    /// Each audible position with its free-space range estimate.
    fn ranges(&self, trajectory: &Trajectory, channels: &[Complex]) -> Vec<(Point2, f64)> {
        trajectory
            .points()
            .iter()
            .zip(channels)
            .filter_map(|(p, h)| self.distance_from_amplitude(*h).map(|d| (*p, d)))
            .collect()
    }

    /// The grid's size in cells, `(nx, ny)`.
    fn grid(&self) -> (usize, usize) {
        let nx = ((self.region_max.x - self.region_min.x) / self.resolution).ceil() as usize + 1;
        let ny = ((self.region_max.y - self.region_min.y) / self.resolution).ceil() as usize + 1;
        (nx, ny)
    }

    /// The position of cell `(ix, iy)`.
    fn cell(&self, ix: usize, iy: usize) -> Point2 {
        Point2::new(
            self.region_min.x + ix as f64 * self.resolution,
            self.region_min.y + iy as f64 * self.resolution,
        )
    }
}

/// Σ (|t − p| − d)² over the ranges, with `hypot` (`Point2::distance`)
/// as the distance: the cost both searches minimize.
fn range_cost(ranges: &[(Point2, f64)], p: Point2) -> f64 {
    ranges
        .iter()
        .map(|(t, d)| {
            let e = t.distance(p) - d;
            e * e
        })
        .sum()
}

/// `|t − p|` as `√(dx² + dy²)`, from the differences `Point2::distance`
/// takes `hypot` of: within 2 ulp of the exact distance, at a fraction
/// of `hypot`'s cost.
fn root_distance(t: Point2, p: Point2) -> f64 {
    let (dx, dy) = (t.x - p.x, t.y - p.y);
    (dx * dx + dy * dy).sqrt()
}

/// Side of the branch-and-bound tiles [`RssiLocalizer::localize`]
/// bounds, in cells.
const TILE: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    const F2: Hertz = Hertz(917e6);

    fn localizer() -> RssiLocalizer {
        RssiLocalizer {
            frequency: F2,
            region_min: Point2::new(-0.5, -0.5),
            region_max: Point2::new(4.0, 4.0),
            resolution: 0.05,
            reference_amplitude_1m: 1e-3,
        }
    }

    /// Forward model: ideal free-space round-trip amplitudes, random
    /// phase (RSSI ignores phase).
    fn channels_for(tag: Point2, traj: &Trajectory, loc: &RssiLocalizer) -> Vec<Complex> {
        traj.points()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d = p.distance(tag);
                let a = loc.reference_amplitude_1m / (d * d);
                Complex::from_polar(a, i as f64 * 2.399) // arbitrary phases
            })
            .collect()
    }

    #[test]
    fn distance_inversion_roundtrip() {
        let loc = localizer();
        for d in [0.5, 1.0, 2.0, 5.0] {
            let a = loc.reference_amplitude_1m / (d * d);
            let est = loc
                .distance_from_amplitude(Complex::from_polar(a, 0.3))
                .unwrap();
            assert!((est - d).abs() < 1e-9, "d = {d}, est = {est}");
        }
        assert!(loc.distance_from_amplitude(Complex::default()).is_none());
    }

    #[test]
    fn clean_amplitudes_localize_coarsely() {
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 26);
        let tag = Point2::new(1.2, 1.5);
        let ch = channels_for(tag, &traj, &loc);
        let est = loc.localize(&traj, &ch).expect("localizes");
        // Even with *perfect* amplitudes the fix is only as good as the
        // geometry; it should be within a couple of cells here.
        assert!(est.distance(tag) < 0.2, "err {}", est.distance(tag));
    }

    #[test]
    fn amplitude_noise_degrades_rssi_much_more_than_sar_scale() {
        // Inject ±3 dB amplitude ripple (mild fading): the RSSI fix
        // degrades to decimeters–meters, the scale of Fig. 13's RSSI
        // curve.
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 26);
        let tag = Point2::new(1.2, 1.5);
        let mut ch = channels_for(tag, &traj, &loc);
        // Slow fading: the first half of the pass reads 3 dB hot, the
        // second 3 dB cold (shadowing has meters-scale coherence, so it
        // does NOT average out across adjacent positions).
        let n = ch.len();
        for (i, h) in ch.iter_mut().enumerate() {
            let ripple = if i < n / 2 { 1.41 } else { 0.71 }; // ±3 dB
            *h *= ripple;
        }
        let est = loc.localize(&traj, &ch).expect("localizes");
        let err = est.distance(tag);
        assert!(err > 0.1, "RSSI should be visibly hurt (err {err})");
        assert!(err < 2.5, "but not absurd (err {err})");
    }

    #[test]
    fn all_silent_channels_fail() {
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 5);
        assert!(loc.localize(&traj, &[Complex::default(); 5]).is_none());
    }

    /// One measurement at (2, 3.25) ranging exactly 1.25 m on a 0.25 m
    /// grid: the twelve cells 1.25 m away (offsets (0, ±5), (±5, 0),
    /// (±3, ±4) and (±4, ±3) cells) all cost exactly 0. The full scan
    /// returns the first of them in row-major order, (2, 2); the tile
    /// holding cells x ≤ 1.75 m of the same tile row is visited first
    /// and finds (1.25, 2.25) before it.
    fn exact_tie() -> (RssiLocalizer, Trajectory, Vec<Complex>) {
        let loc = RssiLocalizer {
            frequency: F2,
            region_min: Point2::ORIGIN,
            region_max: Point2::new(4.0, 5.0),
            resolution: 0.25,
            reference_amplitude_1m: 1.5625,
        };
        let traj = Trajectory::from_points(vec![Point2::new(2.0, 3.25)]);
        (loc, traj, vec![Complex::from_re(1.0)])
    }

    #[test]
    fn an_exact_cost_tie_goes_to_the_first_cell_in_row_major_order() {
        let (loc, traj, ch) = exact_tie();
        assert_eq!(traj.points()[0].distance(Point2::new(1.25, 2.25)), 1.25);
        assert_eq!(loc.localize(&traj, &ch), Some(Point2::new(2.0, 2.0)));
    }

    #[test]
    fn planted_control_skipping_a_cell_whose_bound_ties_is_caught() {
        let (loc, traj, ch) = exact_tie();
        assert_eq!(
            loc.search(&traj, &ch, true),
            Some(Point2::new(1.25, 2.25)),
            "skipping on ≥ went undetected"
        );
    }

    #[test]
    fn non_finite_inputs_do_not_localize() {
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 11);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut ch = vec![Complex::from_re(1.0); 11];
            ch[4] = Complex::new(bad, 0.0);
            assert!(loc.localize(&traj, &ch).is_none(), "channel {bad}");
            let mut pts = traj.points().to_vec();
            pts[7] = Point2::new(0.5, bad);
            let ch = vec![Complex::from_re(1.0); 11];
            let off = Trajectory::from_points(pts);
            assert!(loc.localize(&off, &ch).is_none(), "point {bad}");
        }
    }
}

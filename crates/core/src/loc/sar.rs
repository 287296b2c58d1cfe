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
//! screen has two tiers. Tier 1 evaluates Eq. 12 in f32 over the whole
//! grid, with a certified error `ε` (see `table_cis32`), and prunes
//! every cell that provably stays below the candidate floor. Tier 2
//! bounds the surviving cells from above in f64, with phasors read from
//! a 256-entry table and rotated by a short Taylor polynomial, whose
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
    ///
    /// Returns `None` when every channel is silent, or when any channel
    /// or position is not finite.
    pub fn localize(
        &self,
        trajectory: &Trajectory,
        channels: &[Complex],
    ) -> Option<(Point2, Heatmap)> {
        if channels.is_empty()
            || channels.iter().all(|h| h.norm_sq() == 0.0)
            || !trajectory.is_finite()
            || channels.iter().any(|h| !h.is_finite())
        {
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
    /// Filter and refine with certified error bounds:
    ///
    /// 1. *Prune* ([`Self::bound32`], tier 1). Every cell gets the f32
    ///    value `|Ŝ₃₂|` of Eq. 12, within `ε = Σ|hₖ|·e₃₂` of the exact
    ///    `|S|` ([`table_cis32`] states `e₃₂`). Cells that provably stay
    ///    below the refine cut are set to 0 without an f64 bound.
    /// 2. *Screen* ([`Self::screen`], tier 2). Row by row, every
    ///    surviving cell gets an upper bound `ub ≥ √P` from a
    ///    branch-free, autovectorised evaluation of Eq. 12 through the
    ///    phasor table ([`table_cis`], error ≤ 2e-15 + 2e-16·φ per
    ///    phasor) plus a slack of [`SCREEN_SLACK`]·Σ|hₖ|, which covers
    ///    that error, the phase argument's rounding and the f64
    ///    accumulation by orders of magnitude. The values of both tiers
    ///    live in the heatmap's own storage.
    /// 3. *Anchor.* The cell with the largest bound is scored exactly
    ///    with [`Self::score_at`]: `L ≤ G`, the global maximum.
    /// 4. *Refine.* Every cell with `ub²·(1 + 1e-9) ≥ threshold·L` is
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
    /// Why tier 1 changes none of it. With `s` the slack, each tier-2
    /// bound sits within `s` of `|S| + s`, so `ub ≤ |Ŝ₃₂| + ε + 2s` for
    /// every cell. The cell holding `M = max |Ŝ₃₂|` has `|S| ≥ M − ε`,
    /// so the largest bound, and with it `√L`, is at least
    /// `M − ε − 2s`. A cell is pruned when
    /// `|Ŝ₃₂| + ε + 2s < √min(threshold, 1)·(M − ε − 2s)·(1 − 1e-9)`,
    /// where the 1e-9 is the rounding margin of this f64 arithmetic.
    /// Such a cell has `ub²·(1 + 1e-9) < threshold·L` and `ub < √L`:
    /// the refine would set it to 0, and it cannot be the anchor or tie
    /// with it. Tier 2 bounds each survivor with the same arithmetic and
    /// measurement order as a full screen, so every survivor's bound,
    /// the first row-major maximum (the anchor), `L` and the refined
    /// cells are bit-identical to a screen without tier 1.
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
        self.screened_heatmap_with_radius(trajectory, channels, threshold, 1.0)
    }

    /// [`Self::screened_heatmap`] with tier 1's pruning radius, the
    /// `|Ŝ₃₂|` below which a cell is pruned, scaled by `radius`: 1 in
    /// production, 0 to prune nothing (the f64 screen alone, the
    /// reference the differential tests compare against). Any other
    /// value is a planted fault.
    #[doc(hidden)]
    pub fn screened_heatmap_with_radius(
        &self,
        trajectory: &Trajectory,
        channels: &[Complex],
        threshold: f64,
        radius: f64,
    ) -> Heatmap {
        assert_eq!(
            trajectory.len(),
            channels.len(),
            "one channel per trajectory position"
        );
        let slack = SCREEN_SLACK * channels.iter().map(|h| h.abs()).sum::<f64>();
        let mut map = self.empty_map();
        let prune_below = match self.bound32(&mut map, trajectory, channels) {
            Some(e32) => {
                let top = map.iter().map(|(_, _, _, a)| a).fold(0.0, f64::max);
                let margin = e32 + 2.0 * SCREEN_SLACK;
                let floor = threshold.min(1.0).sqrt() * (top - margin) * (1.0 - 1e-9);
                radius * (floor - margin)
            }
            None => f64::NEG_INFINITY,
        };
        let (anchor, bounded) = self.screen(&mut map, trajectory, channels, slack, prune_below);
        rfly_obs::counter_add("loc.sar.cells_f64", bounded);
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

    /// Tier 1 of [`Self::screened_heatmap`]: writes `|Ŝ₃₂|/Σ|hₖ|` into
    /// every cell of `map` and returns `e₃₂`, so that `|Ŝ₃₂| + ε` with
    /// `ε = Σ|hₖ|·e₃₂` is at least the exact `|S|`. `Ŝ₃₂` is Eq. 12's
    /// sum in f32: coordinates relative to `region_min` in units of the
    /// table step, channels scaled by `1/Σ|hₖ|`, and every phasor from
    /// [`table_cis32`]. Returns `None`, leaving `map` at 0, when `Σ|hₖ|`
    /// is not positive and finite, a coordinate is not finite, or the
    /// extent leaves the kernel's domain; then every cell survives.
    #[expect(
        clippy::disallowed_types,
        reason = "an f32 prefilter certified by e₃₂; every kept value is f64"
    )]
    fn bound32(
        &self,
        map: &mut Heatmap,
        trajectory: &Trajectory,
        channels: &[Complex],
    ) -> Option<f64> {
        let sum: f64 = channels.iter().map(|h| h.abs()).sum();
        let steps = 2.0 * std::f64::consts::TAU * self.frequency.as_hz() / SPEED_OF_LIGHT / STEP;
        let origin = self.region_min;
        let (nx, ny) = (map.nx(), map.ny());
        let at = |p: Point2| ((p.x - origin.x) * steps, (p.y - origin.y) * steps);
        let pts = trajectory.points().iter().map(|&p| at(p));
        // Grid coordinates start at 0 and grow with the index.
        let corner = at(map.position(nx - 1, ny - 1));
        let extent = pts.clone().fold(corner.0.max(corner.1), |m, (x, y)| {
            m.max(x.abs()).max(y.abs())
        });
        let finite = pts.clone().all(|(x, y)| x.is_finite() && y.is_finite());
        if !(sum > 0.0 && sum.is_finite() && finite && extent < DOMAIN32) {
            return None;
        }

        // Column blocks on the stack: tier 1 allocates nothing.
        const BLOCK: usize = 128;
        let inv = 1.0 / sum;
        let meas = || {
            pts.clone().zip(channels).map(move |((x, y), h)| {
                [x as f32, y as f32, (h.re * inv) as f32, (h.im * inv) as f32]
            })
        };
        let table = cis_table().map(|(c, s)| (c as f32, s as f32));
        let (mut xs, mut re, mut im) = ([0.0f32; BLOCK], [0.0f32; BLOCK], [0.0f32; BLOCK]);
        for x0 in (0..nx).step_by(BLOCK) {
            let n = BLOCK.min(nx - x0);
            let (xs, re, im) = (&mut xs[..n], &mut re[..n], &mut im[..n]);
            for (j, x) in xs.iter_mut().enumerate() {
                *x = at(map.position(x0 + j, 0)).0 as f32;
            }
            for iy in 0..ny {
                let y = at(map.position(0, iy)).1 as f32;
                re.fill(0.0);
                im.fill(0.0);
                for [px, py, hr, hi] in meas() {
                    let dy = y - py;
                    let dy2 = dy * dy;
                    for ((x, r), i) in xs.iter().zip(&mut *re).zip(&mut *im) {
                        let dx = x - px;
                        let (c, s) = table_cis32(&table, (dx * dx + dy2).sqrt());
                        *r += hr * c - hi * s;
                        *i += hr * s + hi * c;
                    }
                }
                for (j, (&r, &i)) in re.iter().zip(im.iter()).enumerate() {
                    let (r, i) = (f64::from(r), f64::from(i));
                    map.set(x0 + j, iy, (r * r + i * i).sqrt());
                }
            }
        }
        Some(U32 * (13.0 * extent * STEP + 2.0 * channels.len() as f64 + 8.0))
    }

    /// Tier 2 of [`Self::screened_heatmap`]: every cell of `map` whose
    /// tier-1 value is not below `prune_below` gets the bound
    /// `|Ŝ| + slack`, where `Ŝ` is Eq. 12's sum with every phasor taken
    /// from [`table_cis`]; every other cell reads 0. Each row's
    /// survivors are compacted and computed exactly as a full row would
    /// compute them. Returns the first cell (row-major) holding the
    /// largest bound and the number of cells bounded. With `slack` =
    /// [`SCREEN_SLACK`]·Σ|hₖ| every bound is at least `√P`; with a
    /// smaller one it need not be.
    fn screen(
        &self,
        map: &mut Heatmap,
        trajectory: &Trajectory,
        channels: &[Complex],
        slack: f64,
        prune_below: f64,
    ) -> ((usize, usize), u64) {
        let (nx, ny) = (map.nx(), map.ny());
        let k2 = 2.0 * std::f64::consts::TAU * self.frequency.as_hz() / SPEED_OF_LIGHT;
        let table = cis_table();
        let mut cols = Vec::with_capacity(nx);
        let mut xs = Vec::with_capacity(nx);
        let mut re = vec![0.0; nx];
        let mut im = vec![0.0; nx];
        let mut anchor = (0, 0, f64::NEG_INFINITY);
        let mut bounded = 0u64;
        for iy in 0..ny {
            cols.clear();
            xs.clear();
            for ix in 0..nx {
                if map.get(ix, iy) < prune_below {
                    map.set(ix, iy, 0.0);
                } else {
                    cols.push(ix);
                    xs.push(map.position(ix, 0).x);
                }
            }
            bounded += cols.len() as u64;
            let y = map.position(0, iy).y;
            let (re, im) = (&mut re[..cols.len()], &mut im[..cols.len()]);
            re.fill(0.0);
            im.fill(0.0);
            for (pos, h) in trajectory.points().iter().zip(channels) {
                let dy = y - pos.y;
                let dy2 = dy * dy;
                for ((x, r), i) in xs.iter().zip(&mut *re).zip(&mut *im) {
                    let dx = x - pos.x;
                    let (c, s) = table_cis(&table, k2 * (dx * dx + dy2).sqrt());
                    *r += h.re * c - h.im * s;
                    *i += h.re * s + h.im * c;
                }
            }
            for (&ix, (r, i)) in cols.iter().zip(re.iter().zip(im.iter())) {
                let ub = (r * r + i * i).sqrt() + slack;
                map.set(ix, iy, ub);
                if ub > anchor.2 {
                    anchor = (ix, iy, ub);
                }
            }
        }
        ((anchor.0, anchor.1), bounded)
    }
}

/// The screen's slack, as a fraction of Σ|hₖ|: the bound on how far
/// its `|Ŝ|` may sit from the exact `|S|`, below it or above.
/// [`table_cis`] alone is good to 2e-15 + 2e-16·φ per phasor, so this
/// covers every φ below ~5e9 rad (a 130,000 km round trip at 916 MHz)
/// with room to spare.
const SCREEN_SLACK: f64 = 1e-6;

/// Entries in the phasor table of [`table_cis`]: `2πj/256`, j = 0‥255.
/// A power of two, so `n mod 256` is a mask of the rounded quotient.
const TABLE_LEN: usize = 256;

/// The table's angular step, `2π/256` rad.
const STEP: f64 = std::f64::consts::TAU / TABLE_LEN as f64;

/// The unit roundoff of f32, `u = 2⁻²⁴`: the relative error of one
/// rounding to nearest.
const U32: f64 = 1.0 / 16_777_216.0;

/// Tier 1 runs only while every coordinate, in table steps relative to
/// `region_min`, stays below 2²⁰. Every phase `q` of [`table_cis32`] is
/// then below `2√2·2²⁰ < 2²²`, its domain. At 916 MHz 2²⁰ steps are
/// ~670 m.
const DOMAIN32: f64 = 1_048_576.0;

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
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let t = phi * (1.0 / STEP) + ROUND;
    let (tc, ts) = table[t.to_bits() as usize & (TABLE_LEN - 1)];
    let r = phi - (t - ROUND) * STEP;
    let r2 = r * r;
    let s = r * (1.0 + r2 * (-1.0 / 6.0 + r2 * (1.0 / 120.0)));
    let c = 1.0 + r2 * (-1.0 / 2.0 + r2 * (1.0 / 24.0 + r2 * (-1.0 / 720.0)));
    (tc * c - ts * s, ts * c + tc * s)
}

/// `(cos φ, sin φ)` in f32 for `φ = q·(2π/256)`, where `q` is the
/// phase in table steps: tier 1's kernel, shaped like [`table_cis`].
///
/// `n` is `q` rounded to nearest by the 1.5·2²³ magic number, and
/// `table[n mod 256]` holds [`cis_table`]'s entry rounded to f32. The
/// difference `q − n` is exact in f32 (`n` is within ½ of `q`), so the
/// reduction adds no error that grows with `q`. The residual
/// `r = (q − n)·2π/256`, `|r| ≤ π/256`, goes through `r − r³/6` and
/// `1 − r²/2`, whose truncation errors (`r⁵/120`, `r⁴/24`) stay
/// below 1e-9.
///
/// Absolute error per component, against the true `(cos φ, sin φ)`
/// for the `q` given, in units of `u = 2⁻²⁴`:
/// - table entry (libm, then one f32 rounding): ≤ ½u;
/// - the residual, the polynomials and their truncation: < u;
/// - the rotation, two products and a sum per component: ≤ 1½u.
///
/// In all ≤ 3u, for every `0 ≤ q < 2²²` (the magic number's domain).
///
/// **Tier 1's error, `e₃₂`.** With `Q` the extent (the largest
/// coordinate relative to `region_min`, in table steps), `Φ = Q·2π/256`
/// its phase and `K` the number of measurements, every cell's
/// `|Ŝ₃₂|` is within `Σ|hₖ|·e₃₂` of the exact `|S|`, where
///
/// ```text
/// e₃₂ = u·(13·Φ + 2·K + 8)
/// ```
///
/// - Each coordinate rounds to f32 within `u·Q`, so each difference
///   `dx`, `dy` is within `4u·Q`. The distance `q` moves by at most
///   `√32·u·Q` through them and by `2u·2√2·Q` through its own squares,
///   sum and square root: `|q̂ − q| ≤ 12u·Q`, a phase error
///   `≤ 12u·Φ`, which moves a phasor by at most its own size.
/// - The kernel adds `≤ 3u` per component, `≤ √2·3u` in modulus.
/// - Per unit of `|hₖ|`: the channel's f32 rounding adds `½u`, the
///   complex product `√2·2u`, and the `K`-term sum `√2·(K − 1)·u`.
///
/// That sums to `u·(12·Φ + 1.42·K + 6.3)`. The stated `e₃₂` rounds
/// each term up, which also absorbs the second-order terms (the phase
/// error stays below 0.02 rad over the whole domain), the f64 scaling
/// of the coordinates and of the channels by `1/Σ|hₖ|`, and the f32
/// underflow of channels below 2⁻¹²⁶ of the sum (≤ 2⁻¹⁴⁹ per
/// operation). At 916 MHz a 5 m extent gives `e₃₂` ≈ 1.5e-4, a
/// 40 × 30 m scene ≈ 1.2e-3.
#[expect(
    clippy::disallowed_types,
    reason = "tier 1's kernel: an f32 prefilter certified by e₃₂"
)]
#[inline(always)]
fn table_cis32(table: &[(f32, f32); TABLE_LEN], q: f32) -> (f32, f32) {
    const ROUND: f32 = 12_582_912.0;
    let t = q + ROUND;
    let (tc, ts) = table[t.to_bits() as usize & (TABLE_LEN - 1)];
    let r = (q - (t - ROUND)) * STEP as f32;
    let r2 = r * r;
    let s = r - r * r2 * (1.0 / 6.0);
    let c = 1.0 - r2 * 0.5;
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

    #[test]
    fn non_finite_inputs_do_not_localize() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 11);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut ch = vec![Complex::from_re(1.0); 11];
            ch[4] = Complex::new(1.0, bad);
            assert!(localizer().localize(&traj, &ch).is_none(), "channel {bad}");
            let mut pts = traj.points().to_vec();
            pts[7] = Point2::new(bad, 0.0);
            let ch = vec![Complex::from_re(1.0); 11];
            let off = Trajectory::from_points(pts);
            assert!(localizer().localize(&off, &ch).is_none(), "point {bad}");
        }
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

    /// The f32 kernel's stated per-component error bound, the same at
    /// every `q` in its domain.
    const KERNEL32_BOUND: f64 = 3.0 * U32;

    #[test]
    #[expect(clippy::disallowed_types, reason = "drives the f32 kernel")]
    fn table_cis32_meets_its_bound_over_every_reachable_phase() {
        // Phases in table steps up to the 2²² domain edge; the
        // scene-wide search reaches q ≈ 78,000, the localize grids
        // q ≈ 11,000.
        let table = cis_table().map(|(c, s)| (c as f32, s as f32));
        let mut worst = 0.0f64;
        let mut check = |q: f32| {
            let (c, s) = table_cis32(&table, q);
            let exact = Complex::cis(f64::from(q) * STEP);
            let err = (f64::from(c) - exact.re)
                .abs()
                .max((f64::from(s) - exact.im).abs());
            assert!(err <= KERNEL32_BOUND, "error {err:e} at q = {q}");
            worst = worst.max(err);
        };
        // A fine sweep of the first turn, then a dense one to the edge.
        for i in 0..=65_536u32 {
            check(i as f32 / 256.0);
        }
        for i in 0..=2_000_000u32 {
            check((f64::from(i) * 2.097_15 + 1e-3 * f64::from(i % 11)) as f32);
        }
        // The seams: every table entry and every rounding boundary,
        // ± 1 ulp, over turns near 0 and at the top of the domain.
        for turn in [0u32, 1, 2, 300, 16_382, 16_383] {
            for j in 0..=TABLE_LEN as u32 {
                for half in [0.0, 0.5] {
                    let q = (f64::from(turn * 256 + j) + half) as f32;
                    for p in [q.next_down(), q, q.next_up()] {
                        if (0.0..4_194_304.0).contains(&p) {
                            check(p);
                        }
                    }
                }
            }
        }
        assert!(
            worst > 0.5 * U32,
            "the sweep never reached the bound's scale"
        );
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
                let mut ub = loc.empty_map();
                loc.screen(&mut ub, traj, ch, slack * sum, f64::NEG_INFINITY);
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

    /// Cells where tier 1's `|Ŝ₃₂| + scale·ε` sits below the exact
    /// `√P`, over [`bound_cases`] on the unit-test grid, a scene-scale
    /// 40 × 30 m grid at 0.5 m and the same cases offset 1.5 km from the
    /// origin.
    fn tier1_violations(scale: f64) -> usize {
        let near = SarLocalizer::new(F2, Point2::new(-0.5, -0.5), Point2::new(3.0, 3.0), 0.04);
        let scene = SarLocalizer::new(F2, Point2::new(-2.0, -1.0), Point2::new(38.0, 29.0), 0.5);
        let far = Point2::new(1_200.0, -900.0);
        let offset = SarLocalizer::new(
            F2,
            Point2::new(far.x - 0.5, far.y - 0.5),
            Point2::new(far.x + 3.0, far.y + 3.0),
            0.04,
        );
        let moved = |traj: &Trajectory| {
            let pts = traj.points().iter();
            Trajectory::from_points(pts.map(|p| Point2::new(p.x + far.x, p.y + far.y)).collect())
        };
        let mut runs = Vec::new();
        for (traj, ch) in bound_cases() {
            let stretched = Trajectory::from_points(
                traj.points()
                    .iter()
                    .map(|p| Point2::new(p.x * 12.0, p.y * 8.0))
                    .collect(),
            );
            runs.push((near.clone(), traj.clone(), ch.clone()));
            runs.push((scene.clone(), stretched, ch.clone()));
            runs.push((offset.clone(), moved(&traj), ch));
        }
        runs.iter()
            .map(|(loc, traj, ch)| {
                let sum: f64 = ch.iter().map(|h| h.abs()).sum();
                let mut map = loc.empty_map();
                let e32 = loc.bound32(&mut map, traj, ch).expect("inside the domain");
                map.iter()
                    .filter(|&(_, _, p, a)| {
                        (a + scale * e32) * sum < loc.score_at(p, traj, ch).sqrt()
                    })
                    .count()
            })
            .sum()
    }

    #[test]
    fn tier1_is_within_its_certified_error_of_every_cell() {
        assert_eq!(tier1_violations(1.0), 0);
    }

    #[test]
    fn planted_control_tier1_without_its_error_is_caught() {
        assert!(tier1_violations(0.0) >= 1, "ε = 0 went undetected");
    }

    #[test]
    fn tier1_steps_aside_outside_its_domain() {
        // A trajectory ~10 km away puts the coordinates past 2²⁰ table
        // steps: tier 1 certifies nothing, and every cell is bounded.
        let (traj, ch) = &bound_cases()[0];
        let far = Trajectory::from_points(
            traj.points()
                .iter()
                .map(|p| Point2::new(p.x + 1e4, p.y))
                .collect(),
        );
        let loc = localizer();
        assert!(loc.bound32(&mut loc.empty_map(), &far, ch).is_none());
        rfly_obs::install(rfly_obs::Recorder::new("domain"));
        let _ = loc.screened_heatmap(&far, ch, peaks::CANDIDATE_THRESHOLD);
        let counters = rfly_obs::take().expect("recorder installed").counters;
        let map = loc.empty_map();
        assert_eq!(counters["loc.sar.cells_f64"], (map.nx() * map.ny()) as u64);
    }

    #[test]
    #[should_panic(expected = "one channel per trajectory position")]
    fn mismatched_lengths_rejected() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 5);
        let _ = localizer().score_at(Point2::ORIGIN, &traj, &[Complex::default()]);
    }
}

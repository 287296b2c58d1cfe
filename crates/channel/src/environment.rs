//! Scene model: walls, shelves, and image-method ray tracing.
//!
//! The paper's evaluation ran in a 30 × 40 m building with steel shelves
//! (Fig. 6(b)'s "strong multipath") and through-wall NLoS settings
//! (Fig. 11). This module turns a set of 2D obstacles into a
//! [`PathSet`]: a direct path attenuated by every wall it crosses, plus
//! one first-order specular reflection per reflector computed by the
//! image method.

use rfly_dsp::units::{Db, Hertz, Meters};

use crate::geometry::{Point2, Segment};
use crate::pathloss::free_space_amplitude;
use crate::phasor::{Path, PathSet};

/// Electromagnetic properties of an obstacle surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Loss on specular reflection, dB (power).
    pub reflection_loss: Db,
    /// Loss on transmission through the obstacle, dB (power).
    pub transmission_loss: Db,
}

impl Material {
    /// Steel shelving. Racks are porous (frames + gaps between stock),
    /// so transmission loses ~10 dB rather than blocking outright; and
    /// although steel itself reflects nearly perfectly, a stocked rack
    /// is rough at UHF wavelengths, so the *specular* component loses
    /// ~5 dB (the rest scatters diffusely).
    pub const STEEL_SHELF: Material = Material {
        reflection_loss: Db(5.0),
        transmission_loss: Db(10.0),
    };
    /// Reinforced-concrete wall: lossy reflector, strong attenuator.
    pub const CONCRETE_WALL: Material = Material {
        reflection_loss: Db(8.0),
        transmission_loss: Db(15.0),
    };
    /// Interior drywall: weak reflector, mild attenuator.
    pub const DRYWALL: Material = Material {
        reflection_loss: Db(12.0),
        transmission_loss: Db(4.0),
    };
    /// Stacked cardboard/clothing inventory: barely reflects, absorbs a
    /// few dB — the "RFID buried under a stack of clothes" case.
    pub const SOFT_INVENTORY: Material = Material {
        reflection_loss: Db(20.0),
        transmission_loss: Db(6.0),
    };
}

/// A physical obstacle: a 2D segment with a material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// The obstacle's footprint segment.
    pub segment: Segment,
    /// Its surface/bulk material.
    pub material: Material,
}

impl Obstacle {
    /// Creates an obstacle.
    pub const fn new(segment: Segment, material: Material) -> Self {
        Self { segment, material }
    }
}

/// How far (m) a leg must clear an axis-aligned wall's line or extent
/// before [`AxisWall::misses`] skips its exact intersection test.
const MARGIN: f64 = 1e-9;

/// An obstacle's trace constants, computed once in [`Environment::add`].
#[derive(Debug, Clone, Copy)]
struct Prepared {
    /// `(-transmission_loss).amplitude()`.
    through: f64,
    /// `(-reflection_loss).amplitude()`.
    bounce: f64,
    /// The footprint as an axis-aligned wall, if it is one.
    wall: Option<AxisWall>,
}

impl Prepared {
    fn new(o: &Obstacle) -> Self {
        Self {
            through: (-o.material.transmission_loss).amplitude(),
            bounce: (-o.material.reflection_loss).amplitude(),
            wall: AxisWall::of(o.segment, MARGIN),
        }
    }
}

/// Whether the leg `a → b` crosses `o`: the exact
/// [`Segment::intersection`] test, skipped when `p`'s wall proves a
/// miss.
fn crosses(o: &Obstacle, p: &Prepared, a: Point2, b: Point2) -> bool {
    !p.wall.is_some_and(|w| w.misses(a, b)) && o.segment.intersection(Segment::new(a, b)).is_some()
}

/// An axis-aligned footprint (`a.y == b.y` or `a.x == b.x`) as its line
/// and its extent along that line, each widened by a margin: an exact
/// pre-filter for the leg tests of [`Environment::trace`] and
/// [`Environment::transmission_loss`].
///
/// [`Self::misses`] skips a leg only when both endpoints lie strictly
/// beyond the wall line by the margin, on the same side, or when the
/// leg's extent along the wall misses the wall's extent by the margin.
/// `Segment::intersection` then returns `None` too, so skipping changes
/// nothing. Take a wall along x (the other axis is symmetric): its
/// direction `r` has `r.y == 0` exactly, so the intersection's
/// `denom = r.x·s.y − r.y·s.x` is exactly `fl(r.x·s.y)` and the leg
/// parameter is `u = −fl(d.y·r.x)/denom`, a ratio of single products
/// (`s` is the leg's direction, `d` its start less the wall's). When
/// both endpoints clear the line on one side, the exact `u` lies outside
/// [0, 1] by at least margin/|s.y|, and the computed one is within a
/// relative ~1e-15 of it. When the leg's extent misses the wall's, any
/// `u` the test accepts puts the crossing point beyond the wall's end by
/// about the margin, so the wall parameter `t` lies outside [0, 1] by
/// about margin/|r.x|, while the rounding of `t` is ~1e-15 times the
/// building-scale lengths involved. A 1e-9 m margin dwarfs both
/// roundings for any coordinates under ~10⁵ m. A non-finite footprint
/// is not prepared, and a leg with a NaN coordinate fails every
/// comparison, so both keep the exact test.
#[derive(Debug, Clone, Copy)]
struct AxisWall {
    /// True for a wall along y (`a.x == b.x`), false for one along x.
    along_y: bool,
    /// The wall line plus the margin.
    above: f64,
    /// The wall line minus the margin.
    below: f64,
    /// The wall's low end along its line, less the margin.
    before: f64,
    /// The wall's high end along its line, plus the margin.
    after: f64,
}

impl AxisWall {
    /// `s` as an axis-aligned wall widened by `margin`, or `None` for an
    /// oblique or non-finite segment.
    fn of(s: Segment, margin: f64) -> Option<Self> {
        if ![s.a.x, s.a.y, s.b.x, s.b.y].iter().all(|v| v.is_finite()) {
            return None;
        }
        let (along_y, line, (p, q)) = if s.a.y == s.b.y {
            (false, s.a.y, (s.a.x, s.b.x))
        } else if s.a.x == s.b.x {
            (true, s.a.x, (s.a.y, s.b.y))
        } else {
            return None;
        };
        Some(Self {
            along_y,
            above: line + margin,
            below: line - margin,
            before: p.min(q) - margin,
            after: p.max(q) + margin,
        })
    }

    /// `p` as (across the wall, along the wall).
    fn coords(&self, p: Point2) -> (f64, f64) {
        if self.along_y {
            (p.x, p.y)
        } else {
            (p.y, p.x)
        }
    }

    /// True only if the leg `a → b` provably misses the wall.
    fn misses(&self, a: Point2, b: Point2) -> bool {
        let ((ac, aa), (bc, ba)) = (self.coords(a), self.coords(b));
        (ac > self.above && bc > self.above)
            || (ac < self.below && bc < self.below)
            || (aa < self.before && ba < self.before)
            || (aa > self.after && ba > self.after)
    }
}

/// A 2D scene of obstacles with ray-tracing queries.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    obstacles: Vec<Obstacle>,
    /// Each obstacle's trace constants, parallel to `obstacles`.
    prepared: Vec<Prepared>,
}

impl Environment {
    /// An empty (free-space) environment.
    pub fn free_space() -> Self {
        Self::default()
    }

    /// Adds an obstacle.
    pub fn add(&mut self, obstacle: Obstacle) {
        self.prepared.push(Prepared::new(&obstacle));
        self.obstacles.push(obstacle);
    }

    /// The obstacles in the scene.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Total transmission loss (dB) accumulated by a straight ray from
    /// `a` to `b`, and the number of obstacles crossed.
    pub fn transmission_loss(&self, a: Point2, b: Point2) -> (Db, usize) {
        let mut loss = Db::new(0.0);
        let mut crossings = 0;
        for (o, p) in self.obstacles.iter().zip(&self.prepared) {
            if crosses(o, p, a, b) {
                loss = loss + o.material.transmission_loss;
                crossings += 1;
            }
        }
        (loss, crossings)
    }

    /// Whether `a` and `b` are in line of sight (no obstacle crossed).
    pub fn line_of_sight(&self, a: Point2, b: Point2) -> bool {
        self.transmission_loss(a, b).1 == 0
    }

    /// Traces the channel from `tx` to `rx` at frequency `freq`: the
    /// (possibly attenuated) direct path plus one first-order specular
    /// reflection per obstacle whose mirror geometry is valid.
    ///
    /// Each reflected leg also pays the transmission loss of any *other*
    /// obstacle it crosses, so reflections behind walls are correctly
    /// weak.
    pub fn trace(&self, tx: Point2, rx: Point2, freq: Hertz) -> PathSet {
        let mut paths = PathSet::blocked();

        // Direct path.
        let d = tx.distance(rx);
        if d > 0.0 {
            let (loss, _) = self.transmission_loss(tx, rx);
            let amp = free_space_amplitude(Meters::new(d), freq) * (-loss).amplitude();
            paths.push(Path::new(Meters::new(d), amp));
        }

        // First-order reflections via the image method.
        let walls = || self.obstacles.iter().zip(&self.prepared).enumerate();
        for (idx, (o, p)) in walls() {
            if let Some((point, total_len)) = reflection_point(o.segment, tx, rx) {
                let mut amp = free_space_amplitude(Meters::new(total_len), freq) * p.bounce;
                // Transmission losses through *other* obstacles on both
                // legs.
                for (jdx, (other, op)) in walls() {
                    if jdx == idx {
                        continue;
                    }
                    for (from, to) in [(tx, point), (point, rx)] {
                        if crosses(other, op, from, to) {
                            amp *= op.through;
                        }
                    }
                }
                paths.push(Path::new(Meters::new(total_len), amp));
            }
        }

        paths
    }
}

/// Computes the specular reflection point of the ray `tx → reflector →
/// rx`, if it exists on the reflector segment and on the same side
/// (tx and rx must be on the same side of the reflector line for a
/// specular bounce). Returns `(reflection_point, total_path_length)`.
fn reflection_point(reflector: Segment, tx: Point2, rx: Point2) -> Option<(Point2, f64)> {
    // Both endpoints must be strictly on the same side of the line.
    let dir = reflector.b - reflector.a;
    let side_tx = dir.cross(tx - reflector.a);
    let side_rx = dir.cross(rx - reflector.a);
    if side_tx * side_rx <= 1e-15 {
        return None;
    }
    // Image method: reflect tx; the bounce point is where image→rx
    // crosses the reflector segment.
    let image = reflector.mirror(tx);
    let ray = Segment::new(image, rx);
    let point = reflector.intersection(ray)?;
    let total = tx.distance(point) + point.distance(rx);
    Some((point, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::rng::{Rng, StdRng};

    const F: Hertz = Hertz(915e6);

    fn wall_y0() -> Obstacle {
        Obstacle::new(
            Segment::new(Point2::new(-10.0, 0.0), Point2::new(10.0, 0.0)),
            Material::STEEL_SHELF,
        )
    }

    #[test]
    fn free_space_gives_single_direct_path() {
        let env = Environment::free_space();
        let ps = env.trace(Point2::new(0.0, 0.0), Point2::new(5.0, 0.0), F);
        assert_eq!(ps.len(), 1);
        assert!((ps.direct().unwrap().length.value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reflector_adds_image_path() {
        let mut env = Environment::free_space();
        env.add(wall_y0());
        // tx and rx both at y = 3: bounce off y = 0 → total length via
        // image = distance((0,-3),(4,3)) = sqrt(16+36).
        let tx = Point2::new(0.0, 3.0);
        let rx = Point2::new(4.0, 3.0);
        let ps = env.trace(tx, rx, F);
        assert_eq!(ps.len(), 2);
        let refl = ps
            .paths()
            .iter()
            .find(|p| p.length.value() > 4.1)
            .expect("reflected path present");
        assert!((refl.length.value() - (16.0f64 + 36.0).sqrt()).abs() < 1e-9);
        // Reflection is longer than direct — the §5.2 invariant.
        assert!(refl.length.value() > ps.direct().unwrap().length.value());
    }

    #[test]
    fn opposite_sides_do_not_reflect() {
        let mut env = Environment::free_space();
        env.add(wall_y0());
        let ps = env.trace(Point2::new(0.0, 3.0), Point2::new(0.0, -3.0), F);
        // Only the (attenuated) direct path; no specular bounce exists.
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn wall_attenuates_direct_path() {
        let mut env = Environment::free_space();
        env.add(Obstacle::new(
            Segment::new(Point2::new(2.0, -5.0), Point2::new(2.0, 5.0)),
            Material::CONCRETE_WALL,
        ));
        let tx = Point2::new(0.0, 0.0);
        let rx = Point2::new(4.0, 0.0);
        let blocked = env.trace(tx, rx, F);
        let clear = Environment::free_space().trace(tx, rx, F);
        let ratio = Db::from_linear(blocked.power(F) / clear.power(F));
        assert!(
            (ratio.value() + 15.0).abs() < 0.5,
            "wall cost {ratio} (expected −15 dB)"
        );
        assert!(!env.line_of_sight(tx, rx));
        assert!(env.line_of_sight(tx, Point2::new(1.0, 0.0)));
    }

    #[test]
    fn two_walls_stack_losses() {
        let mut env = Environment::free_space();
        for x in [2.0, 3.0] {
            env.add(Obstacle::new(
                Segment::new(Point2::new(x, -5.0), Point2::new(x, 5.0)),
                Material::DRYWALL,
            ));
        }
        let (loss, n) = env.transmission_loss(Point2::new(0.0, 0.0), Point2::new(4.0, 0.0));
        assert_eq!(n, 2);
        assert!((loss.value() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn reflection_behind_wall_pays_transmission() {
        let mut env = Environment::free_space();
        // Reflector above, wall between tx/rx and the reflector's bounce
        // region.
        env.add(Obstacle::new(
            Segment::new(Point2::new(-10.0, 5.0), Point2::new(10.0, 5.0)),
            Material::STEEL_SHELF,
        ));
        env.add(Obstacle::new(
            Segment::new(Point2::new(-10.0, 3.0), Point2::new(10.0, 3.0)),
            Material::CONCRETE_WALL,
        ));
        let tx = Point2::new(-2.0, 0.0);
        let rx = Point2::new(2.0, 0.0);
        let ps = env.trace(tx, rx, F);
        // Direct path is clear (y=0 doesn't cross y=3 or y=5 walls).
        // The bounce path crosses the concrete wall twice (up and down).
        let bounce = ps
            .paths()
            .iter()
            .find(|p| p.length.value() > 5.0)
            .expect("bounce path exists");
        let free_bounce = free_space_amplitude(bounce.length, F)
            * (-Material::STEEL_SHELF.reflection_loss).amplitude();
        let expected = free_bounce
            * (-Material::CONCRETE_WALL.transmission_loss)
                .amplitude()
                .powi(2);
        assert!(
            (bounce.amplitude - expected).abs() / expected < 1e-9,
            "bounce amplitude {} vs expected {}",
            bounce.amplitude,
            expected
        );
    }

    #[test]
    fn multiple_reflectors_make_multiple_ghosts() {
        let mut env = Environment::free_space();
        for y in [4.0, 6.0, 8.0] {
            env.add(Obstacle::new(
                Segment::new(Point2::new(-20.0, y), Point2::new(20.0, y)),
                Material::STEEL_SHELF,
            ));
        }
        let ps = env.trace(Point2::new(0.0, 0.0), Point2::new(3.0, 1.0), F);
        // direct + 3 bounces (all reflectors on the same side and long
        // enough to host the bounce point).
        assert_eq!(ps.len(), 4);
        // Every reflection is strictly longer than the direct path.
        let d = ps.direct().unwrap().length.value();
        assert!(ps.paths().iter().filter(|p| p.length.value() > d).count() == 3);
    }

    #[test]
    fn coincident_points_trace_empty() {
        let env = Environment::free_space();
        let ps = env.trace(Point2::new(1.0, 1.0), Point2::new(1.0, 1.0), F);
        assert!(ps.is_empty());
    }

    /// The trace as it ran before the pre-filter: every leg takes the
    /// exact intersection test, and every loss is converted on use.
    fn unfiltered_trace(env: &Environment, tx: Point2, rx: Point2, freq: Hertz) -> PathSet {
        let obstacles = env.obstacles();
        let loss_through = |a: Point2, b: Point2| {
            let ray = Segment::new(a, b);
            let mut loss = Db::new(0.0);
            for o in obstacles {
                if o.segment.intersection(ray).is_some() {
                    loss = loss + o.material.transmission_loss;
                }
            }
            loss
        };
        let mut paths = PathSet::blocked();
        let d = tx.distance(rx);
        if d > 0.0 {
            let amp =
                free_space_amplitude(Meters::new(d), freq) * (-loss_through(tx, rx)).amplitude();
            paths.push(Path::new(Meters::new(d), amp));
        }
        for (idx, o) in obstacles.iter().enumerate() {
            if let Some((point, total_len)) = reflection_point(o.segment, tx, rx) {
                let mut amp = free_space_amplitude(Meters::new(total_len), freq)
                    * (-o.material.reflection_loss).amplitude();
                for (jdx, other) in obstacles.iter().enumerate() {
                    if jdx == idx {
                        continue;
                    }
                    for leg in [Segment::new(tx, point), Segment::new(point, rx)] {
                        if other.segment.intersection(leg).is_some() {
                            amp *= (-other.material.transmission_loss).amplitude();
                        }
                    }
                }
                paths.push(Path::new(Meters::new(total_len), amp));
            }
        }
        paths
    }

    /// A seeded building-scale coordinate in [-60, 60) m.
    fn coord(rng: &mut StdRng) -> f64 {
        rng.gen_range(-60.0..60.0)
    }

    /// A seeded axis-aligned wall, in either direction and orientation.
    fn axis_wall(rng: &mut StdRng) -> Segment {
        let (line, p, q) = (coord(rng), coord(rng), coord(rng));
        if rng.gen() {
            Segment::new(Point2::new(p, line), Point2::new(q, line))
        } else {
            Segment::new(Point2::new(line, p), Point2::new(line, q))
        }
    }

    /// Points on and next to `wall`'s line and ends: each end and a
    /// random interior point, moved 0, 1 ulp, 1e-12 m or 1e-9 m off the
    /// line and along it, both ways.
    fn adversarial_points(wall: Segment, rng: &mut StdRng) -> Vec<Point2> {
        let along_y = wall.a.x == wall.b.x;
        let t = rng.gen_range(0.0..1.0);
        let mid = wall.a + (wall.b - wall.a) * t;
        let nudges = |v: f64| {
            [
                v,
                v.next_up(),
                v.next_down(),
                v + 1e-12,
                v - 1e-12,
                v + 1e-9,
                v - 1e-9,
            ]
        };
        let mut points = Vec::new();
        for p in [wall.a, wall.b, mid] {
            let (across, along) = if along_y { (p.x, p.y) } else { (p.y, p.x) };
            for c in nudges(across) {
                for a in nudges(along) {
                    points.push(if along_y {
                        Point2::new(c, a)
                    } else {
                        Point2::new(a, c)
                    });
                }
            }
        }
        points
    }

    /// Every leg the pre-filter property checks against `wall`: random
    /// legs, legs between adversarial points (on, 1 ulp from and 1e-12 m
    /// from the line; corners; collinear and parallel pairs), legs from
    /// an adversarial point to a random one, and zero-length legs.
    fn legs_near(wall: Segment, rng: &mut StdRng) -> Vec<(Point2, Point2)> {
        let mut random = || Point2::new(coord(rng), coord(rng));
        let mut legs: Vec<(Point2, Point2)> = (0..64).map(|_| (random(), random())).collect();
        let points = adversarial_points(wall, rng);
        for (k, &p) in points.iter().enumerate() {
            let q = points[(k * 7 + 3) % points.len()];
            let far = Point2::new(coord(rng), coord(rng));
            legs.extend([(p, q), (q, p), (p, far), (far, p), (p, p)]);
        }
        legs
    }

    /// Runs the pre-filter at `margin` over seeded walls and legs.
    /// Returns (legs the filter skipped, skipped legs the exact test
    /// says cross).
    fn prefilter_run(margin: f64) -> (usize, usize) {
        let (mut skipped, mut wrong) = (0, 0);
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let wall = axis_wall(&mut rng);
            let axis = AxisWall::of(wall, margin).expect("axis-aligned");
            for (a, b) in legs_near(wall, &mut rng) {
                if axis.misses(a, b) {
                    skipped += 1;
                    wrong += usize::from(wall.intersection(Segment::new(a, b)).is_some());
                }
            }
        }
        (skipped, wrong)
    }

    /// The pre-filter skips only legs the exact test misses, on random
    /// and adversarial legs, and it skips most random ones.
    #[test]
    fn prefilter_skips_only_exact_misses() {
        let (skipped, wrong) = prefilter_run(MARGIN);
        assert_eq!(wrong, 0, "the pre-filter skipped {wrong} crossing legs");
        assert!(skipped > 1000, "only {skipped} legs skipped: vacuous");
    }

    /// Planted control: with no margin the filter skips legs that the
    /// exact test, rounding, says cross a wall end or line.
    #[test]
    fn planted_zero_margin_prefilter_disagrees() {
        let (_, wrong) = prefilter_run(0.0);
        assert!(wrong > 0, "a zero margin should skip some crossing leg");
    }

    /// Oblique and non-finite footprints are never pre-filtered.
    #[test]
    fn oblique_and_non_finite_walls_keep_the_exact_test() {
        let p = Point2::new(1.0, 2.0);
        assert!(AxisWall::of(Segment::new(p, Point2::new(3.0, 2.5)), MARGIN).is_none());
        let inf = Point2::new(f64::INFINITY, 2.0);
        assert!(AxisWall::of(Segment::new(p, inf), MARGIN).is_none());
        // A NaN leg endpoint fails every comparison: not skipped.
        let wall = AxisWall::of(Segment::new(p, Point2::new(5.0, 2.0)), MARGIN).unwrap();
        let nan = Point2::new(f64::NAN, f64::NAN);
        assert!(!wall.misses(nan, Point2::new(9.0, 9.0)));
    }

    /// `trace` and `transmission_loss` are bit-identical to the
    /// unfiltered algorithm over seeded scenes of axis-aligned and
    /// oblique obstacles, including legs that end on a wall.
    #[test]
    fn filtered_trace_is_bit_identical_to_unfiltered() {
        const MATERIALS: [Material; 4] = [
            Material::STEEL_SHELF,
            Material::CONCRETE_WALL,
            Material::DRYWALL,
            Material::SOFT_INVENTORY,
        ];
        let bits = |ps: &PathSet| -> Vec<(u64, u64)> {
            ps.paths()
                .iter()
                .map(|p| (p.length.value().to_bits(), p.amplitude.to_bits()))
                .collect()
        };
        let mut traced = 0;
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut env = Environment::free_space();
            for _ in 0..rng.gen_range(1..12usize) {
                let segment = if rng.gen_bool(0.8) {
                    axis_wall(&mut rng)
                } else {
                    let mut random = || Point2::new(coord(&mut rng), coord(&mut rng));
                    Segment::new(random(), random())
                };
                env.add(Obstacle::new(segment, MATERIALS[rng.gen_range(0..4usize)]));
            }
            let wall = env.obstacles()[0].segment;
            let mut ends: Vec<Point2> = adversarial_points(wall, &mut rng);
            ends.extend((0..40).map(|_| Point2::new(coord(&mut rng), coord(&mut rng))));
            for k in 0..ends.len() {
                let (tx, rx) = (ends[k], ends[(k * 11 + 5) % ends.len()]);
                let got = env.trace(tx, rx, F);
                assert_eq!(bits(&got), bits(&unfiltered_trace(&env, tx, rx, F)));
                let (loss, n) = env.transmission_loss(tx, rx);
                let want: Vec<&Obstacle> = env
                    .obstacles()
                    .iter()
                    .filter(|o| o.segment.intersection(Segment::new(tx, rx)).is_some())
                    .collect();
                assert_eq!(n, want.len());
                let summed = want
                    .iter()
                    .fold(Db::new(0.0), |l, o| l + o.material.transmission_loss);
                assert_eq!(loss.value().to_bits(), summed.value().to_bits());
                traced += got.len();
            }
        }
        assert!(traced > 1000, "only {traced} paths traced: vacuous");
    }

    #[test]
    fn two_walls_give_two_first_order_bounces() {
        let mut env = Environment::free_space();
        env.add(wall_y0());
        env.add(Obstacle::new(
            Segment::new(Point2::new(-10.0, 5.0), Point2::new(10.0, 5.0)),
            Material::STEEL_SHELF,
        ));
        let ps = env.trace(Point2::new(0.0, 2.0), Point2::new(3.0, 2.0), F);
        // direct + two first-order bounces only.
        assert_eq!(ps.len(), 3);
    }
}

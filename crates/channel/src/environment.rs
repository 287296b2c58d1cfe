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

/// A 2D scene of obstacles with ray-tracing queries.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    obstacles: Vec<Obstacle>,
}

impl Environment {
    /// An empty (free-space) environment.
    pub fn free_space() -> Self {
        Self::default()
    }

    /// Adds an obstacle.
    pub fn add(&mut self, obstacle: Obstacle) {
        self.obstacles.push(obstacle);
    }

    /// The obstacles in the scene.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Total transmission loss (dB) accumulated by a straight ray from
    /// `a` to `b`, and the number of obstacles crossed.
    pub fn transmission_loss(&self, a: Point2, b: Point2) -> (Db, usize) {
        let ray = Segment::new(a, b);
        let mut loss = Db::new(0.0);
        let mut crossings = 0;
        for o in &self.obstacles {
            if o.segment.intersection(ray).is_some() {
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
        for (idx, o) in self.obstacles.iter().enumerate() {
            if let Some((point, total_len)) = reflection_point(o.segment, tx, rx) {
                let mut amp = free_space_amplitude(Meters::new(total_len), freq)
                    * (-o.material.reflection_loss).amplitude();
                // Transmission losses through *other* obstacles on both
                // legs.
                for (jdx, other) in self.obstacles.iter().enumerate() {
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

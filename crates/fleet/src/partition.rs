//! Coverage partitioning: one warehouse floor, N drones, N cells.
//!
//! The relay's tag-side reach is a few meters (the −15 dBm power-up
//! threshold), so warehouse-scale coverage is a *flight time* problem:
//! a single drone must traverse every aisle. Splitting the floor into
//! per-relay cells divides that traversal N ways. Cells are x-strips —
//! the warehouse aisles run along x, so an x-strip contains a clean
//! contiguous piece of every aisle and the per-cell route is a
//! boustrophedon over the aisle segments inside the strip.

use rfly_channel::geometry::Point2;
use rfly_drone::flightplan::{FlightPlan, FlightPlanError};
use rfly_drone::kinematics::MotionLimits;
use rfly_sim::scene::Scene;

/// One relay's assigned ground area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Which relay owns the cell.
    pub index: usize,
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl Cell {
    /// Whether a point lies inside the cell (boundary inclusive).
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The cell's center.
    pub fn center(&self) -> Point2 {
        Point2::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }
}

/// A floor partitioned into per-relay cells, each with a flight plan
/// covering its aisle segments.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The per-relay cells, in relay order.
    pub cells: Vec<Cell>,
    /// The per-relay boustrophedon routes, in relay order.
    pub plans: Vec<FlightPlan>,
}

impl Partition {
    /// Number of cells (= relays).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The mission duration: the *slowest* cell route (cells fly
    /// concurrently).
    pub fn duration(&self) -> f64 {
        self.plans.iter().map(|p| p.duration()).fold(0.0, f64::max)
    }
}

/// Degenerate aisle slivers shorter than this are not worth flying.
const MIN_SEGMENT_M: f64 = 0.5;

/// Partitions `scene` into `n_relays` equal x-strips and builds each
/// strip's boustrophedon route over the aisle segments it contains.
///
/// Fails with [`FlightPlanError`] when a strip is too narrow to contain
/// a flyable aisle segment (e.g. more relays than the floor has room
/// for).
pub fn partition(
    scene: &Scene,
    n_relays: usize,
    limits: MotionLimits,
) -> Result<Partition, FlightPlanError> {
    assert!(n_relays >= 1, "need at least one relay");
    let strip_w = (scene.max.x - scene.min.x) / n_relays as f64;

    let mut aisles: Vec<_> = scene.aisles.clone();
    aisles.sort_by(|p, q| p.a.y.total_cmp(&q.a.y));

    let mut cells = Vec::with_capacity(n_relays);
    let mut plans = Vec::with_capacity(n_relays);
    for k in 0..n_relays {
        let cell = Cell {
            index: k,
            min: Point2::new(scene.min.x + strip_w * k as f64, scene.min.y),
            max: Point2::new(scene.min.x + strip_w * (k + 1) as f64, scene.max.y),
        };

        // Boustrophedon over the aisle pieces inside the strip.
        let mut wp = Vec::new();
        let mut rightward = true;
        for aisle in &aisles {
            let (alo, ahi) = (aisle.a.x.min(aisle.b.x), aisle.a.x.max(aisle.b.x));
            let lo = alo.max(cell.min.x);
            let hi = ahi.min(cell.max.x);
            if hi - lo < MIN_SEGMENT_M {
                continue;
            }
            let y = aisle.a.y;
            if rightward {
                wp.push(Point2::new(lo, y));
                wp.push(Point2::new(hi, y));
            } else {
                wp.push(Point2::new(hi, y));
                wp.push(Point2::new(lo, y));
            }
            rightward = !rightward;
        }
        plans.push(FlightPlan::new(wp, limits)?);
        cells.push(cell);
    }
    Ok(Partition { cells, plans })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_drone::kinematics::MotionLimits;

    fn limits() -> MotionLimits {
        MotionLimits {
            max_speed: 1.0,
            max_accel: 0.5,
        }
    }

    #[test]
    fn strips_tile_the_floor_and_routes_stay_inside() {
        let scene = Scene::paper_building();
        let p = partition(&scene, 3, limits()).expect("3 cells fit");
        assert_eq!(p.len(), 3);
        for (cell, plan) in p.cells.iter().zip(&p.plans) {
            assert!(
                plan.waypoints().iter().all(|w| cell.contains(*w)),
                "route escapes its cell"
            );
            assert!(plan.duration() > 0.0);
        }
        // Every tag spot belongs to exactly one cell.
        for spot in &scene.tag_spots {
            let owner = p
                .cells
                .iter()
                .position(|c| c.contains(*spot))
                .expect("spot inside the floor");
            assert_eq!(
                p.cells
                    .iter()
                    .filter(|c| c.index < owner && c.contains(*spot))
                    .count(),
                0
            );
        }
        assert!(!p.cells.iter().any(|c| c.contains(Point2::new(-5.0, 0.0))));
    }

    #[test]
    fn partitioning_divides_flight_time() {
        let scene = Scene::paper_building();
        let solo = partition(&scene, 1, limits()).unwrap();
        let fleet = partition(&scene, 4, limits()).unwrap();
        // Four drones each fly roughly a quarter of the aisle length;
        // trapezoidal ramps keep it from being exactly 4×.
        assert!(
            fleet.duration() < solo.duration() / 2.0,
            "fleet {} vs solo {}",
            fleet.duration(),
            solo.duration()
        );
    }

    #[test]
    fn too_many_relays_fail_with_flight_plan_error() {
        // 60 strips over a 30 m floor: 0.5 m strips, but aisles span
        // [1, 29] so the edge strips hold no flyable segment.
        let scene = Scene::paper_building();
        let err = partition(&scene, 60, limits()).unwrap_err();
        assert!(matches!(err, FlightPlanError::TooFewWaypoints(_)));
    }
}

//! Scene generation: the 30 × 40 m two-floor research building of §7.2,
//! abstracted as parameterized warehouse floors.

use rfly_channel::environment::{Environment, Material, Obstacle};
use rfly_channel::geometry::{Point2, Segment};

/// A charging dock: a landing pad where a relay can swap off-shift
/// and recharge. Docks are ground furniture, not RF obstacles — a
/// parked drone's airframe is below the shelf clutter that already
/// dominates the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dock {
    /// Pad position on the floor.
    pub pos: Point2,
    /// Simultaneous charging slots on the pad.
    pub slots: usize,
}

/// A generated scene: an environment plus semantic positions.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The RF environment (walls + shelves).
    pub environment: Environment,
    /// Outer boundary (for search-region bounds).
    pub min: Point2,
    /// Outer boundary (for search-region bounds).
    pub max: Point2,
    /// Candidate tag positions (shelf faces).
    pub tag_spots: Vec<Point2>,
    /// Aisle centerlines a drone can fly along.
    pub aisles: Vec<Segment>,
    /// Charging docks for continuous-operation rotations (empty for
    /// one-shot missions).
    pub docks: Vec<Dock>,
}

impl Scene {
    /// An empty open floor `width × depth` meters with perimeter
    /// concrete walls.
    pub fn open_floor(width: f64, depth: f64) -> Self {
        assert!(width > 0.0 && depth > 0.0);
        let min = Point2::new(0.0, 0.0);
        let max = Point2::new(width, depth);
        let mut environment = Environment::free_space();
        for w in perimeter(min, max) {
            environment.add(Obstacle::new(w, Material::CONCRETE_WALL));
        }
        Self {
            environment,
            min,
            max,
            tag_spots: Vec::new(),
            aisles: vec![Segment::new(
                Point2::new(1.0, depth / 2.0),
                Point2::new(width - 1.0, depth / 2.0),
            )],
            docks: Vec::new(),
        }
    }

    /// A warehouse floor: perimeter walls plus `n_shelves` steel shelf
    /// rows running along x, with tag spots on the shelf faces and
    /// aisles between rows — the "highly cluttered environments" of §3.
    pub fn warehouse(width: f64, depth: f64, n_shelves: usize) -> Self {
        let mut scene = Self::open_floor(width, depth);
        if n_shelves == 0 {
            return scene;
        }
        let pitch = depth / (n_shelves + 1) as f64;
        for k in 1..=n_shelves {
            let y = pitch * k as f64;
            let shelf = Segment::new(Point2::new(2.0, y), Point2::new(width - 2.0, y));
            scene
                .environment
                .add(Obstacle::new(shelf, Material::STEEL_SHELF));
            // Tag spots along the shelf face, slightly off the steel.
            let n_spots = ((width - 4.0) / 2.0).floor() as usize;
            for s in 0..n_spots {
                scene
                    .tag_spots
                    .push(Point2::new(3.0 + 2.0 * s as f64, y - 0.3));
            }
            // Aisles on both sides of the row (the first row also gets
            // one below it, so every shelf face is reachable).
            for aisle_y in [y - pitch / 2.0, y + pitch / 2.0] {
                if aisle_y > 1.0
                    && aisle_y < depth - 1.0
                    && !scene.aisles.iter().any(|a| (a.a.y - aisle_y).abs() < 1e-9)
                {
                    scene.aisles.push(Segment::new(
                        Point2::new(1.0, aisle_y),
                        Point2::new(width - 1.0, aisle_y),
                    ));
                }
            }
        }
        scene
    }

    /// The paper's evaluation building footprint (30 × 40 m).
    pub fn paper_building() -> Self {
        Self::warehouse(30.0, 40.0, 6)
    }

    /// A multi-floor building collapsed onto one plan: `floors` stacked
    /// warehouse floors of `width × floor_depth` m, separated by
    /// concrete slabs (modeled as heavy interior walls), each floor
    /// carrying `shelves` steel shelf rows. The §7.2 building is two
    /// such floors; this generalizes it.
    pub fn multi_floor(width: f64, floor_depth: f64, floors: usize, shelves: usize) -> Self {
        assert!(floors >= 1, "need at least one floor");
        let mut scene = Self::open_floor(width, floor_depth * floors as f64);
        scene.aisles.clear();
        for floor in 0..floors {
            let base = floor_depth * floor as f64;
            if floor > 0 {
                // The slab between floors: concrete, RF-opaque-ish.
                scene.add_wall(Segment::new(
                    Point2::new(0.0, base),
                    Point2::new(width, base),
                ));
            }
            let pitch = floor_depth / (shelves + 1) as f64;
            for k in 1..=shelves {
                let y = base + pitch * k as f64;
                let shelf = Segment::new(Point2::new(2.0, y), Point2::new(width - 2.0, y));
                scene
                    .environment
                    .add(Obstacle::new(shelf, Material::STEEL_SHELF));
                let n_spots = ((width - 4.0) / 2.0).floor() as usize;
                for s in 0..n_spots {
                    scene
                        .tag_spots
                        .push(Point2::new(3.0 + 2.0 * s as f64, y - 0.3));
                }
                for aisle_y in [y - pitch / 2.0, y + pitch / 2.0] {
                    if aisle_y > base + 0.5
                        && aisle_y < base + floor_depth - 0.5
                        && !scene.aisles.iter().any(|a| (a.a.y - aisle_y).abs() < 1e-9)
                    {
                        scene.aisles.push(Segment::new(
                            Point2::new(1.0, aisle_y),
                            Point2::new(width - 1.0, aisle_y),
                        ));
                    }
                }
            }
        }
        scene
    }

    /// An outdoor storage yard: no perimeter walls (free space to the
    /// horizon), `rows` pallet rows of soft inventory along x with tag
    /// spots on their faces and an aisle between consecutive rows.
    pub fn outdoor_aisles(width: f64, depth: f64, rows: usize) -> Self {
        assert!(width > 0.0 && depth > 0.0);
        assert!(rows >= 1, "a yard needs at least one pallet row");
        let mut scene = Self {
            environment: Environment::free_space(),
            min: Point2::new(0.0, 0.0),
            max: Point2::new(width, depth),
            tag_spots: Vec::new(),
            aisles: Vec::new(),
            docks: Vec::new(),
        };
        let pitch = depth / (rows + 1) as f64;
        for k in 1..=rows {
            let y = pitch * k as f64;
            let row = Segment::new(Point2::new(1.0, y), Point2::new(width - 1.0, y));
            scene
                .environment
                .add(Obstacle::new(row, Material::SOFT_INVENTORY));
            let n_spots = ((width - 2.0) / 2.0).floor() as usize;
            for s in 0..n_spots {
                scene
                    .tag_spots
                    .push(Point2::new(2.0 + 2.0 * s as f64, y - 0.3));
            }
            for aisle_y in [y - pitch / 2.0, y + pitch / 2.0] {
                if aisle_y > 0.5
                    && aisle_y < depth - 0.5
                    && !scene.aisles.iter().any(|a| (a.a.y - aisle_y).abs() < 1e-9)
                {
                    scene.aisles.push(Segment::new(
                        Point2::new(1.0, aisle_y),
                        Point2::new(width - 1.0, aisle_y),
                    ));
                }
            }
        }
        scene
    }

    /// A scene from a radio-environment-map-style occupancy grid:
    /// `rows[r]` is a string of `#` (occupied) and `.` (free) cells,
    /// each `cell` meters square, row 0 at the bottom (y = 0). Occupied
    /// runs become steel obstacles, free cells bordering an occupied
    /// one become tag spots, and every fully-free row becomes a flyable
    /// aisle. Perimeter concrete walls close the map.
    ///
    /// Panics unless all rows are equally long, non-empty, drawn from
    /// `{'#', '.'}`, and at least one row is fully free (the drones
    /// need an aisle) — the scenario schema validates these with
    /// file:line diagnostics before ever reaching this constructor.
    pub fn occupancy(cell: rfly_dsp::units::Meters, rows: &[&str]) -> Self {
        let cell = cell.value();
        assert!(cell > 0.0, "cell size must be positive");
        assert!(!rows.is_empty(), "occupancy grid needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "occupancy rows must be non-empty");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "occupancy rows must be equally long"
        );
        assert!(
            rows.iter()
                .flat_map(|r| r.chars())
                .all(|c| c == '#' || c == '.'),
            "occupancy cells must be '#' or '.'"
        );
        let width = cell * cols as f64;
        let depth = cell * rows.len() as f64;
        let mut scene = Self::open_floor(width, depth);
        scene.aisles.clear();

        let occupied = |r: usize, c: usize| rows[r].as_bytes().get(c).is_some_and(|&b| b == b'#');
        for (r, row) in rows.iter().enumerate() {
            let y = cell * (r as f64 + 0.5);
            // Merge each horizontal run of occupied cells into one
            // steel obstacle segment.
            let mut c = 0usize;
            while c < cols {
                if occupied(r, c) {
                    let start = c;
                    while c < cols && occupied(r, c) {
                        c += 1;
                    }
                    scene.environment.add(Obstacle::new(
                        Segment::new(
                            Point2::new(cell * start as f64, y),
                            Point2::new(cell * c as f64, y),
                        ),
                        Material::STEEL_SHELF,
                    ));
                } else {
                    c += 1;
                }
            }
            // Free cells next to occupied ones (same column, adjacent
            // row, or adjacent column) hold tagged stock.
            for c in 0..cols {
                if occupied(r, c) {
                    continue;
                }
                let near = (r > 0 && occupied(r - 1, c))
                    || (r + 1 < rows.len() && occupied(r + 1, c))
                    || (c > 0 && occupied(r, c - 1))
                    || occupied(r, c + 1);
                if near {
                    scene
                        .tag_spots
                        .push(Point2::new(cell * (c as f64 + 0.5), y));
                }
            }
            // A fully-free row is a flyable aisle.
            if row.chars().all(|ch| ch == '.') {
                scene.aisles.push(Segment::new(
                    Point2::new(cell * 0.5, y),
                    Point2::new(width - cell * 0.5, y),
                ));
            }
        }
        assert!(
            !scene.aisles.is_empty(),
            "occupancy grid has no fully-free row to fly"
        );
        scene
    }

    /// Adds a charging dock at `pos` with `slots` simultaneous
    /// charging slots. Panics if the pad lies outside the floor or has
    /// no slots (the scenario schema checks both with file:line
    /// diagnostics when it parses a `[[dock]]`).
    pub fn add_dock(&mut self, pos: Point2, slots: usize) {
        assert!(self.contains(pos), "dock pad outside the floor");
        assert!(slots >= 1, "a dock needs at least one slot");
        self.docks.push(Dock { pos, slots });
    }

    /// Total charging slots across all docks.
    pub fn dock_slots(&self) -> usize {
        self.docks.iter().map(|d| d.slots).sum()
    }

    /// Adds an interior dividing wall (for NLoS experiments), from
    /// `(x0,y)` to `(x1,y)` horizontal or vertical as given.
    pub fn add_wall(&mut self, wall: Segment) {
        self.environment
            .add(Obstacle::new(wall, Material::CONCRETE_WALL));
    }

    /// Whether a point lies inside the floor boundary.
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

fn perimeter(min: Point2, max: Point2) -> [Segment; 4] {
    let a = min;
    let b = Point2::new(max.x, min.y);
    let c = max;
    let d = Point2::new(min.x, max.y);
    [
        Segment::new(a, b),
        Segment::new(b, c),
        Segment::new(c, d),
        Segment::new(d, a),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::units::Hertz;

    #[test]
    fn open_floor_has_four_walls() {
        let s = Scene::open_floor(10.0, 20.0);
        assert_eq!(s.environment.obstacles().len(), 4);
        assert!(s.contains(Point2::new(5.0, 5.0)));
        assert!(!s.contains(Point2::new(-1.0, 5.0)));
        assert_eq!(s.aisles.len(), 1);
    }

    #[test]
    fn warehouse_has_shelves_and_spots() {
        let s = Scene::warehouse(30.0, 40.0, 6);
        assert_eq!(s.environment.obstacles().len(), 4 + 6);
        assert!(!s.tag_spots.is_empty());
        assert!(s.tag_spots.iter().all(|p| s.contains(*p)));
        assert!(s.aisles.len() >= 6);
    }

    #[test]
    fn shelves_block_and_reflect() {
        let s = Scene::warehouse(30.0, 40.0, 4);
        // Two points straddling a shelf row: attenuated direct path and
        // at least one reflection.
        let y_shelf = 40.0 / 5.0;
        let a = Point2::new(15.0, y_shelf - 1.0);
        let b = Point2::new(15.0, y_shelf + 1.0);
        assert!(!s.environment.line_of_sight(a, b));
        // Same side: LoS plus shelf reflection.
        let c = Point2::new(10.0, y_shelf - 1.0);
        let ps = s.environment.trace(a, c, Hertz::mhz(915.0));
        assert!(
            ps.len() >= 2,
            "expected direct + reflection, got {}",
            ps.len()
        );
    }

    #[test]
    fn paper_building_dimensions() {
        let s = Scene::paper_building();
        assert_eq!(s.max, Point2::new(30.0, 40.0));
    }

    #[test]
    fn multi_floor_stacks_warehouse_bands() {
        let s = Scene::multi_floor(16.0, 10.0, 2, 2);
        assert_eq!(s.max, Point2::new(16.0, 20.0));
        // 4 perimeter + 1 slab + 4 shelves.
        assert_eq!(s.environment.obstacles().len(), 9);
        // The slab blocks line of sight between floors.
        assert!(!s
            .environment
            .line_of_sight(Point2::new(8.0, 9.0), Point2::new(8.0, 11.0)));
        assert!(s.tag_spots.iter().all(|p| s.contains(*p)));
        assert!(s.aisles.len() >= 4, "each floor contributes aisles");
    }

    #[test]
    fn outdoor_yard_has_no_perimeter() {
        let s = Scene::outdoor_aisles(20.0, 15.0, 3);
        // 3 pallet rows, no walls.
        assert_eq!(s.environment.obstacles().len(), 3);
        assert!(!s.tag_spots.is_empty());
        assert!(s.aisles.len() >= 3);
        assert!(s.aisles.iter().all(|a| a.a.y > 0.5 && a.a.y < 14.5));
    }

    #[test]
    fn occupancy_grid_builds_obstacles_spots_and_aisles() {
        let s = Scene::occupancy(
            rfly_dsp::units::Meters::new(2.0),
            &["........", "..##..#.", "........", ".####...", "........"],
        );
        assert_eq!(s.max, Point2::new(16.0, 10.0));
        // 4 perimeter walls + 3 occupied runs.
        assert_eq!(s.environment.obstacles().len(), 7);
        assert_eq!(s.aisles.len(), 3, "three fully-free rows");
        assert!(!s.tag_spots.is_empty());
        assert!(s.tag_spots.iter().all(|p| s.contains(*p)));
        // The run at row 1 blocks crossing it vertically.
        assert!(!s
            .environment
            .line_of_sight(Point2::new(5.0, 1.0), Point2::new(5.0, 5.0)));
    }

    #[test]
    #[should_panic(expected = "fully-free row")]
    fn occupancy_without_an_aisle_panics() {
        let _ = Scene::occupancy(rfly_dsp::units::Meters::new(1.0), &["#.", ".#"]);
    }

    #[test]
    fn docks_are_semantic_not_rf() {
        let mut s = Scene::warehouse(20.0, 16.0, 2);
        let obstacles_before = s.environment.obstacles().len();
        s.add_dock(Point2::new(1.0, 1.0), 2);
        s.add_dock(Point2::new(19.0, 15.0), 1);
        assert_eq!(s.docks.len(), 2);
        assert_eq!(s.dock_slots(), 3);
        // A dock never perturbs propagation.
        assert_eq!(s.environment.obstacles().len(), obstacles_before);
        assert!(s.docks.iter().all(|d| s.contains(d.pos)));
    }

    #[test]
    #[should_panic(expected = "outside the floor")]
    fn out_of_bounds_dock_panics() {
        let mut s = Scene::open_floor(10.0, 10.0);
        s.add_dock(Point2::new(-1.0, 5.0), 1);
    }

    #[test]
    fn added_wall_obstructs() {
        let mut s = Scene::open_floor(10.0, 10.0);
        s.add_wall(Segment::new(Point2::new(5.0, 0.0), Point2::new(5.0, 10.0)));
        assert!(!s
            .environment
            .line_of_sight(Point2::new(2.0, 5.0), Point2::new(8.0, 5.0)));
    }
}

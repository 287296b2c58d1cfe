//! Deterministic tag motion: conveyor belts that carry tags through
//! the scene while the fleet flies overhead.
//!
//! The paper's warehouse is static, but real deployments inventory
//! *moving* stock — items riding conveyor lines past a portal. A
//! [`TagMotion`] is a pure function of a tag's *initial* position and
//! the mission time `t`: no RNG, no hidden state, so a mission over a
//! moving population is exactly as reproducible as one over a static
//! population (the determinism discipline of DESIGN.md §4). A tag that
//! sits on no belt never moves, so an empty motion is the identity and
//! the static missions of PRs 1–5 are bit-identical under it.

use rfly_channel::geometry::Point2;
use rfly_dsp::units::Meters;

/// How far off a belt's centerline a tag may sit and still be carried.
const CAPTURE_M: f64 = 0.25;

/// One conveyor belt: a horizontal line segment along which tags are
/// carried at constant speed, wrapping from the end back to the start
/// (a loop, as real sortation lines are).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Belt {
    /// Belt centerline height.
    pub y: Meters,
    /// Start of the belt span.
    pub x_min: Meters,
    /// End of the belt span.
    pub x_max: Meters,
    /// Carry speed, meters per second, in +x (wraps at `x_max`).
    pub speed: f64,
}

impl Belt {
    /// Whether the belt carries a tag whose initial position is `p`.
    pub fn carries(&self, p: Point2) -> bool {
        (Meters::new(p.y) - self.y).abs() <= Meters::new(CAPTURE_M)
            && p.x >= self.x_min.value()
            && p.x <= self.x_max.value()
    }

    /// Where a tag initially at `p` sits at mission time `t` seconds.
    /// Pure in `(p, t)`; positions wrap around the belt span.
    pub fn position_at(&self, p: Point2, t: f64) -> Point2 {
        let span = self.x_max - self.x_min;
        if span.value() <= 0.0 {
            return p;
        }
        let from_min = Meters::new(p.x) - self.x_min + Meters::new(self.speed * t);
        let x = self.x_min + Meters::new(from_min.value().rem_euclid(span.value()));
        Point2::new(x.value(), p.y)
    }
}

/// A scene's complete motion model: zero or more belts. Tags not on
/// any belt are static.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagMotion {
    belts: Vec<Belt>,
}

impl TagMotion {
    /// The static world: no belts, every tag stays put.
    pub fn none() -> Self {
        Self::default()
    }

    /// A motion model over the given belts.
    pub fn from_belts(belts: Vec<Belt>) -> Self {
        Self { belts }
    }

    /// True when there is no motion (the static fast path).
    pub fn is_empty(&self) -> bool {
        self.belts.is_empty()
    }

    /// Where a tag whose *initial* (t = 0) position is `home` sits at
    /// mission time `t` seconds. The first belt that captures the tag
    /// carries it; tags off every belt are returned unchanged.
    pub fn position_at(&self, home: Point2, t: f64) -> Point2 {
        match self.belts.iter().find(|b| b.carries(home)) {
            Some(belt) => belt.position_at(home, t),
            None => home,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn belt() -> Belt {
        Belt {
            y: Meters::new(5.0),
            x_min: Meters::new(2.0),
            x_max: Meters::new(12.0),
            speed: 0.5,
        }
    }

    #[test]
    fn belt_carries_only_nearby_tags() {
        let b = belt();
        assert!(b.carries(Point2::new(4.0, 5.0)));
        assert!(b.carries(Point2::new(4.0, 5.2)));
        assert!(!b.carries(Point2::new(4.0, 6.0)), "off the centerline");
        assert!(!b.carries(Point2::new(13.0, 5.0)), "past the span");
    }

    #[test]
    fn motion_is_a_pure_function_of_time() {
        let m = TagMotion::from_belts(vec![belt()]);
        let home = Point2::new(3.0, 5.0);
        let a = m.position_at(home, 7.25);
        let b = m.position_at(home, 7.25);
        assert_eq!(a, b, "same (home, t) must give the same position");
        // 0.5 m/s for 4 s = 2 m downstream.
        let p = m.position_at(home, 4.0);
        assert!((p.x - 5.0).abs() < 1e-12 && (p.y - 5.0).abs() < 1e-12);
    }

    #[test]
    fn belt_positions_wrap_around_the_span() {
        let m = TagMotion::from_belts(vec![belt()]);
        // 10 m span at 0.5 m/s: after 22 s a tag from x=3 is at
        // 3 + 11 = 14 → wraps to 4.
        let p = m.position_at(Point2::new(3.0, 5.0), 22.0);
        assert!((p.x - 4.0).abs() < 1e-9, "got {}", p.x);
        assert!(
            p.x >= 2.0 && p.x <= 12.0,
            "wrapped position stays on the belt"
        );
    }

    #[test]
    fn empty_motion_is_the_identity() {
        let m = TagMotion::none();
        assert!(m.is_empty());
        let home = Point2::new(9.0, 1.0);
        assert_eq!(m.position_at(home, 123.0), home);
    }

    #[test]
    fn off_belt_tags_never_move() {
        let m = TagMotion::from_belts(vec![belt()]);
        let home = Point2::new(3.0, 8.0);
        assert_eq!(m.position_at(home, 50.0), home);
    }
}

//! 2D points, vectors and segment geometry.
//!
//! The localization algorithm is geometric at its core: Eq. 12 of the
//! paper evaluates `√((x−xl)² + (y−yl)²)` for every grid point against
//! every trajectory sample, and the multipath model reflects points
//! across wall segments (image method). Everything here is plain `f64`
//! Euclidean geometry.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or vector) in the 2D plane. The paper's evaluation localizes
/// tags in 2D (§7.2, tags placed on the ground).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// X coordinate, meters.
    pub x: f64,
    /// Y coordinate, meters.
    pub y: f64,
}

impl Point2 {
    /// The origin.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Vector norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Dot product.
    pub fn dot(self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z-component of the 3D cross product).
    pub fn cross(self, other: Point2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in this direction; the zero vector maps to itself.
    pub fn normalize(self) -> Point2 {
        let n = self.norm();
        if n == 0.0 {
            self
        } else {
            self / n
        }
    }

    /// Linear interpolation: `self + t·(other − self)`.
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, k: f64) -> Point2 {
        Point2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    fn div(self, k: f64) -> Point2 {
        Point2::new(self.x / k, self.y / k)
    }
}

impl Neg for Point2 {
    type Output = Point2;
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// A line segment between two points — a wall, a shelf face, or any
/// specular reflector in the scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// One endpoint.
    pub a: Point2,
    /// The other endpoint.
    pub b: Point2,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(a: Point2, b: Point2) -> Self {
        Self { a, b }
    }

    /// The midpoint.
    pub fn midpoint(self) -> Point2 {
        self.a.lerp(self.b, 0.5)
    }

    /// Mirrors `p` across the infinite line through this segment — the
    /// *image* of the image method for specular reflection.
    pub fn mirror(self, p: Point2) -> Point2 {
        let d = (self.b - self.a).normalize();
        let ap = p - self.a;
        let proj = self.a + d * ap.dot(d);
        proj * 2.0 - p
    }

    /// Whether two segments properly intersect (shared endpoints and
    /// collinear touching count as intersection for occlusion purposes).
    pub fn intersects(self, other: Segment) -> bool {
        let d1 = (self.b - self.a).cross(other.a - self.a);
        let d2 = (self.b - self.a).cross(other.b - self.a);
        let d3 = (other.b - other.a).cross(self.a - other.a);
        let d4 = (other.b - other.a).cross(self.b - other.a);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        // Collinear / endpoint-touching cases.
        let on = |s: Segment, p: Point2| -> bool {
            (s.b - s.a).cross(p - s.a).abs() < 1e-12
                && p.x >= s.a.x.min(s.b.x) - 1e-12
                && p.x <= s.a.x.max(s.b.x) + 1e-12
                && p.y >= s.a.y.min(s.b.y) - 1e-12
                && p.y <= s.a.y.max(s.b.y) + 1e-12
        };
        on(self, other.a) || on(self, other.b) || on(other, self.a) || on(other, self.b)
    }

    /// Intersection point of this segment with segment `other`, if any
    /// (properly crossing interiors only).
    pub fn intersection(self, other: Segment) -> Option<Point2> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        if denom.abs() < 1e-15 {
            return None;
        }
        let t = (other.a - self.a).cross(s) / denom;
        let u = (other.a - self.a).cross(r) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some(self.a + r * t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn distances_and_norms() {
        let p = Point2::new(3.0, 4.0);
        assert!(close(p.norm(), 5.0));
        assert!(close(Point2::ORIGIN.distance(p), 5.0));
    }

    #[test]
    fn vector_algebra() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(-3.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2.0 / 2.0, a);
        assert_eq!(-(-a), a);
        assert!(close(a.dot(b), -2.0));
        assert!(close(a.cross(b), 0.5 + 6.0));
    }

    #[test]
    fn normalize_and_lerp() {
        let v = Point2::new(0.0, -4.0).normalize();
        assert!(close(v.norm(), 1.0));
        assert_eq!(Point2::ORIGIN.normalize(), Point2::ORIGIN);
        let m = Point2::new(0.0, 0.0).lerp(Point2::new(2.0, 4.0), 0.25);
        assert_eq!(m, Point2::new(0.5, 1.0));
    }

    #[test]
    fn mirror_across_axis() {
        // Mirror across the x-axis.
        let wall = Segment::new(Point2::new(-10.0, 0.0), Point2::new(10.0, 0.0));
        let img = wall.mirror(Point2::new(2.0, 3.0));
        assert!(close(img.x, 2.0));
        assert!(close(img.y, -3.0));
        // Mirroring twice is identity.
        let back = wall.mirror(img);
        assert!(close(back.y, 3.0));
    }

    #[test]
    fn mirror_across_oblique_line() {
        // The line y = x.
        let wall = Segment::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        let img = wall.mirror(Point2::new(3.0, 0.0));
        assert!(close(img.x, 0.0));
        assert!(close(img.y, 3.0));
    }

    #[test]
    fn segment_intersection_cases() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(2.0, 2.0));
        let s2 = Segment::new(Point2::new(0.0, 2.0), Point2::new(2.0, 0.0));
        assert!(s1.intersects(s2));
        let x = s1.intersection(s2).unwrap();
        assert!(close(x.x, 1.0) && close(x.y, 1.0));

        // Parallel, non-touching.
        let s3 = Segment::new(Point2::new(0.0, 1.0), Point2::new(2.0, 3.0));
        assert!(!s1.intersects(s3));
        assert!(s1.intersection(s3).is_none());

        // Touching at an endpoint counts as intersecting (occlusion).
        let s4 = Segment::new(Point2::new(2.0, 2.0), Point2::new(3.0, 0.0));
        assert!(s1.intersects(s4));

        // Disjoint but crossing lines (segments too short).
        let s5 = Segment::new(Point2::new(10.0, 0.0), Point2::new(10.0, 5.0));
        assert!(!s1.intersects(s5));
    }

    #[test]
    fn segment_metrics() {
        let s = Segment::new(Point2::new(0.0, 0.0), Point2::new(3.0, 4.0));
        assert_eq!(s.midpoint(), Point2::new(1.5, 2.0));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{}", Point2::new(1.0, -2.5)), "(1.000, -2.500)");
    }
}

//! Drone/robot trajectories: the synthetic aperture.
//!
//! As the drone flies, the relay captures tag responses at K positions;
//! those positions *are* the antenna array (§5). Localization accuracy
//! scales with the aperture — the spatial extent of the trajectory —
//! which Fig. 13 sweeps from 0.5 m to 2.5 m.

use rfly_channel::geometry::Point2;
use rfly_dsp::units::Meters;

/// An ordered sequence of measurement positions.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<Point2>,
}

impl Trajectory {
    /// Builds from explicit points.
    pub fn from_points(points: Vec<Point2>) -> Self {
        assert!(!points.is_empty(), "a trajectory needs at least one point");
        Self { points }
    }

    /// A straight line from `a` to `b` sampled at `k` points (inclusive
    /// of both ends) — the 1D flight paths of the paper's evaluation.
    pub fn line(a: Point2, b: Point2, k: usize) -> Self {
        assert!(k >= 2, "a line needs at least two samples");
        let points = (0..k)
            .map(|i| a.lerp(b, i as f64 / (k - 1) as f64))
            .collect();
        Self { points }
    }

    /// A lawnmower (boustrophedon) scan covering the axis-aligned
    /// rectangle from `min` to `max` with `rows` passes, `k_per_row`
    /// samples per pass — the warehouse scan pattern.
    pub fn lawnmower(min: Point2, max: Point2, rows: usize, k_per_row: usize) -> Self {
        assert!(rows >= 1 && k_per_row >= 2);
        let mut points = Vec::with_capacity(rows * k_per_row);
        for r in 0..rows {
            let y = if rows == 1 {
                (min.y + max.y) / 2.0
            } else {
                min.y + (max.y - min.y) * r as f64 / (rows - 1) as f64
            };
            let (x0, x1) = if r % 2 == 0 {
                (min.x, max.x)
            } else {
                (max.x, min.x)
            };
            for i in 0..k_per_row {
                let x = x0 + (x1 - x0) * i as f64 / (k_per_row - 1) as f64;
                points.push(Point2::new(x, y));
            }
        }
        Self { points }
    }

    /// The measurement positions.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the trajectory is a single point (degenerate).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The aperture: the maximum pairwise extent of the trajectory
    /// (for a straight line, its length).
    pub fn aperture(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.points.len() {
            for j in i + 1..self.points.len() {
                max = max.max(self.points[i].distance(self.points[j]));
            }
        }
        max
    }

    /// The centroid of the trajectory.
    pub fn centroid(&self) -> Point2 {
        let sum = self.points.iter().fold(Point2::ORIGIN, |acc, p| acc + *p);
        sum / self.points.len() as f64
    }

    /// Distance from a point to the nearest trajectory sample — the
    /// §5.2 ghost-rejection metric.
    pub fn distance_to(&self, p: Point2) -> f64 {
        self.points
            .iter()
            .map(|t| t.distance(p))
            .fold(f64::MAX, f64::min)
    }

    /// A trajectory truncated (from the center outward) to at most
    /// `aperture` of extent — used by the Fig. 13 aperture sweep to
    /// reuse one flight's measurements at several apertures. Returns the
    /// kept indices alongside the new trajectory.
    pub fn truncate_aperture(&self, aperture: Meters) -> (Trajectory, Vec<usize>) {
        assert!(aperture.value() > 0.0);
        let aperture_m = aperture.value();
        let c = self.centroid();
        let mut kept: Vec<usize> = (0..self.points.len())
            .filter(|&i| self.points[i].distance(c) <= aperture_m / 2.0)
            .collect();
        if kept.is_empty() {
            // Keep the single point nearest the centroid.
            #[expect(
                clippy::expect_used,
                reason = "from_points asserts a non-empty point set"
            )]
            let nearest = (0..self.points.len())
                .min_by(|&a, &b| {
                    self.points[a]
                        .distance(c)
                        .total_cmp(&self.points[b].distance(c))
                })
                .expect("non-empty trajectory");
            kept = vec![nearest];
        }
        let t = Trajectory::from_points(kept.iter().map(|&i| self.points[i]).collect());
        (t, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_endpoints_and_spacing() {
        let t = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(3.0, 0.0), 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.points()[0], Point2::new(0.0, 0.0));
        assert_eq!(t.points()[3], Point2::new(3.0, 0.0));
        assert!((t.points()[1].x - 1.0).abs() < 1e-12);
        assert!((t.aperture() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lawnmower_alternates_direction() {
        let t = Trajectory::lawnmower(Point2::new(0.0, 0.0), Point2::new(4.0, 2.0), 3, 5);
        assert_eq!(t.len(), 15);
        assert_eq!(t.points()[0], Point2::new(0.0, 0.0));
        assert_eq!(t.points()[4], Point2::new(4.0, 0.0));
        // Second row starts from the right.
        assert_eq!(t.points()[5], Point2::new(4.0, 1.0));
        assert_eq!(t.points()[14].y, 2.0);
    }

    #[test]
    fn centroid_and_distance() {
        let t = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0), 3);
        assert_eq!(t.centroid(), Point2::new(1.0, 0.0));
        assert!((t.distance_to(Point2::new(1.0, 1.5)) - 1.5).abs() < 1e-12);
        assert!((t.distance_to(Point2::new(-1.0, 0.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_keeps_central_portion() {
        let t = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(4.0, 0.0), 41);
        let (short, kept) = t.truncate_aperture(Meters::new(2.0));
        assert!((short.aperture() - 2.0).abs() < 0.11);
        // Kept indices are centered around the middle.
        assert!(kept.contains(&20));
        assert!(!kept.contains(&0));
        assert!(!kept.contains(&40));
    }

    #[test]
    fn truncate_degenerates_to_nearest_point() {
        let t = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(4.0, 0.0), 5);
        let (short, kept) = t.truncate_aperture(Meters::new(1e-6));
        assert_eq!(short.len(), 1);
        assert_eq!(kept, vec![2]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_rejected() {
        let _ = Trajectory::from_points(vec![]);
    }
}

//! Flight plans: waypoint routes sampled into measurement positions.
//!
//! The drone follows "a predetermined flight plan" (§3). For the
//! localization algorithms what matters is the sequence of positions at
//! which tag responses were captured; a flight plan turns waypoints +
//! kinematics + a measurement rate into exactly that.

use std::fmt;

use rfly_channel::geometry::Point2;

use crate::kinematics::{Leg, MotionLimits};

/// Why a flight plan could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightPlanError {
    /// A route needs at least two waypoints; the actual count is given.
    TooFewWaypoints(usize),
}

impl fmt::Display for FlightPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightPlanError::TooFewWaypoints(n) => {
                write!(f, "a plan needs at least two waypoints, got {n}")
            }
        }
    }
}

impl std::error::Error for FlightPlanError {}

/// A waypoint route with motion limits.
#[derive(Debug, Clone)]
pub struct FlightPlan {
    waypoints: Vec<Point2>,
    limits: MotionLimits,
}

impl FlightPlan {
    /// Creates a plan through `waypoints` (at least two).
    pub fn new(waypoints: Vec<Point2>, limits: MotionLimits) -> Result<Self, FlightPlanError> {
        if waypoints.len() < 2 {
            return Err(FlightPlanError::TooFewWaypoints(waypoints.len()));
        }
        Ok(Self { waypoints, limits })
    }

    /// The waypoints.
    pub fn waypoints(&self) -> &[Point2] {
        &self.waypoints
    }

    /// The motion limits the plan was built with — with
    /// [`Self::waypoints`], everything a serialized mission checkpoint
    /// needs to rebuild the plan via [`Self::new`].
    pub fn limits(&self) -> MotionLimits {
        self.limits
    }

    /// Total mission duration, seconds (no hover time between legs).
    pub fn duration(&self) -> f64 {
        self.legs().map(|l| l.duration()).sum()
    }

    fn legs(&self) -> impl Iterator<Item = Leg> + '_ {
        self.waypoints
            .windows(2)
            .map(|w| Leg::new(w[0], w[1], self.limits))
    }

    /// Position at mission time `t` (clamped to the route's ends).
    pub fn position_at(&self, t: f64) -> Point2 {
        assert!(t >= 0.0);
        let mut remaining = t;
        let mut last = self.waypoints[0];
        for leg in self.legs() {
            let d = leg.duration();
            if remaining <= d {
                return leg.position_at(remaining);
            }
            remaining -= d;
            last = leg.position_at(d);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> MotionLimits {
        MotionLimits {
            max_speed: 1.0,
            max_accel: 0.5,
        }
    }

    #[test]
    fn line_plan_duration_and_positions() {
        let p = FlightPlan::new(vec![Point2::new(0.0, 0.0), Point2::new(5.0, 0.0)], limits())
            .expect("two waypoints");
        assert!((p.duration() - 7.0).abs() < 1e-12);
        assert_eq!(p.position_at(0.0), Point2::new(0.0, 0.0));
        assert!(p.position_at(100.0).distance(Point2::new(5.0, 0.0)) < 1e-9);
    }

    #[test]
    fn multi_leg_position_continuity() {
        let p = FlightPlan::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(2.0, 0.0),
                Point2::new(2.0, 2.0),
            ],
            limits(),
        )
        .expect("three waypoints");
        let t_leg1 = Leg::new(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0), limits()).duration();
        let corner = p.position_at(t_leg1);
        assert!(corner.distance(Point2::new(2.0, 0.0)) < 1e-9);
        // Just after the corner we're moving in +y.
        let after = p.position_at(t_leg1 + 0.5);
        assert!(after.y > 0.0 && (after.x - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_waypoint_rejected() {
        assert_eq!(
            FlightPlan::new(vec![Point2::ORIGIN], limits()).unwrap_err(),
            FlightPlanError::TooFewWaypoints(1)
        );
        assert_eq!(
            FlightPlan::new(vec![], limits()).unwrap_err(),
            FlightPlanError::TooFewWaypoints(0)
        );
    }
}

//! # rfly-drone — drone and ground-robot platform models
//!
//! RFly's relay rides a Parrot Bebop 2 (§6.2); the controlled
//! microbenchmarks ride an iRobot Create 2 (§7.3a). What the rest of
//! the system needs from the platform is (a) *can it carry the relay
//! and power it*, and (b) *where exactly was it at each measurement* —
//! i.e. payload/power budgets, kinematics along a flight plan, and a
//! position-tracking model (OptiTrack ground truth vs odometry drift).

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod flightplan;
pub mod kinematics;
pub mod platform;
pub mod tracking;

pub use flightplan::{FlightPlan, FlightPlanError};
pub use platform::Platform;

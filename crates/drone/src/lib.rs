//! # rfly-drone — drone and ground-robot platform models
//!
//! RFly's relay rides a Parrot Bebop 2 (§6.2); the controlled
//! microbenchmarks ride an iRobot Create 2 (§7.3a). What the rest of
//! the system needs from the platform is *where exactly was it at each
//! measurement*: kinematics along a flight plan and a position-tracking
//! model (OptiTrack ground truth vs odometry drift), plus the
//! airframe-and-payload [`energy::EnergyModel`] the fleet's battery
//! accounting (`rfly_ops::energy`) draws against.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod energy;
pub mod flightplan;
pub mod kinematics;
pub mod tracking;

pub use flightplan::{FlightPlan, FlightPlanError};

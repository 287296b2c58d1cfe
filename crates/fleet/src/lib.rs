//! # rfly-fleet — multi-relay fleet coordination
//!
//! The paper flies *one* drone-borne relay; a warehouse deployment
//! flies a fleet. Three problems appear the moment a second relay
//! takes off, and this crate solves each with the substrate the
//! single-relay stack already provides:
//!
//! * **Coverage partitioning** ([`partition`](mod@partition)) — split
//!   the tag floor into per-relay cells and emit each drone's
//!   boustrophedon route over its cell's aisles
//!   ([`rfly_drone::flightplan`]).
//! * **Δf channel assignment** ([`channels`]) — pick each relay's
//!   (f₁ᵢ, f₂ᵢ = f₁ᵢ + Δᵢ) pair from the FCC hopping plan so every
//!   pairwise relay-to-relay feedback loop clears the Eq. 3 stability
//!   gate extended with an external-interferer term
//!   ([`rfly_core::relay::gains::is_stable_with_interferers`]).
//! * **Deduplicated inventory** ([`inventory`]) — run the unmodified
//!   reader stack against [`rfly_sim::medium::WorldMedium::fleet_planned`]
//!   through each relay in turn and merge the per-relay observation streams
//!   into one global EPC inventory with first-seen/last-seen and
//!   handoff bookkeeping. [`report`] renders the fleet tables.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod channels;
pub mod inventory;
pub mod partition;
pub mod report;

pub use channels::{assign, ChannelPlan, ChannelPlanError, PairMargin};
pub use inventory::{FleetInventory, MissionConfig, MissionOutcome, TagRecord};
pub use partition::{partition, Cell, Partition};

//! Energy-aware 24/7 fleet operations.
//!
//! The paper's drone relay has minutes of endurance; a warehouse wants
//! inventory served *continuously*. This crate turns one-shot missions
//! into an open-ended campaign:
//!
//! - [`energy`] — per-relay battery accounting: drain as a function of
//!   hover time, TX gain, and traffic served; charging on a dock.
//! - [`rotation`] — the duty roster and the make-before-break rotation
//!   planner: a standby relay swaps into a cell *before* the
//!   incumbent's reserve margin is breached, and an exhausted roster
//!   falls back onto the supervisor's repartition path
//!   ([`rfly_fleet::partition::partition`]) so coverage degrades
//!   gracefully instead of stranding a cell.
//! - [`campaign`] — the tick-driven continuous-operation loop: real
//!   inventory stops through the fleet medium, battery accounting,
//!   rotations, and the [`campaign::OpsReport`] the soak bench gates
//!   on (tags/hour, minimum coverage, rotation count).
//! - [`persist`] — crash-consistent campaign storage: [`CampaignRun`]
//!   as a [`rfly_chaos::Durable`] stepper (tick-log and checkpoint
//!   codecs), so the workspace's one durable-run engine persists it and
//!   `rfly_chaos::durable::recover` resumes it after power loss
//!   bit-identical to an uncrashed campaign.
//! - [`model`] — a zero-dependency exhaustive state-space checker over
//!   the abstracted supervisor + dock-rotation transition system: no
//!   reachable state strands a cell while a ready standby idles, leaves
//!   a serving relay on an empty battery, overflows a dock, exceeds the
//!   retry bound, or deadlocks.
//!
//! Everything is a pure function of its seed and configuration — the
//! same determinism contract the rest of the workspace holds.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod energy;
pub mod model;
pub mod persist;
pub mod rotation;

pub use campaign::{run_campaign, CampaignRun, OpsConfig, OpsReport, TickRecord};
pub use energy::{Battery, EnergyModel};
pub use model::{check, CheckResult, Counterexample, ModelConfig};
pub use persist::CampaignCheckpoint;
pub use rotation::{Duty, Roster, Rotation};

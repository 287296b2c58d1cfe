//! # rfly-sim — end-to-end RFly system simulation
//!
//! Glues every substrate into runnable experiments: warehouse [`scene`]s,
//! a phasor-level [`world`] whose single propagation core
//! ([`medium::WorldMedium`]) implements the reader's `Medium` trait
//! in every topology (direct, single relay, fleet) — cross-cutting
//! behaviors stack on it as `rfly_reader::medium` layers — plus
//! high-level [`endtoend`] scenarios
//! (fly → inventory → disentangle → localize), a seeded Monte-Carlo
//! [`experiment`] runner, and tabular [`report`] output for the
//! per-figure benchmark binaries. [`sample_link`] is the sample-level
//! IQ chain that serves as the phasor core's differential oracle, and
//! [`pool`] is the deterministic work pool every parallel path runs on
//! (results merge in task order; a worker panic re-raises on the
//! caller).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod endtoend;
pub mod experiment;
pub mod medium;
pub mod motion;
pub mod pool;
pub mod report;
pub mod sample_link;
pub mod scene;
pub mod world;

pub use endtoend::{Scenario, ScenarioBuilder, ScenarioOutcome};
pub use medium::{FleetRelay, FleetRf, WorldMedium};
pub use pool::{global_workers, set_global_workers, Pool};
pub use scene::Scene;
pub use world::PhasorWorld;

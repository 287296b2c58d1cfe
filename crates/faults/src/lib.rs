//! # rfly-faults
//!
//! Fault injection and degradation-aware mission supervision for the
//! RFly drone-relay system.
//!
//! The paper's evaluation flies in a clean world; this crate asks what
//! happens when the hardware misbehaves mid-mission — and what a
//! supervisor layered over the fleet can do about it. It provides:
//!
//! * [`schedule`] — seeded, deterministic fault schedules spanning every
//!   layer of the system: relay oscillators ([`FaultKind::PhaseGlitch`],
//!   [`FaultKind::CfoDrift`]), gain stages ([`FaultKind::GainDrift`],
//!   [`FaultKind::PaSag`]), the tag uplink ([`FaultKind::DeepFade`],
//!   [`FaultKind::NoiseBurst`]), the Gen2 transaction
//!   ([`FaultKind::Gen2Drop`]), and the carrier drone
//!   ([`FaultKind::TrackingDropout`], [`FaultKind::WindGust`],
//!   [`FaultKind::BatterySag`]).
//! * [`inject`] — [`RelayHealth`], the accumulated damage state of one
//!   relay, and [`FaultLayer`], a `rfly_reader::medium::MediumLayer`
//!   stacked over any [`rfly_reader::inventory::Medium`] that injects
//!   the uplink-visible faults at transaction granularity.
//! * [`supervisor`] — [`run_supervised`] /
//!   [`run_unsupervised`]: the same multi-relay inventory
//!   mission flown with and without the recovery ladder (retry with
//!   backoff, Δf re-assignment, gain trim, fleet re-partitioning with
//!   cell handoff, route holds, and coherence-gated SAR→RSSI
//!   localization fallback).
//! * [`log`] — the auditable [`ResilienceLog`]: every fault that struck
//!   and every recovery it triggered, cross-linked by event id.
//!
//! See `examples/fault_storm.rs` for the headline experiment: under a
//! standard fault storm a supervised 4-relay mission retains ≥80% of
//! the fault-free dedup read rate, while the unsupervised baseline
//! loses the dead relay's cell outright.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod inject;
pub mod log;
pub mod schedule;
pub mod supervisor;
pub mod text;

pub use inject::{FaultLayer, RelayHealth};
pub use log::{LoggedRecovery, RecoveryAction, ResilienceLog};
pub use schedule::{FaultEvent, FaultKind, FaultSchedule};
pub use supervisor::{
    run_supervised, run_unsupervised, LocMethod, LocalizationRecord, MissionEnv, MissionState,
    ReadRecord, ResilientOutcome, StepRecord, StepTrack, SupervisorConfig,
};
pub use text::ParseError;

//! # rfly-replay
//!
//! Deterministic record/replay and failure triage for supervised RFly
//! missions.
//!
//! The supervised mission stepper
//! ([`rfly_faults::supervisor::MissionState`]) is a pure function of
//! `(scenario, fault schedule)`; this crate turns that determinism into
//! tooling:
//!
//! * [`journal`] — the append-only **mission journal**: every fault
//!   strike, recovery action, pair margin, tag read, and RNG stream
//!   state, one compact text line per record, bit-exact on re-parse.
//! * [`checkpoint`] — **checkpoint/resume**: the full mission state
//!   (partition, channel plan, relay health, resilience log, RNG
//!   streams) serialized at a step boundary, so a mission killed at
//!   step *k* resumes bit-identically.
//! * [`divergence`] — the **divergence detector**: compare a journal
//!   against a live re-run (or another journal) and report the first
//!   diverging step and field.
//! * [`invariant`] — the mission **invariant harness**: coverage
//!   retention, the mutual-loop margin gate, and inventory sanity,
//!   checked against a fault-free baseline.
//! * [`shrink`](mod@shrink) — the **delta-debugging shrinker**: minimize a failing
//!   [`rfly_faults::FaultSchedule`] (drop events, weaken severities)
//!   while the invariant harness still flags the same violation, and
//!   emit a minimal repro file.
//! * [`runner`] — the [`runner::Scenario`] spec that rebuilds the
//!   identical mission from one line of text, the
//!   [`runner::MissionRun`] stepper, and the in-memory
//!   [`runner::run_full`] entry point over it.
//! * [`store`] — **crash-consistent persistence**: `MissionRun` as a
//!   [`rfly_chaos::Durable`] stepper, so the workspace's one durable-run
//!   engine journals it through the injectable [`rfly_chaos::Storage`]
//!   trait and [`store::recover_stored`] resumes a mission killed at any
//!   storage operation bit-identically. It is the one way to resume a
//!   killed mission.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod checkpoint;
pub mod divergence;
pub mod invariant;
pub mod journal;
pub mod runner;
pub mod shrink;
pub mod store;

pub use checkpoint::Checkpoint;
pub use divergence::{first_divergence, verify_replay, Divergence};
pub use invariant::{Invariant, InvariantHarness, Violation};
pub use journal::{Journal, Seal};
pub use runner::{run_full, Mission, MissionRun, Run, Scenario};
pub use shrink::{repro_to_text, shrink, ShrinkResult};
pub use store::{recover_stored, run_stored, salvage_journal, StorePaths};

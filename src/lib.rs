//! # RFly — drone relays for battery-free networks
//!
//! A complete Rust reproduction of *"Drone Relays for Battery-Free
//! Networks"* (Ma, Selby, Adib — SIGCOMM 2017): a phase-preserving,
//! bidirectionally full-duplex RFID relay mounted on a drone, plus a
//! through-relay synthetic-aperture localization algorithm, built on a
//! from-scratch EPC Gen2 / SDR / RF-propagation simulation stack.
//!
//! This facade crate re-exports the whole workspace under stable paths:
//!
//! * [`dsp`] — IQ arithmetic, oscillators, mixers, filters, FFT, noise.
//! * [`channel`] — geometry, path loss, multipath, antennas, link budgets.
//! * [`protocol`] — the EPC Gen2 air protocol (PIE, FM0, CRC,
//!   commands, anti-collision).
//! * [`tag`] — passive-tag physics: energy harvesting and backscatter.
//! * [`reader`] — an SDR RFID reader with complex channel estimation.
//! * [`core`] — **the paper's contribution**: the mirrored full-duplex
//!   relay and the through-relay SAR localization algorithm.
//! * [`drone`] — drone/robot platforms and flight plans.
//! * [`sim`] — scenes, end-to-end simulation, experiment harness.
//! * [`fleet`] — multi-relay coordination: coverage partitioning, Δf
//!   channel assignment, deduplicated warehouse-scale inventory.
//! * [`faults`] — seeded fault injection and the degradation-aware
//!   mission supervisor (retry, Δf re-tune, re-partitioning, SAR→RSSI
//!   localization fallback) with an auditable resilience log.
//! * [`replay`] — deterministic mission record/replay: the append-only
//!   mission journal, checkpoint/resume at step boundaries, the
//!   divergence detector, and the delta-debugging fault-schedule
//!   shrinker that minimizes failing storms to committed repro files.
//! * [`obs`] — zero-dependency structured instrumentation: monotonic
//!   counters, unit-typed histograms, ordered events and spans, and a
//!   deterministic text/JSON metric-report exporter (`results/obs/`).
//! * [`scenario`] — declarative scenario files: a hand-rolled
//!   TOML-subset parser with `file:line` diagnostics and a compiler
//!   lowering validated scenarios onto the fleet/faults stack
//!   (`scenarios/` holds the committed corpus).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete worked scenario; the short
//! version:
//!
//! ```
//! use rfly::prelude::*;
//!
//! // A reader ~40 m from a tag — 4–10× beyond direct RFID range —
//! // with a relay-carrying drone scanning near the tag.
//! let scenario = ScenarioBuilder::new()
//!     .reader_at(Point2::new(1.0, 1.0))
//!     .tag_at(Point2::new(40.0, 3.0))
//!     .flight_path(Trajectory::line(
//!         Point2::new(38.0, 1.0),
//!         Point2::new(41.0, 1.0),
//!         31,
//!     ))
//!     .seed(7)
//!     .build();
//!
//! let outcome = scenario.run();
//! assert!(outcome.read_rate() > 0.9);
//! let est = outcome.localization().expect("tag localized");
//! assert!(est.error_m < 0.5);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod error;

pub use error::RflyError;

pub use rfly_channel as channel;
pub use rfly_chaos as chaos;
pub use rfly_core as core;
pub use rfly_drone as drone;
pub use rfly_dsp as dsp;
pub use rfly_faults as faults;
pub use rfly_fleet as fleet;
pub use rfly_obs as obs;
pub use rfly_ops as ops;
pub use rfly_protocol as protocol;
pub use rfly_reader as reader;
pub use rfly_replay as replay;
pub use rfly_scenario as scenario;
pub use rfly_sim as sim;
pub use rfly_tag as tag;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use rfly_channel::geometry::Point2;
    pub use rfly_core::loc::sar::SarLocalizer;
    pub use rfly_core::loc::trajectory::Trajectory;
    pub use rfly_core::relay::{Relay, RelayConfig};
    pub use rfly_dsp::units::{Db, Dbm, Hertz};
    pub use rfly_dsp::Complex;
    pub use rfly_sim::endtoend::{Scenario, ScenarioBuilder, ScenarioOutcome};
}

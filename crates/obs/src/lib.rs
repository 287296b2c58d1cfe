//! # rfly-obs — structured, replay-safe mission instrumentation
//!
//! A zero-dependency event sink for the layered medium stack: spans,
//! monotonic counters, and unit-typed histograms (`Db` / `Meters` /
//! `Seconds` from `rfly-dsp::units`), recorded in a deterministic
//! logical order with **no wall clock anywhere**. Because every record
//! is keyed by a logical sequence number instead of a timestamp, a
//! replayed mission produces a byte-identical metric report to the live
//! run — the property `rfly-replay` pins in its tests.
//!
//! Instrumentation is *disabled by default*: every probe is a
//! thread-local `Option` check when no [`Recorder`] is installed, which
//! is what keeps the zero-fault hot path inside the
//! `ext_fault_overhead` budget. A driver (example, bench, test) opts in
//! around a mission:
//!
//! ```
//! let rec = rfly_obs::Recorder::new("demo-mission");
//! rfly_obs::install(rec);
//! rfly_obs::counter_add("demo.steps", 1);
//! rfly_obs::observe_db("demo.margin_db", rfly_dsp::units::Db::new(12.5));
//! let rec = rfly_obs::take().unwrap();
//! let report = rfly_obs::report::Report::from_recorder(&rec);
//! assert!(report.render_text().contains("demo.steps"));
//! ```
//!
//! The recorder is **per-thread**: worker threads of a parallel sweep
//! record nothing unless they install their own recorder, so
//! instrumentation can never introduce cross-thread ordering
//! nondeterminism.
//!
//! * [`record`] — the recorder, events, counters, histograms, spans.
//! * [`report`] — the text/JSON exporter writing `results/obs/` files.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod record;
pub mod report;

pub use record::{
    absorb, counter_add, event, fork, install, is_active, observe_db, span, take, Event, Histogram,
    Recorder, SpanGuard, Value,
};
pub use report::Report;

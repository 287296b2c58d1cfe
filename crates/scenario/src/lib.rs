//! Declarative scenarios for the RFly simulator.
//!
//! A scenario file is a small TOML-shaped document describing a whole
//! experiment — world geometry, the relay fleet, tag populations with
//! typed units, the fault schedule, and mission pacing. This crate
//! supplies the two layers that turn such a file into a flyable
//! mission:
//!
//! 1. **Parse** ([`toml`], [`schema`]): a hand-rolled zero-dependency
//!    parser for the TOML subset scenarios use, plus a strict schema
//!    that fills defaults and rejects malformed input with `file:line`
//!    diagnostics (duplicate relay IDs, overlapping cells,
//!    out-of-bounds tags, unknown keys).
//! 2. **Compile** ([`compile()`]): lowering a validated [`ScenarioSpec`]
//!    into the existing simulator types — a [`rfly_sim::scene::Scene`],
//!    a [`rfly_fleet::channels::ChannelPlan`], a
//!    [`rfly_faults::FaultSchedule`], and a mission configuration. The
//!    medium pipeline underneath is untouched; scenarios are a front
//!    end, not a new physics path.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

use std::fmt;

pub mod compile;
pub mod schema;
pub mod toml;

pub use compile::{compile, CompiledScenario};
pub use schema::{
    FaultEventSpec, FaultsSpec, InterfererSpec, MissionSpec, Placement, Platform, RelaySpec,
    ScenarioSpec, TagGroupSpec, WorldSpec,
};

/// A scenario diagnostic carrying its source location.
///
/// `file` is the label passed to [`parse_str_named`] (or the path given
/// to [`load`]); it is empty for anonymous in-memory sources. `line` is
/// 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Source label (file path), empty when parsing anonymous text.
    pub file: String,
    /// 1-based source line the diagnostic points at.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ScenarioError {
    /// A diagnostic at `line` with no file label yet.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            file: String::new(),
            line,
            message: message.into(),
        }
    }

    /// The same diagnostic labeled with its source file.
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.file = file.into();
        self
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file.is_empty() {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Parses and validates scenario text.
pub fn parse_str(src: &str) -> Result<ScenarioSpec, ScenarioError> {
    schema::from_document(&toml::parse(src)?)
}

/// [`parse_str`] with a source label attached to any diagnostic.
pub fn parse_str_named(src: &str, label: &str) -> Result<ScenarioSpec, ScenarioError> {
    parse_str(src).map_err(|e| e.with_file(label))
}

/// Loads and validates a scenario file. I/O failures surface as a
/// line-0 diagnostic carrying the path.
pub fn load(path: &std::path::Path) -> Result<ScenarioSpec, ScenarioError> {
    let label = path.display().to_string();
    let src = std::fs::read_to_string(path).map_err(|e| {
        ScenarioError::new(0, format!("cannot read scenario: {e}")).with_file(&label)
    })?;
    parse_str_named(&src, &label)
}

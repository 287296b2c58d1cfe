//! # rfly-channel — RF propagation substrate for RFly
//!
//! Models everything between antennas: geometry, free-space path loss,
//! first-order image-method specular multipath off walls and shelves,
//! obstruction (NLoS) attenuation, antenna polarization and mutual
//! coupling, and link budgets. The paper's evaluation outcomes — read
//! range (Fig. 11), localization error vs distance (Fig. 14), ghost
//! peaks under multipath (Fig. 6b) — are all downstream of this crate.
//!
//! The central abstraction is the [`phasor::PathSet`]: a set of
//! propagation paths, each with a length and amplitude, whose channel at
//! a frequency `f` is `h(f) = Σ_i a_i · e^{−j2πf d_i/c}` — the paper's
//! Eq. 8 half-link factors.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod antenna;
pub mod environment;
pub mod geometry;
pub mod link;
pub mod pathloss;
pub mod phasor;

pub use geometry::Point2;
pub use phasor::{Path, PathSet};

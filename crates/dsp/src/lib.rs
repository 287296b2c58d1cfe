//! # rfly-dsp — digital signal processing substrate for RFly
//!
//! This crate provides every signal-processing primitive the RFly
//! reproduction needs, implemented from scratch:
//!
//! * [`Complex`] baseband IQ arithmetic and [`buffer`] helpers,
//! * numerically-controlled oscillators and frequency synthesizers with
//!   phase noise and carrier-frequency offset ([`osc`]),
//! * up/down-conversion mixers ([`mixer`]),
//! * FIR filter design (Kaiser-windowed sinc) ([`filter`]),
//! * a radix-2 FFT, Goertzel single-bin DFT and Welch spectral estimation
//!   ([`fft`], [`goertzel`], [`spectrum`]),
//! * additive white Gaussian noise ([`noise`]),
//! * decibel/dBm/Hz unit types and physical constants ([`units`]),
//! * the workspace's shortest round-trip float writer, byte-identical
//!   to `Display` ([`decimal`]).
//!
//! The design follows the smoltcp school: no heap-allocating trait objects
//! in hot paths, no macros, plain data structures that are easy to audit.
//! Everything is deterministic given a seeded RNG.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod buffer;
pub mod cast;
pub mod complex;
pub mod decimal;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod mixer;
pub mod noise;
pub mod osc;
pub mod rng;
pub mod spectrum;
pub mod units;

pub use complex::Complex;
pub use units::{Db, Dbm, Hertz, SPEED_OF_LIGHT};

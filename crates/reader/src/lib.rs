//! # rfly-reader — a software-defined EPC Gen2 RFID reader
//!
//! The paper implements its reader on USRP N210s, adapting the
//! fully-coherent Gen2 reader of Kargas et al. \[26\], because commercial
//! readers cannot report clean full-cycle phase (§6.3). This crate is
//! the Rust equivalent: PIE query synthesis, coherent FM0/Miller
//! demodulation, and — the part localization lives or dies on —
//! per-read *complex channel estimation*.
//!
//! * [`config`] — reader configuration (power, frequency, timing).
//! * [`hopping`] — FCC 902–928 MHz channel hopping.
//! * [`waveform`] — command → IQ waveform synthesis.
//! * [`decoder`] — coherent reply decoding + channel estimation.
//! * [`inventory`] — the Q-algorithm inventory controller over an
//!   abstract [`inventory::Medium`], producing [`inventory::TagRead`]s
//!   (EPC + complex channel + SNR) for the localizer.
//! * [`medium`] — the composable middleware stack over [`Medium`]:
//!   cross-cutting behaviors (fault injection, instrumentation,
//!   journal taps) are [`medium::MediumLayer`]s stacked with
//!   [`medium::MediumExt::layer`] over one shared propagation core.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod config;
pub mod decoder;
pub mod hopping;
pub mod inventory;
pub mod medium;
pub mod waveform;

pub use config::ReaderConfig;
pub use inventory::{InventoryController, Medium, Observation, TagRead};
pub use medium::{Layered, MediumExt, MediumLayer, ObsLayer, Tap};

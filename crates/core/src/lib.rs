//! # rfly-core — the RFly system: drone relays for battery-free networks
//!
//! This crate implements the two contributions of *"Drone Relays for
//! Battery-Free Networks"* (SIGCOMM 2017):
//!
//! 1. **The relay** ([`relay`]): the first phase-preserving,
//!    bidirectionally full-duplex relay for backscatter networks. It
//!    separates uplink from downlink with baseband filters exploiting
//!    the Gen2 guard band (§4.2), avoids intra-link oscillation with an
//!    out-of-band frequency shift (§4.3), and cancels the phase/CFO
//!    distortion that shift would cause with a *mirrored* architecture —
//!    the uplink upconverts with the very synthesizer the downlink used
//!    to downconvert.
//!
//! 2. **Through-relay localization** ([`loc`]): synthetic aperture radar
//!    over the drone's trajectory, made possible by (a) disentangling
//!    the reader–relay and relay–tag phase half-links using an RFID
//!    embedded in the relay (Eq. 10) and (b) rejecting multipath ghosts
//!    by picking the candidate peak *nearest the trajectory* (§5.2).
//!
//! Everything here runs on the substrates in `rfly-dsp`,
//! `rfly-channel`, `rfly-protocol`, `rfly-tag` and `rfly-reader`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod loc;
pub mod relay;

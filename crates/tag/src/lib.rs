//! # rfly-tag — passive RFID tag physics
//!
//! Wraps the pure protocol engine of `rfly-protocol` in the physics that
//! make passive tags *passive*: an RF energy [`harvester`] with the
//! −15 dBm power-up threshold the paper cites \[12\]. The combination —
//! a [`tag::PassiveTag`] — is what the relay must power up and whose
//! reflections it must forward. The backscatter reflection itself is one
//! gain in the phasor core ([`rfly_channel::link::Backscatter`]).
//!
//! The range asymmetry central to the paper lives here: a tag only
//! *hears* if the incident carrier clears the harvester threshold
//! (limiting the downlink to a few meters), while its reply is limited
//! only by the receiver's sensitivity.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod harvester;
pub mod population;
pub mod tag;

pub use tag::PassiveTag;

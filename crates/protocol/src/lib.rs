//! # rfly-protocol — the EPC Class-1 Generation-2 air protocol
//!
//! RFly's relay is *transparent to the RFID protocol* (§1 of the paper):
//! it forwards EPC Gen2 traffic between unmodified readers and
//! unmodified tags. Reproducing that claim requires an actual Gen2
//! implementation on both ends, so this crate provides one from scratch:
//!
//! * [`bits`] — a bit-level message buffer,
//! * [`error`] — the protocol error taxonomy ([`ProtocolError`]),
//! * [`crc`] — the Gen2 CRC-5 and CRC-16 (ISO/IEC 13239),
//! * [`commands`] — encode/decode for the inventory commands: Query,
//!   QueryAdjust, QueryRep, ACK, NAK and Select,
//! * [`pie`] — pulse-interval encoding of the reader's downlink at a
//!   90 % modulation depth,
//! * [`fm0`] — the tag's backscatter line code,
//! * [`timing`] — the one link profile as constants: Tari 12.5 µs,
//!   RTcal 2.5·Tari and a TRcal that gives a 500 kHz backscatter link
//!   frequency at DR = 64/3, with T1 and T4,
//! * [`epc`] — EPCs, PC words and reply frames,
//! * [`session`] — sessions and inventoried flags,
//! * [`qalgo`] — the reader-side Q anti-collision algorithm (Q₀ = 4,
//!   C = 0.3, Q ∈ \[0, 15\]),
//! * [`tag_state`] — the tag-side inventory state machine (Ready,
//!   Arbitrate, Reply, Acknowledged).
//!
//! All of it is pure logic over bits and samples; RF physics lives in
//! `rfly-channel`, `rfly-tag` and `rfly-reader`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod bits;
pub mod commands;
pub mod crc;
pub mod epc;
pub mod error;
pub mod fm0;
pub mod pie;
pub mod qalgo;
pub mod session;
pub mod tag_state;
pub mod timing;

pub use bits::Bits;
pub use commands::Command;
pub use epc::Epc;
pub use error::ProtocolError;

#![deny(missing_docs)]
//! # rfly-chaos
//!
//! The crash-consistency harness for the workspace's storage seam.
//!
//! Before the inventory daemon can promote rfly-replay's journal to
//! "the durable log", the storage layer needs a crash model and a proof
//! of recovery. This crate supplies both:
//!
//! * [`storage`] — the injectable [`storage::Storage`] trait every
//!   durable writer in the workspace goes through (journal appends,
//!   atomic checkpoint replacement, repro emission), with a real
//!   filesystem backend ([`storage::DiskStorage`], whose
//!   `write_atomic` is write-temp-then-rename) and a deterministic
//!   in-memory backend ([`storage::MemStorage`]) for simulation.
//! * [`fault`] — the seeded crash model: [`fault::ChaosStorage`] wraps
//!   a [`storage::MemStorage`] and kills the "process" at an exact
//!   storage operation with an exact failure semantics — a torn write
//!   (a byte prefix of the final sequence survives), a lost-but-acked
//!   write (the caller saw success, the medium kept nothing), a
//!   duplicated append, or a clean cut after the op landed.
//! * [`durable`] — the durable-run engine: the one journal salvage,
//!   run and recover implementation. A deterministic stepper implements
//!   [`durable::Durable`] (block and checkpoint codecs plus `step`);
//!   `rfly-replay`'s missions and `rfly-ops`' campaigns are two such
//!   steppers.
//! * [`verify`] — the crash-matrix driver: enumerate a crash point at
//!   *every* mutating storage call site of a workload × every fault
//!   kind, run the workload into each crash, hand the surviving bytes
//!   to the workload's recovery routine, and assert the completed run
//!   is bit-identical to an uncrashed reference run.
//!
//! The harness is generic over the workload — it knows bytes and
//! operations, not journals — and the engine is generic over the
//! stepper, so neither depends on the crates that plug into them. The
//! `crash_matrix` bench gates "every crash point recovers" in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod fault;
pub mod storage;
pub mod verify;

pub use durable::{Durable, Salvage, StorePaths};
pub use fault::{ChaosStorage, CrashKind, CrashPoint};
pub use storage::{DiskStorage, MemStorage, Storage, StorageError};
pub use verify::{enumerate_crash_points, verify_recovery, CrashFailure, CrashReport};

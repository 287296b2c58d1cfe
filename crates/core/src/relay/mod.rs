//! The RFly relay: phase-preserving, bidirectionally full-duplex
//! forwarding for backscatter networks (§4 and §6.1 of the paper).
//!
//! Architecture (Fig. 8): two analog forwarding paths, each built from a
//! downconversion mixer, a baseband filter, a variable-gain stage and an
//! upconversion mixer.
//!
//! * The **downlink** path receives the reader's query at `f₁`,
//!   downconverts to baseband, low-pass filters at 100 kHz (passing the
//!   PIE query, blocking everything else), amplifies and retransmits at
//!   `f₂ = f₁ + Δ`.
//! * The **uplink** path receives the tag's backscatter around `f₂`,
//!   downconverts, band-pass filters around the 500 kHz subcarrier,
//!   amplifies and retransmits around `f₁`.
//!
//! Self-interference is handled by construction: the baseband filters
//! provide *inter-link* isolation (each path rejects the other's band),
//! and the `Δ` frequency shift provides *intra-link* isolation (a
//! path's output is out-of-band to its own input). The residual
//! same-frequency feed-through — board coupling and mixer leakage — is
//! modelled as an explicit bypass term and is what the intra-link
//! measurements of Fig. 9 observe.
//!
//! Phase preservation comes from the **mirrored** wiring: the uplink's
//! upconversion mixer shares the downlink's downconversion synthesizer
//! (and vice versa), so the unknown trajectory `φ'(t) = 2π(f−f')t + φ`
//! added on the downlink is subtracted exactly on the uplink (§4.3).
//!
//! The paper builds one board, so there is one hardware profile:
//! [`RelayConfig`] holds the five values an experiment varies (the
//! mirror, the uplink BPF width, and the filter stopbands and their
//! tolerance), and every other board value is an associated constant of
//! it, read by the sample-level chain here, by the analog baseline and by
//! the phasor model in `rfly-sim`.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod analog_baseline;
pub mod components;
pub mod freq_discovery;
pub mod gains;
pub mod isolation;
pub mod path;
#[allow(clippy::module_inception)]
pub mod relay;

pub use gains::GainPlan;
pub use relay::{Relay, RelayConfig};

//! Through-relay localization (§5 of the paper).
//!
//! Pipeline: the reader collects per-read complex channels for the
//! target tag *and* the relay-embedded tag along the drone's trajectory
//! → [`disentangle::paired_reads`] pairs them position by position →
//! [`disentangle::isolate_track`] divides them to isolate the relay–tag
//! half-link (Eq. 10) and keeps the track only if at least
//! [`disentangle::MIN_TRACK_LEN`] positions survive → [`sar`] projects
//! the isolated channels onto a 2D grid (Eq. 11–12) → [`peaks`] picks
//! the candidate nearest the trajectory to reject multipath ghosts
//! (§5.2). [`rssi`] provides the RSSI baseline the paper compares
//! against in Figs. 13–14.

pub mod disentangle;
pub mod error;
pub mod heatmap;
pub mod peaks;
pub mod rssi;
pub mod sar;
pub mod selfloc;
pub mod trajectory;

pub use disentangle::disentangle;
pub use sar::SarLocalizer;
pub use trajectory::Trajectory;

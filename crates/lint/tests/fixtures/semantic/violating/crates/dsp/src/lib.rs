#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! R9 planted violation, panic side: the helper `core::mission_step`
//! reaches. The `unwrap()` is legal under clippy's R1 levels (dsp is not
//! a supervised crate) — only whole-program reachability sees it.

/// Decodes a frame, panicking when it is absent.
pub fn decode_frame(frame: Option<u32>) -> u32 {
    frame.unwrap()
}

//! The protocol-layer error taxonomy.
//!
//! The coders have invariants (a positive sample rate, edges shorter
//! than the low pulse, in-bounds bit ranges) that the original code
//! enforced with `assert!`/`panic!`. Panics are fine for programmer
//! errors but wrong for data errors: once the fault-injection layer can
//! corrupt frames and truncate bursts, every data-driven path must
//! return a value the caller can route to "tag stays silent" or "decode
//! miss". This module is that value.

use std::fmt;

/// Errors raised by the Gen2 protocol layer.
///
/// Construction errors ([`ProtocolError::NonPositiveSampleRate`],
/// [`ProtocolError::OversizeEdge`]) reject illegal encoder
/// configurations; the data error [`ProtocolError::BitRange`] rejects
/// malformed frames.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The encoder sample rate must be positive.
    NonPositiveSampleRate(f64),
    /// Envelope edge time must be non-negative and shorter than PW.
    OversizeEdge {
        /// Requested edge time, seconds.
        edge_s: f64,
        /// The encoder's low-pulse width, seconds.
        pw_s: f64,
    },
    /// A bit-field access fell outside the frame.
    BitRange {
        /// Field offset, bits.
        offset: usize,
        /// Field width, bits.
        width: usize,
        /// Frame length, bits.
        len: usize,
    },
    /// A capture held no decodable PIE frame — a decode miss, the
    /// expected outcome for truncated, corrupted, or frameless input.
    NoFrame,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NonPositiveSampleRate(fs) => {
                write!(f, "sample rate must be positive (got {fs})")
            }
            ProtocolError::OversizeEdge { edge_s, pw_s } => {
                write!(f, "edge time {edge_s} s must be in [0, PW = {pw_s} s)")
            }
            ProtocolError::BitRange { offset, width, len } => {
                write!(
                    f,
                    "bit range [{offset}, {offset}+{width}) out of bounds for a {len}-bit frame"
                )
            }
            ProtocolError::NoFrame => {
                write!(f, "no decodable PIE frame in the capture")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_the_offending_values() {
        let e = ProtocolError::BitRange {
            offset: 16,
            width: 8,
            len: 20,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("16") && msg.contains('8') && msg.contains("20"),
            "{msg}"
        );
        let e = ProtocolError::OversizeEdge {
            edge_s: 7e-6,
            pw_s: 6.25e-6,
        };
        assert!(e.to_string().contains("7"), "{e}");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(ProtocolError::NonPositiveSampleRate(-1.0));
        assert!(e.to_string().contains("positive"));
    }
}

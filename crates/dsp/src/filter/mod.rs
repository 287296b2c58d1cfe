//! Filter design and filtering.
//!
//! §4.2 of the paper: the relay separates the reader's query (≤125 kHz
//! around the carrier) from the tag's backscatter response (subcarrier up
//! to 640 kHz) with *baseband* filters — a 100 kHz low-pass on the
//! downlink and a band-pass centered at 500 kHz on the uplink. The
//! achieved stopband attenuation of those filters directly sets the
//! inter-link isolation measured in Fig. 9, so this module designs real
//! filters with controllable attenuation (Kaiser-windowed sinc FIR) and
//! measures their response rather than assuming ideal bricks.

pub mod fir;
pub mod window;

pub use fir::{FirDesign, FirFilter};

//! The planted tree's clean twin: the unit lives in the type, not the
//! name.

use rfly_dsp::units::Hertz;

/// Tunes the synthesizer.
pub fn tune(freq: Hertz) -> Hertz {
    Hertz(freq.as_hz() * 2.0)
}

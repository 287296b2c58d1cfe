//! Planted R3 violation: a unit-suffixed public parameter as raw f64.
//! The only finding in this tree; its `conforming` twin has none.

/// Tunes the synthesizer.
pub fn tune(freq_hz: f64) -> f64 {
    freq_hz * 2.0
}

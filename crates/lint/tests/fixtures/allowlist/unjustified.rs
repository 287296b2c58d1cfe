//! Allowlist fixture: an allow without a justification is itself a
//! violation.

/// Sets the carrier.
// rfly-lint: allow(unit-newtypes)
pub fn tune(freq_hz: f64) -> f64 {
    freq_hz
}

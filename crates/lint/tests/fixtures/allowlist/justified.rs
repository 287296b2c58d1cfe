//! Allowlist fixture: a justified allow suppresses the finding.

/// Sets the carrier.
// rfly-lint: allow(unit-newtypes) -- fixture: a raw-f64 seam kept on purpose.
pub fn tune(freq_hz: f64) -> f64 {
    freq_hz
}

//! Allowlist fixture: an allow that suppresses nothing has expired and
//! must be removed.

/// Sets the carrier.
// rfly-lint: allow(unit-newtypes) -- fixture: the parameter is typed now.
pub fn tune(freq: Hertz) -> Hertz {
    freq
}

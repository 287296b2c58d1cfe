//! The conforming twin of the clippy gate's planted package: the same
//! crate-root levels, code that honours them, and the two sanctioned
//! escape hatches — test code, and a justified `#[expect]`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::print_stdout,
    clippy::print_stderr
)]

use std::collections::BTreeMap;
use std::fmt::Write;

/// Errors become values, not panics.
pub fn total(x: Option<u32>, y: Result<u32, ()>) -> Option<u32> {
    Some(x? + y.ok()?)
}

/// Checked conversion instead of a truncating cast.
pub fn narrow(x: u64) -> Option<u32> {
    u32::try_from(x).ok()
}

/// Text is appended into the caller's buffer, not pushed as a fresh
/// `format!` string.
pub fn append(out: &mut String, x: f64) {
    let _ = write!(out, " {x}");
}

/// Ordered maps iterate deterministically.
pub fn histogram(xs: &[u32]) -> BTreeMap<u32, usize> {
    let mut h = BTreeMap::new();
    for &x in xs {
        *h.entry(x).or_insert(0) += 1;
    }
    h
}

/// A justified exemption: removing the `expect` call fails the gate
/// through `unfulfilled_lint_expectations`.
#[expect(clippy::expect_used, reason = "the slice is checked non-empty above")]
pub fn first(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    *xs.first().expect("non-empty")
}

/// A justified `panic!`, exempted the same way.
#[expect(
    clippy::panic,
    reason = "callers pass a sign; any other value is a programming error"
)]
pub fn sign(x: i8) -> i8 {
    match x {
        -1..=1 => x,
        other => panic!("not a sign: {other}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!(super::total(Some(1), Ok(2)).unwrap(), 3);
    }

    #[test]
    fn tests_may_panic() {
        let Some(t) = super::total(Some(1), Ok(2)) else {
            panic!("total of two values");
        };
        assert_eq!(t, 3);
    }
}

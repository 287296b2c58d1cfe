//! Checked float→integer conversions for hot-path code.
//!
//! The workspace rule R2 (clippy's `cast_possible_truncation`,
//! `cast_sign_loss` and `cast_possible_wrap`, denied at this crate's
//! root and on `core::relay`) forbids lossy `as` integer casts in DSP
//! and relay hot paths because `as` silently
//! saturates, truncates, and swallows NaN. These helpers are the single
//! audited seam: they assert the value is finite and representable, so
//! a bad sample count or filter length fails loudly at the conversion
//! site instead of corrupting a buffer size downstream.

/// `x.ceil()` as a `usize`, asserting the result is representable.
pub fn ceil_usize(x: f64) -> usize {
    to_usize(x.ceil())
}

/// `x.floor()` as a `usize`, asserting the result is representable.
pub fn floor_usize(x: f64) -> usize {
    to_usize(x.floor())
}

/// The checked conversion backing the rounding helpers.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the audited seam: the range is asserted above"
)]
fn to_usize(x: f64) -> usize {
    assert!(
        x.is_finite() && x >= 0.0 && x <= usize::MAX as f64,
        "float→usize conversion out of range: {x}"
    );
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_modes() {
        assert_eq!(ceil_usize(3.2), 4);
        assert_eq!(floor_usize(3.9), 3);
        assert_eq!(ceil_usize(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn negative_rejected() {
        let _ = floor_usize(-1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nan_rejected() {
        let _ = ceil_usize(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn infinity_rejected() {
        let _ = ceil_usize(f64::INFINITY);
    }
}

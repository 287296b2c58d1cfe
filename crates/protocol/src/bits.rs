//! A bit-level message buffer.
//!
//! Gen2 frames are not byte-aligned — a Query is 22 bits, an ACK is 18 —
//! so commands are assembled and parsed as explicit bit sequences.
//! `Bits` is a thin, MSB-first wrapper around `Vec<bool>` with
//! fixed-width integer append/extract helpers.

use std::fmt;

use crate::error::ProtocolError;

/// An ordered sequence of bits, most-significant-first within each
/// appended field.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Bits {
    bits: Vec<bool>,
}

impl Bits {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        Self {
            bits: bits.to_vec(),
        }
    }

    /// Builds from a `0`/`1` string; other characters are rejected.
    /// Handy for spec-quoted test vectors.
    #[expect(
        clippy::panic,
        reason = "the argument is a spec-quoted literal in the program; a bad character is a typo, not an input"
    )]
    pub fn from_str01(s: &str) -> Self {
        let bits = s
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid bit character {other:?}"),
            })
            .collect();
        Self { bits }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The raw bits.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the low `width` bits of `value`, MSB first.
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width exceeds u64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Appends all bits from another buffer.
    pub fn extend(&mut self, other: &Bits) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// Reads `width` bits starting at `offset` as an MSB-first integer.
    /// Panics if the range is out of bounds (caller validated framing).
    #[expect(
        clippy::expect_used,
        reason = "documented contract: callers validate framing first; try_uint_at is the seam for untrusted frames."
    )]
    pub fn uint_at(&self, offset: usize, width: usize) -> u64 {
        self.try_uint_at(offset, width)
            .expect("bit range out of bounds")
    }

    /// Fallible [`Self::uint_at`]: rejects out-of-bounds ranges instead
    /// of panicking, for frames whose length an attacker (or the fault
    /// injector) controls.
    pub fn try_uint_at(&self, offset: usize, width: usize) -> Result<u64, ProtocolError> {
        if width > 64 || offset + width > self.bits.len() {
            return Err(ProtocolError::BitRange {
                offset,
                width,
                len: self.bits.len(),
            });
        }
        let mut v = 0u64;
        for i in 0..width {
            v = (v << 1) | self.bits[offset + i] as u64;
        }
        Ok(v)
    }

    /// The sub-range `[offset, offset + len)` as a new buffer.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: callers validate framing first; try_slice is the seam for untrusted frames."
    )]
    pub fn slice(&self, offset: usize, len: usize) -> Bits {
        self.try_slice(offset, len)
            .expect("bit range out of bounds")
    }

    /// Fallible [`Self::slice`]: rejects out-of-bounds ranges instead of
    /// panicking.
    pub fn try_slice(&self, offset: usize, len: usize) -> Result<Bits, ProtocolError> {
        if offset + len > self.bits.len() {
            return Err(ProtocolError::BitRange {
                offset,
                width: len,
                len: self.bits.len(),
            });
        }
        Ok(Bits {
            bits: self.bits[offset..offset + len].to_vec(),
        })
    }

    /// Packs into bytes, MSB-first, zero-padding the final partial byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bits
            .chunks(8)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << (7 - i)))
            })
            .collect()
    }

    /// Unpacks `n_bits` from a byte slice, MSB-first.
    pub fn from_bytes(bytes: &[u8], n_bits: usize) -> Self {
        assert!(n_bits <= bytes.len() * 8, "not enough bytes");
        let bits = (0..n_bits)
            .map(|i| (bytes[i / 8] >> (7 - i % 8)) & 1 == 1)
            .collect();
        Self { bits }
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.bits.iter().enumerate() {
            if i > 0 && i % 8 == 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", *b as u8)?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for Bits {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        Bits {
            bits: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Bits {
    type Item = bool;
    type IntoIter = std::vec::IntoIter<bool>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.into_iter()
    }
}

impl<'a> IntoIterator for &'a Bits {
    type Item = &'a bool;
    type IntoIter = std::slice::Iter<'a, bool>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_uint_msb_first() {
        let mut b = Bits::new();
        b.push_uint(0b1010, 4);
        assert_eq!(b.as_slice(), &[true, false, true, false]);
    }

    #[test]
    fn uint_roundtrip() {
        let mut b = Bits::new();
        b.push_uint(0x2C3, 12);
        b.push_uint(0x5, 3);
        assert_eq!(b.len(), 15);
        assert_eq!(b.uint_at(0, 12), 0x2C3);
        assert_eq!(b.uint_at(12, 3), 0x5);
    }

    #[test]
    fn from_str01_ignores_whitespace() {
        let b = Bits::from_str01("1000 1001");
        assert_eq!(b.len(), 8);
        assert_eq!(b.uint_at(0, 8), 0b1000_1001);
    }

    #[test]
    #[should_panic(expected = "invalid bit")]
    fn from_str01_rejects_garbage() {
        let _ = Bits::from_str01("10x1");
    }

    #[test]
    fn byte_packing_roundtrip() {
        let b = Bits::from_str01("10110011 01");
        let bytes = b.to_bytes();
        assert_eq!(bytes, vec![0b1011_0011, 0b0100_0000]);
        let back = Bits::from_bytes(&bytes, 10);
        assert_eq!(back, b);
    }

    #[test]
    fn slice_and_extend() {
        let mut b = Bits::from_str01("110");
        b.extend(&Bits::from_str01("01"));
        assert_eq!(b, Bits::from_str01("11001"));
        assert_eq!(b.slice(1, 3), Bits::from_str01("100"));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_value_rejected() {
        let mut b = Bits::new();
        b.push_uint(16, 4);
    }

    #[test]
    fn display_groups_by_byte() {
        let b = Bits::from_str01("101100110");
        assert_eq!(format!("{b}"), "10110011 0");
    }

    #[test]
    fn iteration() {
        let b = Bits::from_str01("101");
        let v: Vec<bool> = (&b).into_iter().copied().collect();
        assert_eq!(v, vec![true, false, true]);
        let c: Bits = v.into_iter().collect();
        assert_eq!(c, b);
    }

    #[test]
    fn try_accessors_reject_out_of_bounds_without_panicking() {
        let b = Bits::from_str01("10110");
        assert_eq!(b.try_uint_at(1, 3).unwrap(), 0b011);
        assert_eq!(b.try_slice(2, 3).unwrap(), Bits::from_str01("110"));
        assert!(matches!(
            b.try_uint_at(3, 4),
            Err(ProtocolError::BitRange {
                offset: 3,
                width: 4,
                len: 5
            })
        ));
        assert!(b.try_slice(0, 6).is_err());
        assert!(b.try_uint_at(0, 65).is_err(), "width > 64 rejected");
        // Empty buffers: zero-width reads succeed, anything else errors.
        let empty = Bits::new();
        assert_eq!(empty.try_uint_at(0, 0).unwrap(), 0);
        assert!(empty.try_uint_at(0, 1).is_err());
    }

    #[test]
    fn full_width_push() {
        let mut b = Bits::new();
        b.push_uint(u64::MAX, 64);
        assert_eq!(b.uint_at(0, 64), u64::MAX);
    }
}

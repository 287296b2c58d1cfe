//! Electronic Product Codes and tag reply frames.
//!
//! A Gen2 tag answers an ACK with `{PC, EPC, PacketCRC}`: a 16-bit
//! protocol-control word, the EPC itself (96 bits for the Alien Squiggle
//! tags the paper uses), and a CRC-16 over both. The reader-side
//! database that maps EPCs to physical objects (§3) keys off this value.

use std::fmt;

use crate::bits::Bits;
use crate::crc::{append_crc16, check_crc16};

/// A 96-bit EPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Epc(pub [u8; 12]);

impl Epc {
    /// Builds an EPC from raw bytes.
    pub const fn new(bytes: [u8; 12]) -> Self {
        Self(bytes)
    }

    /// A deterministic test EPC derived from an index — handy for
    /// generating tag populations in simulations.
    pub fn from_index(index: u64) -> Self {
        let mut b = [0u8; 12];
        b[..4].copy_from_slice(b"RFLY");
        b[4..].copy_from_slice(&index.to_be_bytes());
        Self(b)
    }

    /// The EPC as bits (96, MSB-first).
    pub fn to_bits(self) -> Bits {
        Bits::from_bytes(&self.0, 96)
    }

    /// Parses 96 bits into an EPC.
    pub fn from_bits(bits: &Bits) -> Option<Self> {
        if bits.len() != 96 {
            return None;
        }
        let bytes = bits.to_bytes();
        let mut b = [0u8; 12];
        b.copy_from_slice(&bytes);
        Some(Self(b))
    }
}

impl fmt::Display for Epc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, byte) in self.0.iter().enumerate() {
            if i > 0 && i % 2 == 0 {
                write!(f, "-")?;
            }
            write!(f, "{byte:02X}")?;
        }
        Ok(())
    }
}

/// The protocol-control word for a plain 96-bit EPC: length field 6
/// (six 16-bit words follow), no user memory indicator, no XPC.
pub const PC_96BIT: u16 = 0x3000;

/// Builds the `{PC, EPC, CRC16}` reply frame a tag backscatters after a
/// valid ACK.
pub fn epc_reply_frame(pc: u16, epc: Epc) -> Bits {
    let mut body = Bits::new();
    body.push_uint(pc as u64, 16);
    body.extend(&epc.to_bits());
    append_crc16(&body)
}

/// Parses and CRC-checks an EPC reply frame; returns `(pc, epc)`.
pub fn parse_epc_reply(frame: &Bits) -> Option<(u16, Epc)> {
    // 16 PC + 96 EPC + 16 CRC.
    if frame.len() != 128 || !check_crc16(frame) {
        return None;
    }
    let pc = frame.uint_at(0, 16) as u16;
    let epc = Epc::from_bits(&frame.slice(16, 96))?;
    Some((pc, epc))
}

/// A 16-bit random number as used in the RN16 handshake. The tag's RN16
/// reply frame is the bare 16 bits (no CRC).
pub fn rn16_frame(rn16: u16) -> Bits {
    (0..16).rev().map(|i| (rn16 >> i) & 1 == 1).collect()
}

/// Parses an RN16 reply frame.
pub fn parse_rn16(frame: &Bits) -> Option<u16> {
    if frame.len() != 16 {
        return None;
    }
    Some(frame.uint_at(0, 16) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epc_bits_roundtrip() {
        let epc = Epc::from_index(42);
        let bits = epc.to_bits();
        assert_eq!(bits.len(), 96);
        assert_eq!(Epc::from_bits(&bits), Some(epc));
    }

    #[test]
    fn from_index_is_injective_for_small_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            assert!(seen.insert(Epc::from_index(i)), "duplicate at {i}");
        }
    }

    #[test]
    fn reply_frame_roundtrip() {
        let epc = Epc::from_index(7);
        let frame = epc_reply_frame(PC_96BIT, epc);
        assert_eq!(frame.len(), 128);
        let (pc, parsed) = parse_epc_reply(&frame).expect("valid frame parses");
        assert_eq!(pc, PC_96BIT);
        assert_eq!(parsed, epc);
    }

    #[test]
    fn corrupted_reply_rejected() {
        let frame = epc_reply_frame(PC_96BIT, Epc::from_index(9));
        for i in [0, 20, 80, 127] {
            let mut bad: Vec<bool> = frame.as_slice().to_vec();
            bad[i] = !bad[i];
            assert!(parse_epc_reply(&Bits::from_bools(&bad)).is_none());
        }
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(parse_epc_reply(&Bits::from_str01("1010")).is_none());
        assert!(Epc::from_bits(&Bits::from_str01("101")).is_none());
        assert!(parse_rn16(&Bits::from_str01("10101")).is_none());
    }

    #[test]
    fn rn16_frame_is_exact_for_every_value() {
        for rn in 0..=u16::MAX {
            let frame = rn16_frame(rn);
            assert_eq!(frame.len(), 16);
            let mut pushed = Bits::new();
            pushed.push_uint(u64::from(rn), 16);
            assert_eq!(frame, pushed, "rn16 {rn:#06x}");
            assert_eq!(parse_rn16(&frame), Some(rn));
        }
    }

    #[test]
    fn display_is_hex_grouped() {
        let epc = Epc::new([0xAB, 0xCD, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x12]);
        let s = format!("{epc}");
        assert!(s.starts_with("ABCD-"));
        assert!(s.ends_with("0012"));
    }
}

//! Gen2 reader commands: bit-level encode and decode.
//!
//! The USRP reader in the paper "handles a variety of commands including
//! the Query command, ACK command, Select command, and QueryRep command"
//! (§6.3). We implement those plus QueryAdjust and NAK: the inventory
//! commands. The access layer (Req_RN, Read, Kill) is not modelled, so
//! a frame with one of its opcodes decodes to `None`.

use crate::bits::Bits;
use crate::crc::{append_crc16, append_crc5, check_crc16, check_crc5};
use crate::session::{InventoriedFlag, SelFilter, Session};
use crate::timing::{DivideRatio, TagEncoding};

/// The memory bank addressed by a Select command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBank {
    /// Reserved memory (kill/access passwords).
    Reserved,
    /// EPC memory.
    Epc,
    /// TID memory.
    Tid,
    /// User memory.
    User,
}

impl MemBank {
    fn field(self) -> u64 {
        match self {
            MemBank::Reserved => 0b00,
            MemBank::Epc => 0b01,
            MemBank::Tid => 0b10,
            MemBank::User => 0b11,
        }
    }

    fn from_field(f: u64) -> Self {
        match f & 0b11 {
            0b00 => MemBank::Reserved,
            0b01 => MemBank::Epc,
            0b10 => MemBank::Tid,
            _ => MemBank::User,
        }
    }
}

/// A decoded Gen2 reader command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Query: starts an inventory round with 2^q slots.
    Query {
        /// Divide ratio (sets BLF together with TRcal).
        dr: DivideRatio,
        /// Tag backscatter encoding.
        m: TagEncoding,
        /// Pilot-tone request (TRext).
        trext: bool,
        /// Which tags participate, by SL flag.
        sel: SelFilter,
        /// Which session's inventoried flag is used.
        session: Session,
        /// Which inventoried-flag value participates.
        target: InventoriedFlag,
        /// Slot-count exponent, 0–15.
        q: u8,
    },
    /// QueryAdjust: same round, adjust Q by ±1 or keep.
    QueryAdjust {
        /// The session of the running round.
        session: Session,
        /// −1, 0 or +1 applied to Q.
        updn: i8,
    },
    /// QueryRep: decrement slot counters.
    QueryRep {
        /// The session of the running round.
        session: Session,
    },
    /// ACK: acknowledge an RN16, soliciting the EPC.
    Ack {
        /// The RN16 being acknowledged.
        rn16: u16,
    },
    /// NAK: kick replying tags back to arbitrate.
    Nak,
    /// Select: assert/deassert SL or inventoried flags by mask match.
    Select {
        /// Which flag the action targets (SL or an inventoried flag).
        target: SelectTarget,
        /// Action code 0–7 (Gen2 Table 6.29 semantics).
        action: u8,
        /// Memory bank the mask is matched against.
        bank: MemBank,
        /// Bit offset of the mask within the bank.
        pointer: u32,
        /// The mask bits.
        mask: Bits,
        /// Truncate flag (truncated replies; carried, not interpreted).
        truncate: bool,
    },
}

/// The flag a Select command operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectTarget {
    /// An inventoried flag in a given session.
    Inventoried(Session),
    /// The SL flag.
    Sl,
}

impl SelectTarget {
    fn field(self) -> u64 {
        match self {
            SelectTarget::Inventoried(s) => s.field(),
            SelectTarget::Sl => 0b100,
        }
    }

    fn from_field(f: u64) -> Self {
        match f & 0b111 {
            0b100 => SelectTarget::Sl,
            s => SelectTarget::Inventoried(Session::from_field(s & 0b11)),
        }
    }
}

impl Command {
    /// Encodes the command to its transmitted bit frame (including CRC
    /// where the spec requires one).
    pub fn encode(&self) -> Bits {
        let mut b = Bits::new();
        match self {
            Command::Query {
                dr,
                m,
                trext,
                sel,
                session,
                target,
                q,
            } => {
                assert!(*q <= 15, "Q must be 0–15");
                b.push_uint(0b1000, 4);
                b.push(dr.bit());
                b.push_uint(m.field(), 2);
                b.push(*trext);
                b.push_uint(sel.field(), 2);
                b.push_uint(session.field(), 2);
                b.push(target.bit());
                b.push_uint(*q as u64, 4);
                append_crc5(&b)
            }
            Command::QueryAdjust { session, updn } => {
                b.push_uint(0b1001, 4);
                b.push_uint(session.field(), 2);
                let code = match updn {
                    1 => 0b110,
                    0 => 0b000,
                    -1 => 0b011,
                    #[expect(
                        clippy::panic,
                        reason = "UpDn comes from the Q-algorithm, which only emits −1/0/+1; a bad value is a programming error, not an input."
                    )]
                    other => panic!("UpDn must be −1, 0 or +1 (got {other})"),
                };
                b.push_uint(code, 3);
                b
            }
            Command::QueryRep { session } => {
                b.push_uint(0b00, 2);
                b.push_uint(session.field(), 2);
                b
            }
            Command::Ack { rn16 } => {
                b.push_uint(0b01, 2);
                b.push_uint(*rn16 as u64, 16);
                b
            }
            Command::Nak => {
                b.push_uint(0b11000000, 8);
                b
            }
            Command::Select {
                target,
                action,
                bank,
                pointer,
                mask,
                truncate,
            } => {
                assert!(*action <= 7, "action is 3 bits");
                b.push_uint(0b1010, 4);
                b.push_uint(target.field(), 3);
                b.push_uint(*action as u64, 3);
                b.push_uint(bank.field(), 2);
                // EBV-8 pointer.
                push_ebv(&mut b, *pointer);
                assert!(mask.len() <= 255, "mask length is 8 bits");
                b.push_uint(mask.len() as u64, 8);
                b.extend(mask);
                b.push(*truncate);
                append_crc16(&b)
            }
        }
    }

    /// Decodes a received bit frame into a command, verifying CRCs.
    /// Returns `None` for malformed or corrupted frames.
    pub fn decode(frame: &Bits) -> Option<Command> {
        if frame.len() < 4 {
            return None;
        }
        // Dispatch on the leading code: 2-bit codes first.
        match frame.uint_at(0, 2) {
            0b00 if frame.len() == 4 => {
                return Some(Command::QueryRep {
                    session: Session::from_field(frame.uint_at(2, 2)),
                });
            }
            0b01 if frame.len() == 18 => {
                return Some(Command::Ack {
                    rn16: frame.uint_at(2, 16) as u16,
                });
            }
            _ => {}
        }
        match frame.uint_at(0, 4) {
            0b1000 if frame.len() == 22 => {
                if !check_crc5(frame) {
                    return None;
                }
                Some(Command::Query {
                    dr: DivideRatio::from_bit(frame.uint_at(4, 1) == 1),
                    m: TagEncoding::from_field(frame.uint_at(5, 2)),
                    trext: frame.uint_at(7, 1) == 1,
                    sel: SelFilter::from_field(frame.uint_at(8, 2)),
                    session: Session::from_field(frame.uint_at(10, 2)),
                    target: InventoriedFlag::from_bit(frame.uint_at(12, 1) == 1),
                    q: frame.uint_at(13, 4) as u8,
                })
            }
            0b1001 if frame.len() == 9 => {
                let updn = match frame.uint_at(6, 3) {
                    0b110 => 1,
                    0b000 => 0,
                    0b011 => -1,
                    _ => return None,
                };
                Some(Command::QueryAdjust {
                    session: Session::from_field(frame.uint_at(4, 2)),
                    updn,
                })
            }
            0b1010 => {
                if !check_crc16(frame) {
                    return None;
                }
                let target = SelectTarget::from_field(frame.uint_at(4, 3));
                let action = frame.uint_at(7, 3) as u8;
                let bank = MemBank::from_field(frame.uint_at(10, 2));
                let (pointer, after_ptr) = parse_ebv(frame, 12)?;
                if frame.len() < after_ptr + 8 {
                    return None;
                }
                let mask_len = frame.uint_at(after_ptr, 8) as usize;
                let mask_start = after_ptr + 8;
                // mask + truncate bit + CRC16 must exactly fill the frame.
                if frame.len() != mask_start + mask_len + 1 + 16 {
                    return None;
                }
                Some(Command::Select {
                    target,
                    action,
                    bank,
                    pointer,
                    mask: frame.slice(mask_start, mask_len),
                    truncate: frame.uint_at(mask_start + mask_len, 1) == 1,
                })
            }
            0b1100 if frame.len() == 8 && frame.uint_at(0, 8) == 0b11000000 => Some(Command::Nak),
            _ => None,
        }
    }
}

/// Appends an extensible bit vector (EBV-8): 7 value bits per byte,
/// continuation bit in the MSB.
fn push_ebv(b: &mut Bits, mut value: u32) {
    let mut groups = Vec::new();
    loop {
        groups.push((value & 0x7F) as u64);
        value >>= 7;
        if value == 0 {
            break;
        }
    }
    groups.reverse();
    let n = groups.len();
    for (i, g) in groups.into_iter().enumerate() {
        b.push(i + 1 < n); // continuation bit
        b.push_uint(g, 7);
    }
}

/// Parses an EBV-8 starting at `offset`; returns `(value, next_offset)`.
fn parse_ebv(b: &Bits, mut offset: usize) -> Option<(u32, usize)> {
    let mut value: u32 = 0;
    for _ in 0..5 {
        if offset + 8 > b.len() {
            return None;
        }
        let cont = b.uint_at(offset, 1) == 1;
        let group = b.uint_at(offset + 1, 7) as u32;
        value = value.checked_shl(7)? | group;
        offset += 8;
        if !cont {
            return Some((value, offset));
        }
    }
    None // unreasonably long EBV
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Command {
        Command::Query {
            dr: DivideRatio::Dr64over3,
            m: TagEncoding::Fm0,
            trext: true,
            sel: SelFilter::All,
            session: Session::S1,
            target: InventoriedFlag::A,
            q: 4,
        }
    }

    #[test]
    fn query_is_22_bits_and_roundtrips() {
        let frame = sample_query().encode();
        assert_eq!(frame.len(), 22);
        assert_eq!(Command::decode(&frame), Some(sample_query()));
    }

    #[test]
    fn query_rep_is_4_bits() {
        let cmd = Command::QueryRep {
            session: Session::S2,
        };
        let frame = cmd.encode();
        assert_eq!(frame.len(), 4);
        assert_eq!(Command::decode(&frame), Some(cmd));
    }

    #[test]
    fn ack_is_18_bits() {
        let cmd = Command::Ack { rn16: 0xCAFE };
        let frame = cmd.encode();
        assert_eq!(frame.len(), 18);
        assert_eq!(Command::decode(&frame), Some(cmd));
    }

    #[test]
    fn nak_is_8_bits() {
        let frame = Command::Nak.encode();
        assert_eq!(frame.len(), 8);
        assert_eq!(Command::decode(&frame), Some(Command::Nak));
    }

    #[test]
    fn query_adjust_roundtrips_all_updn() {
        for updn in [-1i8, 0, 1] {
            let cmd = Command::QueryAdjust {
                session: Session::S0,
                updn,
            };
            let frame = cmd.encode();
            assert_eq!(frame.len(), 9);
            assert_eq!(Command::decode(&frame), Some(cmd));
        }
    }

    #[test]
    fn select_roundtrips() {
        for bank in [MemBank::Reserved, MemBank::Epc, MemBank::Tid, MemBank::User] {
            let cmd = Command::Select {
                target: SelectTarget::Sl,
                action: 0,
                bank,
                pointer: 0x20,
                mask: Bits::from_str01("1011001110001111"),
                truncate: false,
            };
            let frame = cmd.encode();
            assert_eq!(Command::decode(&frame), Some(cmd));
        }
    }

    #[test]
    fn select_with_large_pointer_uses_multibyte_ebv() {
        let cmd = Command::Select {
            target: SelectTarget::Inventoried(Session::S3),
            action: 4,
            bank: MemBank::User,
            pointer: 1000, // needs two EBV groups
            mask: Bits::from_str01("11110000"),
            truncate: true,
        };
        let frame = cmd.encode();
        assert_eq!(Command::decode(&frame), Some(cmd));
    }

    #[test]
    fn corrupted_query_crc_rejected() {
        let frame = sample_query().encode();
        let mut bad: Vec<bool> = frame.as_slice().to_vec();
        bad[10] = !bad[10];
        assert_eq!(Command::decode(&Bits::from_bools(&bad)), None);
    }

    #[test]
    fn corrupted_select_crc_rejected() {
        let cmd = Command::Select {
            target: SelectTarget::Sl,
            action: 2,
            bank: MemBank::Tid,
            pointer: 0,
            mask: Bits::from_str01("1010"),
            truncate: false,
        };
        let frame = cmd.encode();
        let mut bad: Vec<bool> = frame.as_slice().to_vec();
        bad[frame.len() / 2] = !bad[frame.len() / 2];
        assert_eq!(Command::decode(&Bits::from_bools(&bad)), None);
    }

    #[test]
    fn garbage_and_truncation_rejected() {
        assert_eq!(Command::decode(&Bits::new()), None);
        assert_eq!(Command::decode(&Bits::from_str01("111")), None);
        // Valid prefix, wrong length.
        let mut frame = sample_query().encode();
        frame.push(true);
        assert_eq!(Command::decode(&frame), None);
        // CRC-valid frames of the access layer's retired opcodes: Req_RN
        // (1100_0001, RN16, CRC16; 40 bits) and Read (1100_0010, bank 01,
        // EBV word pointer 2, word count 1, RN16, CRC16). A tag that
        // hears one stays silent.
        let mut req_rn = Bits::new();
        req_rn.push_uint(0b1100_0001, 8);
        req_rn.push_uint(0x1234, 16);
        let mut read = Bits::new();
        read.push_uint(0b1100_0010, 8);
        read.push_uint(0b01, 2);
        push_ebv(&mut read, 2);
        read.push_uint(1, 8);
        read.push_uint(0x1234, 16);
        let (req_rn, read) = (append_crc16(&req_rn), append_crc16(&read));
        assert_eq!(req_rn.len(), 40);
        for retired in [req_rn, read] {
            assert!(check_crc16(&retired));
            assert_eq!(Command::decode(&retired), None);
        }
    }

    #[test]
    fn ebv_roundtrip() {
        for v in [0u32, 1, 127, 128, 300, 16383, 16384, 1_000_000] {
            let mut b = Bits::new();
            push_ebv(&mut b, v);
            let (parsed, consumed) = parse_ebv(&b, 0).unwrap();
            assert_eq!(parsed, v);
            assert_eq!(consumed, b.len());
        }
    }

    #[test]
    fn distinct_commands_have_distinct_encodings() {
        let frames = [
            sample_query().encode(),
            Command::QueryRep {
                session: Session::S1,
            }
            .encode(),
            Command::Ack { rn16: 1 }.encode(),
            Command::Nak.encode(),
        ];
        for i in 0..frames.len() {
            for j in i + 1..frames.len() {
                assert_ne!(frames[i], frames[j]);
            }
        }
    }
}

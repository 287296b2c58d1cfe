//! Property-style tests for the EPC Gen2 protocol stack, driven by the
//! in-repo seeded RNG (reproducible random sweeps instead of an
//! external property-testing framework).

use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::Seconds;

use rfly_protocol::bits::Bits;
use rfly_protocol::commands::{Command, MemBank, SelectTarget};
use rfly_protocol::crc::{append_crc16, append_crc5, check_crc16, check_crc5};
use rfly_protocol::epc::{epc_reply_frame, parse_epc_reply, Epc, PC_96BIT};
use rfly_protocol::fm0;
use rfly_protocol::pie::{decode as pie_decode, FrameStart, PieEncoder};
use rfly_protocol::qalgo::{QAlgorithm, SlotOutcome};
use rfly_protocol::session::{InventoriedFlag, SelFilter, Session};
use rfly_protocol::tag_state::TagMachine;
use rfly_protocol::timing::{DivideRatio, TagEncoding};

const CASES: usize = 200;

fn rand_bits(rng: &mut StdRng, max_len: usize) -> Bits {
    let len = rng.gen_range(1..max_len);
    let v: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
    Bits::from_bools(&v)
}

fn rand_session(rng: &mut StdRng) -> Session {
    match rng.gen_range(0u64..4) {
        0 => Session::S0,
        1 => Session::S1,
        2 => Session::S2,
        _ => Session::S3,
    }
}

fn rand_query(rng: &mut StdRng) -> Command {
    Command::Query {
        dr: DivideRatio::from_bit(rng.gen::<bool>()),
        m: TagEncoding::from_field(rng.gen_range(0u64..4)),
        trext: rng.gen::<bool>(),
        sel: match rng.gen_range(0u64..3) {
            0 => SelFilter::All,
            1 => SelFilter::Selected,
            _ => SelFilter::NotSelected,
        },
        session: rand_session(rng),
        target: InventoriedFlag::from_bit(rng.gen::<bool>()),
        q: rng.gen_range(0u8..16),
    }
}

fn rand_command(rng: &mut StdRng) -> Command {
    match rng.gen_range(0u64..6) {
        0 => rand_query(rng),
        1 => Command::QueryRep {
            session: rand_session(rng),
        },
        2 => Command::QueryAdjust {
            session: rand_session(rng),
            updn: rng.gen_range(-1i8..=1),
        },
        3 => Command::Ack {
            rn16: rng.gen::<u16>(),
        },
        4 => Command::Nak,
        _ => {
            let t = rng.gen_range(0u64..5);
            Command::Select {
                target: if t == 4 {
                    SelectTarget::Sl
                } else {
                    SelectTarget::Inventoried(Session::from_field(t))
                },
                action: rng.gen_range(0u8..8),
                bank: MemBank::Epc,
                pointer: rng.gen_range(0u32..2000),
                mask: rand_bits(rng, 48),
                truncate: rng.gen::<bool>(),
            }
        }
    }
}

#[test]
fn crc16_roundtrip_and_bitflip_detection() {
    let mut rng = StdRng::seed_from_u64(0x960_001);
    for _ in 0..CASES {
        let body = rand_bits(&mut rng, 200);
        let framed = append_crc16(&body);
        assert!(check_crc16(&framed));
        let mut corrupted: Vec<bool> = framed.as_slice().to_vec();
        let i = rng.gen_range(0..corrupted.len());
        corrupted[i] = !corrupted[i];
        assert!(!check_crc16(&Bits::from_bools(&corrupted)));
    }
}

#[test]
fn crc5_roundtrip_and_bitflip_detection() {
    let mut rng = StdRng::seed_from_u64(0x960_002);
    for _ in 0..CASES {
        let body = rand_bits(&mut rng, 40);
        let framed = append_crc5(&body);
        assert!(check_crc5(&framed));
        let mut corrupted: Vec<bool> = framed.as_slice().to_vec();
        let i = rng.gen_range(0..corrupted.len());
        corrupted[i] = !corrupted[i];
        assert!(!check_crc5(&Bits::from_bools(&corrupted)));
    }
}

#[test]
fn bits_uint_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x960_003);
    for _ in 0..CASES {
        let value = rng.gen::<u64>();
        let width = rng.gen_range(1usize..=64);
        let masked = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let mut b = Bits::new();
        b.push_uint(masked, width);
        assert_eq!(b.uint_at(0, width), masked);
        assert_eq!(b.len(), width);
    }
}

#[test]
fn bits_byte_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x960_004);
    for _ in 0..CASES {
        let bits = rand_bits(&mut rng, 123);
        let bytes = bits.to_bytes();
        let back = Bits::from_bytes(&bytes, bits.len());
        assert_eq!(back, bits);
    }
}

#[test]
fn every_command_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x960_005);
    for _ in 0..400 {
        let cmd = rand_command(&mut rng);
        let frame = cmd.encode();
        assert_eq!(Command::decode(&frame), Some(cmd));
    }
}

#[test]
fn epc_frames_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x960_006);
    for _ in 0..CASES {
        let mut bytes = [0u8; 12];
        for b in &mut bytes {
            *b = rng.gen::<u8>();
        }
        let epc = Epc::new(bytes);
        let frame = epc_reply_frame(PC_96BIT, epc);
        let (pc, parsed) = parse_epc_reply(&frame).expect("valid frame parses");
        assert_eq!(pc, PC_96BIT);
        assert_eq!(parsed, epc);
    }
}

#[test]
fn pie_roundtrips_arbitrary_payloads() {
    let mut rng = StdRng::seed_from_u64(0x960_007);
    for _ in 0..60 {
        let payload = rand_bits(&mut rng, 64);
        let enc = PieEncoder::new(4e6).expect("legal encoder");
        let wave = enc.encode(FrameStart::Preamble, &payload, Seconds::new(30e-6));
        let frame = pie_decode(&wave, 4e6).expect("decodes");
        assert_eq!(frame.bits, payload);
    }
}

#[test]
fn fm0_roundtrips_arbitrary_payloads() {
    let mut rng = StdRng::seed_from_u64(0x960_008);
    for _ in 0..60 {
        let payload = rand_bits(&mut rng, 64);
        let sps = rng.gen_range(2usize..8) * 2;
        let wave = fm0::encode_reply(&payload, false, sps);
        let (_, bits) = fm0::find_reply(&wave, false, sps, payload.len()).expect("found");
        assert_eq!(bits, payload);
    }
}

#[test]
fn q_algorithm_stays_in_bounds() {
    let mut rng = StdRng::seed_from_u64(0x960_00A);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..300);
        let mut q = QAlgorithm::default_start();
        for _ in 0..n {
            let outcome = match rng.gen_range(0u8..3) {
                0 => SlotOutcome::Empty,
                1 => SlotOutcome::Single,
                _ => SlotOutcome::Collision,
            };
            let v = q.observe(outcome);
            assert!((0..=15).contains(&v));
        }
    }
}

#[test]
fn tag_machine_never_panics_and_stays_consistent() {
    let mut rng = StdRng::seed_from_u64(0x960_00B);
    for _ in 0..100 {
        let seed = rng.gen::<u64>();
        let n = rng.gen_range(0usize..60);
        let cmds: Vec<Command> = (0..n).map(|_| rand_command(&mut rng)).collect();
        let mut tag = TagMachine::new(Epc::from_index(seed & 0xFFFF), seed);
        for cmd in &cmds {
            // No panic, and any reply frame is structurally valid.
            if let Some(reply) = tag.handle(cmd) {
                let len = reply.frame().len();
                // RN16 or EPC frame.
                assert!(len == 16 || len == 128, "odd frame len {len}");
            }
        }
    }
}

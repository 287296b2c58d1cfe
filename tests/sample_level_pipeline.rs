//! Sample-level integration: IQ waveforms end to end through the real
//! signal chain — reader PIE synthesis → tag protocol decode → FM0
//! backscatter → the relay's mirrored analog paths → coherent reader
//! decode. No phasor shortcuts anywhere in this file.

use rfly::core::relay::relay::{Relay, RelayConfig};
use rfly::dsp::units::{Hertz, Seconds};
use rfly::dsp::Complex;
use rfly::protocol::bits::Bits;
use rfly::protocol::commands::Command;
use rfly::protocol::epc::{parse_epc_reply, Epc, PC_96BIT};
use rfly::protocol::pie;
use rfly::protocol::tag_state::{TagMachine, TagReply};
use rfly::reader::config::ReaderConfig;
use rfly::reader::decoder::decode_backscatter;
use rfly::reader::waveform::WaveformBuilder;

const FS: f64 = ReaderConfig::SAMPLE_RATE;
const SPS: usize = ReaderConfig::SAMPLES_PER_SYMBOL;

fn test_query() -> Command {
    ReaderConfig::usrp_default().query(0)
}

/// A tag's-eye demodulation of a reader waveform: envelope detection +
/// PIE interval decoding + command parse.
fn tag_hears(waveform: &[Complex]) -> Option<(Command, usize)> {
    let envelope: Vec<f64> = waveform.iter().map(|s| s.abs()).collect();
    let frame = pie::decode(&envelope, FS)?;
    Some((Command::decode(&frame.bits)?, frame.end_sample))
}

#[test]
fn reader_waveform_is_tag_decodable() {
    let builder = WaveformBuilder::new();
    let wave = builder.command(&test_query(), Seconds::new(400e-6));
    let (cmd, _) = tag_hears(&wave).expect("tag decodes the PIE query");
    assert_eq!(cmd, test_query());
}

#[test]
fn full_chain_reader_to_tag_to_relay_to_reader() {
    let builder = WaveformBuilder::new();
    let relay_cfg = RelayConfig {
        bpf_half_bw: RelayConfig::FM0_BPF_HALF_BW,
        ..RelayConfig::default()
    };
    let mut relay = Relay::new(relay_cfg, 77);
    let mut tag = TagMachine::new(Epc::from_index(9), 5);

    // 1. Reader transmits the query with a CW tail for the reply.
    let tx = builder.command(&test_query(), Seconds::new(900e-6));

    // 2. The relay's downlink forwards it (downconvert → LPF →
    //    upconvert at f₂).
    let relayed = relay.forward_downlink(&tx, 0);

    // 3. The tag hears the *relayed* waveform (envelope → PIE), runs
    //    its Gen2 state machine, and backscatters its RN16 by
    //    modulating the relayed carrier.
    let (cmd, end) = tag_hears(&relayed).expect("tag decodes through the relay");
    assert_eq!(cmd, test_query());
    let reply = tag.handle(&cmd).expect("Q=0 query draws a reply");
    let rn16_bits = match &reply {
        TagReply::Rn16(b) => b.clone(),
        other => panic!("expected RN16, got {other:?}"),
    };
    let levels = rfly::protocol::fm0::encode_reply(&rn16_bits, false, SPS);
    // T1 turnaround before the reply begins.
    let t1 = (rfly::protocol::timing::T1 * FS) as usize;
    let mut uplink_in = vec![Complex::default(); relayed.len()];
    for (i, &l) in levels.iter().enumerate() {
        let idx = end + t1 + i;
        if idx < uplink_in.len() {
            uplink_in[idx] = relayed[idx] * l;
        }
    }

    // 4. The relay's uplink forwards the backscatter back to f₁.
    let rx = relay.forward_uplink(&uplink_in, 0);

    // 5. The reader coherently decodes the RN16 and its channel.
    let d = decode_backscatter(&rx, false, SPS, 16).expect("reader decodes the relayed RN16");
    assert_eq!(d.bits, rn16_bits, "bits must survive the full analog chain");

    // 6. ACK completes singulation (protocol level) and the EPC frame
    //    round-trips the same physical path.
    let rn16 = d.bits.uint_at(0, 16) as u16;
    let epc_reply = tag.handle(&Command::Ack { rn16 }).expect("acked");
    let epc_bits = epc_reply.frame().clone();
    let epc_levels = rfly::protocol::fm0::encode_reply(&epc_bits, false, SPS);
    let mut uplink2 = vec![Complex::default(); epc_levels.len() + 2048];
    let cw = relay.forward_downlink(
        &builder.continuous_wave(Seconds::new(uplink2.len() as f64 / FS)),
        0,
    );
    for (i, &l) in epc_levels.iter().enumerate() {
        uplink2[600 + i] = cw[600 + i] * l;
    }
    let rx2 = relay.forward_uplink(&uplink2, 0);
    let d2 =
        decode_backscatter(&rx2, false, SPS, 128).expect("reader decodes the relayed EPC frame");
    let (pc, epc) = parse_epc_reply(&d2.bits).expect("CRC-valid EPC frame");
    assert_eq!(pc, PC_96BIT);
    assert_eq!(epc, Epc::from_index(9));
}

#[test]
fn phasor_channel_matches_sample_level_decode() {
    // The cross-fidelity check promised in DESIGN.md: imprint a phasor
    // channel h on a sample-level reply; the coherent decoder must
    // recover h (amplitude and phase).
    use rfly::channel::phasor::PathSet;
    let f = Hertz::mhz(915.0);
    let ps = PathSet::line_of_sight(rfly::dsp::units::Meters::new(7.3), 0.004); // 7.3 m, weak return
    let h = ps.round_trip(f);

    let bits = Bits::from_str01("1011001110001111");
    let levels = rfly::protocol::fm0::encode_reply(&bits, false, SPS);
    let mut capture = vec![Complex::from_re(1.0); 600 + levels.len() + 200];
    for (i, &l) in levels.iter().enumerate() {
        capture[600 + i] += h * l;
    }
    let d = decode_backscatter(&capture, false, SPS, 16).expect("decodes");
    assert!(
        rfly::dsp::complex::phase_distance(d.channel.arg(), h.arg()) < 0.02,
        "phase mismatch: {} vs {}",
        d.channel.arg(),
        h.arg()
    );
    assert!(
        (d.channel.abs() - h.abs()).abs() / h.abs() < 0.05,
        "amplitude mismatch"
    );
}

//! Sample-level end-to-end link: geometry-aware IQ simulation of one
//! reader ↔ relay ↔ tag singulation.
//!
//! The phasor world ([`crate::world`]) is fast enough for Monte-Carlo
//! evaluation but abstracts the signal chain; this module runs the
//! *actual* chain — PIE waveform → propagation → the relay's mixers and
//! filters → the tag's Gen2 state machine and backscatter → the relay
//! again → the reader's coherent decoder — with the propagation phases
//! applied as the phasor model prescribes. The cross-fidelity test at
//! the bottom is the contract that the two stacks agree.

use rfly_dsp::rng::StdRng;

use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_core::relay::relay::{Relay, RelayConfig};
use rfly_dsp::noise::add_awgn;
use rfly_dsp::units::Seconds;
use rfly_dsp::Complex;
use rfly_protocol::commands::Command;
use rfly_protocol::epc::{parse_epc_reply, parse_rn16, Epc};
use rfly_protocol::fm0;
use rfly_protocol::pie;
use rfly_protocol::tag_state::TagMachine;
use rfly_protocol::timing::T1;
use rfly_reader::config::ReaderConfig;
use rfly_reader::decoder::{decode_backscatter, DecodedReply};
use rfly_reader::waveform::WaveformBuilder;

/// One fully-sample-level reader ↔ relay ↔ tag arrangement.
#[derive(Debug)]
pub struct SampleLink {
    /// Reader configuration.
    pub config: ReaderConfig,
    relay: Relay,
    tag: TagMachine,
    /// One-way reader↔relay channel phasor at f₁.
    h1: Complex,
    /// One-way relay↔tag channel phasor at f₂.
    h2: Complex,
    /// Receiver noise power at the reader (linear, per sample).
    pub noise_power: f64,
    builder: WaveformBuilder,
    rng: StdRng,
    /// Global sample clock (keeps the relay's shared synthesizers
    /// coherent across transactions).
    clock: usize,
}

impl SampleLink {
    /// Builds a link from scene geometry: traces reader→relay at f₁ and
    /// relay→tag at f₂ through `env`.
    pub fn new(
        env: &Environment,
        reader_pos: Point2,
        relay_pos: Point2,
        tag_pos: Point2,
        epc: Epc,
        seed: u64,
    ) -> Self {
        let config = ReaderConfig::usrp_default();
        let relay_cfg = RelayConfig {
            bpf_half_bw: RelayConfig::FM0_BPF_HALF_BW,
            ..RelayConfig::default()
        };
        let f1 = config.frequency;
        let f2 = f1 + RelayConfig::SHIFT;
        let h1 = env.trace(reader_pos, relay_pos, f1).channel(f1);
        let h2 = env.trace(relay_pos, tag_pos, f2).channel(f2);
        Self {
            builder: WaveformBuilder::new(),
            config,
            relay: Relay::new(relay_cfg, seed),
            tag: TagMachine::new(epc, seed ^ 0x7A6),
            h1,
            h2,
            noise_power: 1e-18,
            rng: StdRng::seed_from_u64(seed ^ 0x11),
            clock: 0,
        }
    }

    /// The model-predicted round-trip channel the reader should estimate
    /// (up to the relay's constant hardware phase): `h1²·h2²·g_dl·g_ul`.
    pub fn predicted_channel_magnitude(&self) -> f64 {
        let (g_dl, g_ul) = self.relay.gains();
        (self.h1 * self.h1 * self.h2 * self.h2).abs() * g_dl.amplitude() * g_ul.amplitude()
    }

    /// Transmits one command through the relay to the tag, collects the
    /// tag's backscatter back through the relay, and decodes it at the
    /// reader. Returns the decoded reply (bits + channel) if the tag
    /// answered and the decode succeeded.
    pub fn transact(&mut self, cmd: &Command, n_reply_bits: usize) -> Option<DecodedReply> {
        let fs = ReaderConfig::SAMPLE_RATE;
        let sps = ReaderConfig::SAMPLES_PER_SYMBOL;
        let start = self.clock;

        // Reader → air → relay downlink → air → tag.
        let tail = Seconds::new(1.2e-3);
        let tx = self.builder.command(cmd, tail);
        let at_relay: Vec<Complex> = tx.iter().map(|&s| s * self.h1).collect();
        let relayed = self.relay.forward_downlink(&at_relay, start);
        let at_tag: Vec<Complex> = relayed.iter().map(|&s| s * self.h2).collect();

        // The tag demodulates the envelope and runs its state machine.
        let envelope: Vec<f64> = at_tag.iter().map(|s| s.abs()).collect();
        let frame = pie::decode(&envelope, fs)?;
        let heard = Command::decode(&frame.bits)?;
        let reply = self.tag.handle(&heard)?;

        // Backscatter: the tag modulates the incident relayed carrier,
        // starting T1 after the command ends.
        let levels = fm0::encode_reply(reply.frame(), ReaderConfig::TREXT, sps);
        let t1 = (T1 * fs) as usize;
        let mut back_at_relay = vec![Complex::default(); at_tag.len()];
        for (i, &l) in levels.iter().enumerate() {
            let idx = frame.end_sample + t1 + i;
            if idx < back_at_relay.len() {
                // Tag → air → relay: the reflection traverses h2 again.
                back_at_relay[idx] = at_tag[idx] * l * self.h2;
            }
        }

        // Relay uplink → air → reader (+ receiver noise).
        let up = self.relay.forward_uplink(&back_at_relay, start);
        let mut at_reader: Vec<Complex> = up.iter().map(|&s| s * self.h1).collect();
        if self.noise_power > 0.0 {
            add_awgn(&mut self.rng, &mut at_reader, self.noise_power);
        }

        self.clock += tx.len() + 4096;
        decode_backscatter(&at_reader, ReaderConfig::TREXT, sps, n_reply_bits).ok()
    }

    /// Runs a full singulation (Query → RN16 → ACK → EPC) and returns
    /// `(epc, epc_frame_channel)`.
    pub fn singulate(&mut self) -> Option<(Epc, Complex)> {
        let rn16_reply = self.transact(&self.config.query(0), 16)?;
        let rn16 = parse_rn16(&rn16_reply.bits)?;
        let epc_reply = self.transact(&Command::Ack { rn16 }, 128)?;
        let (_, epc) = parse_epc_reply(&epc_reply.bits)?;
        Some((epc, epc_reply.channel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(seed: u64) -> SampleLink {
        // Reader 6 m from the relay, tag 1.5 m from the relay, clear air.
        SampleLink::new(
            &Environment::free_space(),
            Point2::new(0.0, 0.0),
            Point2::new(6.0, 0.0),
            Point2::new(7.5, 0.0),
            Epc::from_index(4),
            seed,
        )
    }

    #[test]
    fn full_singulation_through_the_sample_chain() {
        let (epc, channel) = link(1).singulate().expect("singulates");
        assert_eq!(epc, Epc::from_index(4));
        assert!(channel.abs() > 0.0);
    }

    #[test]
    fn cross_fidelity_channel_magnitude_matches_phasor_model() {
        // The contract between the two simulation stacks: the
        // sample-level decoded channel magnitude equals the phasor
        // product h1²·h2²·g_dl·g_ul (the hardware chain contributes a
        // constant phase and ~unit magnitude).
        let mut l = link(4);
        let predicted = l.predicted_channel_magnitude();
        let (_, channel) = l.singulate().expect("singulates");
        let ratio = channel.abs() / predicted;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sample-level |h| = {}, phasor model = {predicted} (ratio {ratio})",
            channel.abs()
        );
    }

    #[test]
    fn cross_fidelity_phase_is_stable_across_singulations() {
        // Mirrored architecture ⇒ the decoded phase repeats across
        // transactions on the same link (constant hardware offset), so
        // SAR can use it. (The phasor world asserts the same property.)
        let mut l = link(3);
        let (_, c1) = l.singulate().expect("first");
        l.tag.power_cycle();
        let (_, c2) = l.singulate().expect("second");
        let d = rfly_dsp::complex::phase_distance(c1.arg(), c2.arg());
        assert!(d < 0.05, "phase drift {d} rad across singulations");
    }

    #[test]
    fn tag_out_of_powering_range_is_silent_at_sample_level() {
        // 30 m relay→tag: the envelope reaching the tag decodes, but in
        // the phasor world the harvester would be dead; at sample level
        // the return is buried: raise the noise to a realistic floor
        // and the decode fails.
        let mut l = SampleLink::new(
            &Environment::free_space(),
            Point2::new(0.0, 0.0),
            Point2::new(6.0, 0.0),
            Point2::new(36.0, 0.0),
            Epc::from_index(4),
            4,
        );
        l.noise_power = 1e-10;
        assert!(l.singulate().is_none());
    }

    #[test]
    fn noise_floor_kills_weak_links() {
        let mut l = link(5);
        l.noise_power = 1e2; // absurd noise
        assert!(l.singulate().is_none());
    }
}

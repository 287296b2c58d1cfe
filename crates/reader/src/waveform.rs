//! Command → IQ waveform synthesis (the reader's transmit chain).
//!
//! At complex baseband relative to the reader's own carrier, the
//! unmodulated carrier is DC and a PIE frame is a real-valued envelope.
//! The waveforms produced here are what feeds the relay's downlink path
//! in the sample-level experiments.

use rfly_dsp::units::Seconds;
use rfly_dsp::Complex;
use rfly_protocol::commands::Command;
use rfly_protocol::pie::{FrameStart, PieEncoder};

use crate::config::ReaderConfig;

/// Synthesizes reader waveforms at the link profile's timing
/// ([`rfly_protocol::timing`]) and the reader's sample rate
/// ([`ReaderConfig::SAMPLE_RATE`]).
#[derive(Debug, Clone)]
pub struct WaveformBuilder {
    encoder: PieEncoder,
}

impl Default for WaveformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl WaveformBuilder {
    /// Creates a builder with a 90% modulation depth.
    #[expect(
        clippy::expect_used,
        reason = "the encoder checks only the sample rate, a positive constant; the unit tests build it."
    )]
    pub fn new() -> Self {
        let encoder = PieEncoder::new(ReaderConfig::SAMPLE_RATE)
            .expect("the reader's sample rate is positive");
        Self { encoder }
    }

    /// Encodes a command as a complex baseband waveform, followed by
    /// `tail` of CW for the tag to reply into. Query commands
    /// get the full preamble (they carry TRcal); everything else gets a
    /// frame-sync.
    pub fn command(&self, cmd: &Command, tail: Seconds) -> Vec<Complex> {
        let start = match cmd {
            Command::Query { .. } => FrameStart::Preamble,
            _ => FrameStart::FrameSync,
        };
        let envelope = self.encoder.encode(start, &cmd.encode(), tail);
        envelope.into_iter().map(Complex::from_re).collect()
    }

    /// Plain continuous wave.
    pub fn continuous_wave(&self, duration: Seconds) -> Vec<Complex> {
        self.encoder
            .continuous_wave(duration)
            .into_iter()
            .map(Complex::from_re)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_protocol::pie;
    use rfly_protocol::session::Session;

    fn builder() -> WaveformBuilder {
        WaveformBuilder::new()
    }

    fn envelope(wave: &[Complex]) -> Vec<f64> {
        wave.iter().map(|s| s.abs()).collect()
    }

    #[test]
    fn query_waveform_decodes_back_to_the_query() {
        let cmd = ReaderConfig::usrp_default().query(4);
        let wave = builder().command(&cmd, Seconds::new(100e-6));
        let frame = pie::decode(&envelope(&wave), ReaderConfig::SAMPLE_RATE).expect("PIE decodes");
        assert!(frame.trcal_s.is_some(), "Query carries TRcal");
        assert_eq!(Command::decode(&frame.bits), Some(cmd));
    }

    #[test]
    fn non_query_uses_frame_sync() {
        let cmd = Command::QueryRep {
            session: Session::S1,
        };
        let wave = builder().command(&cmd, Seconds::new(50e-6));
        let frame = pie::decode(&envelope(&wave), 4e6).expect("decodes");
        assert!(frame.trcal_s.is_none());
        assert_eq!(Command::decode(&frame.bits), Some(cmd));
    }

    #[test]
    fn waveform_is_real_valued_at_baseband() {
        let wave = builder().command(&Command::Nak, Seconds::new(10e-6));
        assert!(wave.iter().all(|s| s.im == 0.0));
    }

    #[test]
    fn cw_is_constant_dc() {
        let cw = builder().continuous_wave(Seconds::new(25e-6));
        assert_eq!(cw.len(), 100);
        assert!(cw
            .iter()
            .all(|s| (*s - Complex::from_re(1.0)).abs() < 1e-12));
    }

    #[test]
    fn modulation_depth_is_90_percent() {
        let wave = builder().command(&Command::Nak, Seconds::new(0.0));
        let env = envelope(&wave);
        let min = env.iter().cloned().fold(f64::MAX, f64::min);
        assert!((min - 0.1).abs() < 1e-9, "low level = {min}");
    }
}

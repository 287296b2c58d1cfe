//! Reader configuration.
//!
//! The paper's reader runs one Gen2 link profile, so everything but the
//! carrier, the transmit power and the SL filter is an associated
//! constant of [`ReaderConfig`].

use rfly_channel::link::LinkBudget;
use rfly_dsp::units::{Db, Dbm, Hertz};
use rfly_protocol::commands::Command;
use rfly_protocol::session::{InventoriedFlag, SelFilter, Session};
use rfly_protocol::timing::{TagEncoding, DR};

/// Everything a reader needs to know to run inventory rounds.
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Carrier frequency.
    pub frequency: Hertz,
    /// Conducted transmit power.
    pub tx_power: Dbm,
    /// SL-flag filter.
    pub sel: SelFilter,
}

impl ReaderConfig {
    /// Antenna gain (TX and RX, monostatic).
    pub const ANTENNA_GAIN: Db = Db::new(6.0);
    /// Receiver noise figure.
    pub const NOISE_FIGURE: Db = Db::new(8.0);
    /// Receiver bandwidth.
    pub const BANDWIDTH: Hertz = Hertz::mhz(2.0);
    /// Pilot-tone request.
    pub const TREXT: bool = true;
    /// Inventory session.
    pub const SESSION: Session = Session::S0;
    /// Target inventoried-flag value.
    pub const TARGET: InventoriedFlag = InventoriedFlag::A;
    /// Baseband sample rate for waveform synthesis/decoding.
    pub const SAMPLE_RATE: f64 = 4e6;
    /// Samples per FM0 symbol: [`Self::SAMPLE_RATE`] over the link
    /// profile's BLF ([`rfly_protocol::timing::BLF`]).
    pub const SAMPLES_PER_SYMBOL: usize = 8;
    /// Minimum post-integration SNR for a successful decode.
    ///
    /// §7.3 of the paper observes decoding/phase quality collapsing as
    /// SNR drops below ≈3 dB; coherent FM0 with CRC needs roughly this
    /// much per bit.
    pub const DECODE_SNR_FLOOR: Db = Db::new(3.0);

    /// An FCC-compliant USRP-class reader at 915 MHz: 30 dBm conducted,
    /// 6 dBi antenna, 500 kHz BLF profile, FM0 with pilot.
    pub fn usrp_default() -> Self {
        Self {
            frequency: Hertz::mhz(915.0),
            tx_power: Dbm::new(30.0),
            sel: SelFilter::All,
        }
    }

    /// The Query that opens a round with slot-count parameter `q`.
    pub fn query(&self, q: u8) -> Command {
        Command::Query {
            dr: DR,
            m: TagEncoding::Fm0,
            trext: Self::TREXT,
            sel: self.sel,
            session: Self::SESSION,
            target: Self::TARGET,
            q,
        }
    }

    /// The link budget view of this configuration.
    pub fn link_budget(&self) -> LinkBudget {
        LinkBudget {
            tx_power: self.tx_power,
            tx_gain: Self::ANTENNA_GAIN,
            rx_gain: Self::ANTENNA_GAIN,
            noise_figure: Self::NOISE_FIGURE,
            bandwidth: Self::BANDWIDTH,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_protocol::epc::Epc;
    use rfly_protocol::tag_state::TagMachine;

    #[test]
    fn default_config_is_consistent() {
        let c = ReaderConfig::usrp_default();
        assert_eq!(c.link_budget().eirp(), Dbm::new(36.0));
    }

    #[test]
    fn sample_rate_is_exactly_eight_samples_per_blf_symbol() {
        let sps = ReaderConfig::SAMPLE_RATE / rfly_protocol::timing::BLF;
        assert_eq!(sps, 8.0, "4 MS/s ÷ 500 kHz");
        assert_eq!(ReaderConfig::SAMPLES_PER_SYMBOL, 8);
    }

    /// Whether fresh tags seeded alike give every query in `queries`
    /// the same reply, over sixteen seeds.
    fn replies_agree(queries: &[Command]) -> bool {
        (0..16).all(|seed| {
            let reply = |query| {
                TagMachine::new(Epc::from_index(seed), seed)
                    .handle(query)
                    .map(|r| r.into_frame())
            };
            queries
                .iter()
                .all(|query| reply(query) == reply(&queries[0]))
        })
    }

    #[test]
    fn the_tag_answers_every_m_field_alike() {
        // The tag ignores the Query's M field, so a reader-side encoding
        // choice could change nothing.
        let base = ReaderConfig::usrp_default().query(0);
        let variants: Vec<Command> = (0..4)
            .map(|field| Command::Query {
                dr: DR,
                m: TagEncoding::from_field(field),
                trext: ReaderConfig::TREXT,
                sel: SelFilter::All,
                session: ReaderConfig::SESSION,
                target: ReaderConfig::TARGET,
                q: 0,
            })
            .collect();
        assert_eq!(variants[0], base);
        let mut tag = TagMachine::new(Epc::from_index(0), 0);
        assert!(tag.handle(&base).is_some(), "a Q = 0 query draws a reply");
        assert!(replies_agree(&variants));
    }

    #[test]
    fn planted_control_changing_q_instead_of_m_changes_the_reply() {
        // The same comparison sees a field the tag obeys: at Q = 4 most
        // tags draw a nonzero slot and stay silent.
        let config = ReaderConfig::usrp_default();
        assert!(!replies_agree(&[config.query(0), config.query(4)]));
    }
}

//! The inventory controller: Gen2 rounds over an abstract medium.
//!
//! At the phasor level, a "transmission" is a command broadcast and the
//! replies are `(bits, complex channel, SNR)` observations; the medium
//! (free space, or free space *through RFly's relay*) is injected via
//! the [`Medium`] trait, which is how the whole reader stack runs
//! unmodified with and without the relay — the paper's transparency
//! claim, made structural.

use rfly_dsp::rng::Rng;
use rfly_dsp::rng::StdRng;

use rfly_dsp::units::Db;
use rfly_dsp::Complex;
use rfly_protocol::bits::Bits;
use rfly_protocol::commands::Command;
use rfly_protocol::epc::{parse_epc_reply, parse_rn16, Epc};
use rfly_protocol::qalgo::{QAlgorithm, SlotOutcome};

use crate::config::ReaderConfig;

/// One tag's backscatter as observed at the reader for one command.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The backscattered frame content (error-free; decode success is
    /// decided by SNR, modelling the CRC gate).
    pub frame: Bits,
    /// The complex channel of this reply at the reader.
    pub channel: Complex,
    /// Post-integration SNR of this reply.
    pub snr: Db,
}

/// The air interface: broadcast a command, collect every reply.
pub trait Medium {
    /// Transmits `cmd` and returns all concurrent tag replies.
    fn transact(&mut self, cmd: &Command) -> Vec<Observation>;
}

/// A successful tag read: the localizer's unit of input.
#[derive(Debug, Clone)]
pub struct TagRead {
    /// The tag's EPC.
    pub epc: Epc,
    /// Complex channel measured from the EPC reply.
    pub channel: Complex,
    /// SNR of the EPC reply.
    pub snr: Db,
}

/// Statistics of one inventory round.
#[derive(Debug, Clone, Default)]
pub struct RoundStats {
    /// Slots with no reply.
    pub empty: usize,
    /// Slots with exactly one decodable reply.
    pub singles: usize,
    /// Slots with collisions or undecodable replies.
    pub collisions: usize,
    /// EPC reads completed.
    pub reads: Vec<TagRead>,
}

/// Minimum power ratio (dB) between the strongest reply and the sum of
/// the rest for the capture effect to rescue a collided slot.
const CAPTURE_MARGIN_DB: f64 = 6.0;

/// Probability that a frame at `snr` decodes, for a reader whose decode
/// knee sits at `floor`. A logistic in dB: crisp success a few dB above
/// the floor, crisp failure a few dB below — the rolloff shape behind
/// Fig. 11.
pub fn decode_probability(snr: Db, floor: Db) -> f64 {
    1.0 / (1.0 + (floor - snr).value().exp())
}

/// The reader-side inventory engine.
#[derive(Debug)]
pub struct InventoryController {
    config: ReaderConfig,
    qalgo: QAlgorithm,
    rng: StdRng,
}

impl InventoryController {
    /// Creates a controller; `rng` drives decode-success draws.
    pub fn new(config: ReaderConfig, rng: StdRng) -> Self {
        Self {
            config,
            qalgo: QAlgorithm::default_start(),
            rng,
        }
    }

    fn decodes(&mut self, snr: Db) -> bool {
        let p = decode_probability(snr, ReaderConfig::DECODE_SNR_FLOOR);
        self.rng.gen::<f64>() < p
    }

    /// Resolves a slot's observations into an outcome, applying the
    /// capture effect. Returns the winning observation for a single.
    fn resolve<'a>(&mut self, obs: &'a [Observation]) -> (SlotOutcome, Option<&'a Observation>) {
        match obs.len() {
            0 => (SlotOutcome::Empty, None),
            1 => {
                if self.decodes(obs[0].snr) {
                    (SlotOutcome::Single, Some(&obs[0]))
                } else {
                    (SlotOutcome::Collision, None)
                }
            }
            _ => {
                let mut best = 0;
                let mut total = 0.0;
                for (i, o) in obs.iter().enumerate() {
                    total += o.channel.norm_sq();
                    if o.channel.norm_sq() > obs[best].channel.norm_sq() {
                        best = i;
                    }
                }
                let rest = total - obs[best].channel.norm_sq();
                if rest > 0.0
                    && Db::from_linear(obs[best].channel.norm_sq() / rest).value()
                        >= CAPTURE_MARGIN_DB
                {
                    // Capture: decode the strongest against interference.
                    let sinr =
                        Db::from_linear(obs[best].channel.norm_sq() / rest).min(obs[best].snr);
                    if self.decodes(sinr) {
                        return (SlotOutcome::Single, Some(&obs[best]));
                    }
                }
                (SlotOutcome::Collision, None)
            }
        }
    }

    /// Runs one inventory round and returns its stats.
    ///
    /// Per Gen2 Annex D, the Q algorithm adapts *within* the round: when
    /// the rounded Q changes, the reader issues a QueryAdjust (tags
    /// redraw their slots) instead of a QueryRep. The round ends when
    /// the current slot budget 2^Q is walked without another adjustment,
    /// or at a hard slot cap.
    pub fn run_round(&mut self, medium: &mut dyn Medium) -> RoundStats {
        /// Runaway guard: no sane round needs more slots than this.
        const MAX_SLOTS_PER_ROUND: usize = 8192;

        let mut stats = RoundStats::default();
        let mut current_q = self.qalgo.q();
        let mut slots_remaining = 1u64 << current_q;
        let mut total_slots = 0usize;
        let mut obs = medium.transact(&self.config.query(current_q));
        while slots_remaining > 0 && total_slots < MAX_SLOTS_PER_ROUND {
            total_slots += 1;
            let (outcome, winner) = self.resolve(&obs);
            self.qalgo.observe(outcome);
            match outcome {
                SlotOutcome::Empty => stats.empty += 1,
                SlotOutcome::Collision => stats.collisions += 1,
                SlotOutcome::Single => {
                    #[expect(
                        clippy::expect_used,
                        reason = "resolve() pairs every Single outcome with its winner by construction."
                    )]
                    let winner = winner.expect("single has a winner").clone();
                    if let Some(rn16) = parse_rn16(&winner.frame) {
                        let ack_obs = medium.transact(&Command::Ack { rn16 });
                        // The acked tag replies alone (others are not in
                        // Reply state); find a decodable EPC frame.
                        let mut read_done = false;
                        for o in &ack_obs {
                            if o.frame.len() == 128 && self.decodes(o.snr) {
                                if let Some((_, epc)) = parse_epc_reply(&o.frame) {
                                    stats.reads.push(TagRead {
                                        epc,
                                        channel: o.channel,
                                        snr: o.snr,
                                    });
                                    read_done = true;
                                    break;
                                }
                            }
                        }
                        if read_done {
                            stats.singles += 1;
                        } else {
                            stats.collisions += 1;
                        }
                    } else {
                        stats.collisions += 1;
                    }
                }
            }
            // Advance: QueryAdjust when Q changed, QueryRep otherwise.
            // Either command also retires an acknowledged tag.
            let new_q = self.qalgo.q();
            if new_q != current_q {
                let updn = if new_q > current_q { 1 } else { -1 };
                current_q = new_q;
                slots_remaining = 1u64 << current_q;
                obs = medium.transact(&Command::QueryAdjust {
                    session: ReaderConfig::SESSION,
                    updn,
                });
            } else {
                slots_remaining -= 1;
                obs = medium.transact(&Command::QueryRep {
                    session: ReaderConfig::SESSION,
                });
            }
        }
        if rfly_obs::is_active() {
            rfly_obs::counter_add("reader.rounds", 1);
            rfly_obs::counter_add("reader.slots.empty", stats.empty as u64);
            rfly_obs::counter_add("reader.slots.single", stats.singles as u64);
            rfly_obs::counter_add("reader.slots.collision", stats.collisions as u64);
            rfly_obs::counter_add("reader.reads", stats.reads.len() as u64);
            for read in &stats.reads {
                rfly_obs::observe_db("reader.read_snr_db", read.snr);
            }
        }
        stats
    }

    /// Runs rounds until one completes with no replies at all (the
    /// population is fully inventoried for this target) or `max_rounds`
    /// is hit. Returns every read collected.
    pub fn run_until_quiet(&mut self, medium: &mut dyn Medium, max_rounds: usize) -> Vec<TagRead> {
        let mut all = Vec::new();
        for _ in 0..max_rounds {
            let stats = self.run_round(medium);
            let activity = stats.singles + stats.collisions;
            all.extend(stats.reads);
            if activity == 0 {
                break;
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MockMedium;
    use rfly_protocol::epc::Epc;
    use rfly_protocol::session::Session;
    use rfly_protocol::timing::{TagEncoding, DR};

    fn controller(seed: u64) -> InventoryController {
        InventoryController::new(ReaderConfig::usrp_default(), StdRng::seed_from_u64(seed))
    }

    #[test]
    fn single_tag_is_read_in_one_pass() {
        let mut medium = MockMedium::new(1, Db::new(30.0));
        let mut c = controller(1);
        let reads = c.run_until_quiet(&mut medium, 10);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].epc, Epc::from_index(0));
    }

    #[test]
    fn all_of_a_small_population_is_read() {
        let n = 12;
        let mut medium = MockMedium::new(n, Db::new(30.0));
        let mut c = controller(2);
        let reads = c.run_until_quiet(&mut medium, 50);
        let mut epcs: Vec<Epc> = reads.iter().map(|r| r.epc).collect();
        epcs.sort();
        epcs.dedup();
        assert_eq!(epcs.len(), n, "every tag must be inventoried");
    }

    #[test]
    fn each_tag_read_once_per_target_cycle() {
        let mut medium = MockMedium::new(5, Db::new(30.0));
        let mut c = controller(3);
        let reads = c.run_until_quiet(&mut medium, 50);
        // Inventoried flags flip to B, so no duplicates within the cycle.
        let mut epcs: Vec<Epc> = reads.iter().map(|r| r.epc).collect();
        let total = epcs.len();
        epcs.sort();
        epcs.dedup();
        assert_eq!(epcs.len(), total, "a tag was read twice in one cycle");
    }

    #[test]
    fn low_snr_population_is_not_read() {
        let mut medium = MockMedium::new(3, Db::new(-10.0));
        let mut c = controller(4);
        let reads = c.run_until_quiet(&mut medium, 8);
        assert!(
            reads.len() < 3,
            "reads at −10 dB SNR should mostly fail (got {})",
            reads.len()
        );
    }

    #[test]
    fn reads_carry_the_tags_channel() {
        let mut medium = MockMedium::new(1, Db::new(30.0));
        let mut c = controller(5);
        let reads = c.run_until_quiet(&mut medium, 10);
        // Tag i's mock channel is 1e-3·(i + 1)∠i.
        assert_eq!(reads[0].channel, Complex::from_polar(1e-3, 0.0));
    }

    #[test]
    fn decode_probability_shape() {
        let floor = Db::new(3.0);
        assert!(decode_probability(Db::new(20.0), floor) > 0.999);
        assert!(decode_probability(Db::new(-10.0), floor) < 0.001);
        let at_floor = decode_probability(Db::new(3.0), floor);
        assert!((at_floor - 0.5).abs() < 1e-9);
        // Monotone.
        let mut prev = 0.0;
        for s in -20..30 {
            let p = decode_probability(Db::new(s as f64), floor);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn decode_probability_saturates_cleanly_at_extreme_snr() {
        let floor = Db::new(3.0);
        // ±inf-adjacent inputs: the logistic saturates to exactly 0 or
        // 1 (never NaN), even when the exponent itself overflows.
        assert_eq!(decode_probability(Db::new(1e308), floor), 1.0);
        assert_eq!(decode_probability(Db::new(-1e308), floor), 0.0);
        assert_eq!(
            decode_probability(Db::new(f64::MAX), Db::new(-f64::MAX)),
            1.0
        );
        assert_eq!(
            decode_probability(Db::new(-f64::MAX), Db::new(f64::MAX)),
            0.0
        );
        // The knee sits at exactly a coin flip whenever snr == floor,
        // for any floor.
        for f in [-40.0, 0.0, 3.0, 97.5] {
            assert_eq!(decode_probability(Db::new(f), Db::new(f)), 0.5);
        }
    }

    /// One reply whose channel power is `power_db` above 0 dB-ref.
    fn obs_at(power_db: f64, snr: Db) -> Observation {
        Observation {
            frame: Bits::from_str01("1010110010101100"),
            channel: Complex::from_polar(Db::new(power_db).amplitude(), 0.0),
            snr,
        }
    }

    #[test]
    fn capture_effect_rescues_only_above_the_margin() {
        // Strongest reply a hair above the capture margin: the capture
        // branch fires, and at sky-high SNR the slot resolves Single to
        // the strongest observation.
        let mut c = controller(7);
        let above = vec![
            obs_at(CAPTURE_MARGIN_DB + 0.05, Db::new(200.0)),
            obs_at(0.0, Db::new(200.0)),
        ];
        let (outcome, winner) = c.resolve(&above);
        assert_eq!(outcome, SlotOutcome::Single);
        assert_eq!(winner.expect("captured winner").channel, above[0].channel);

        // A hair below the margin: never rescued, no matter the SNR or
        // the decode draw.
        for seed in 0..32 {
            let mut c = controller(seed);
            let below = vec![
                obs_at(CAPTURE_MARGIN_DB - 0.05, Db::new(200.0)),
                obs_at(0.0, Db::new(200.0)),
            ];
            let (outcome, winner) = c.resolve(&below);
            assert_eq!(outcome, SlotOutcome::Collision);
            assert!(winner.is_none());
        }
    }

    #[test]
    fn equal_power_collision_is_never_captured() {
        // Three equal-power replies: the best-to-rest ratio is ~-3 dB,
        // far under the margin.
        for seed in 0..16 {
            let mut c = controller(400 + seed);
            let slot = vec![
                obs_at(0.0, Db::new(200.0)),
                obs_at(0.0, Db::new(200.0)),
                obs_at(0.0, Db::new(200.0)),
            ];
            let (outcome, _) = c.resolve(&slot);
            assert_eq!(outcome, SlotOutcome::Collision);
        }
    }

    #[test]
    fn captured_decode_runs_at_the_weaker_of_margin_and_snr() {
        // The power ratio clears the margin by 54 dB, but the reply's
        // own post-integration SNR is hopeless: the decode SINR is
        // min(ratio, snr), so capture must still fail.
        for seed in 0..32 {
            let mut c = controller(100 + seed);
            let slot = vec![obs_at(60.0, Db::new(-200.0)), obs_at(0.0, Db::new(-200.0))];
            let (outcome, winner) = c.resolve(&slot);
            assert_eq!(outcome, SlotOutcome::Collision);
            assert!(winner.is_none());
        }
    }

    #[test]
    fn single_reply_at_hopeless_snr_reads_as_collision() {
        // A lone undecodable reply is energy-without-decode: the Q
        // algorithm must see Collision, not Empty.
        for seed in 0..16 {
            let mut c = controller(200 + seed);
            let slot = [obs_at(0.0, Db::new(-200.0))];
            let (outcome, winner) = c.resolve(&slot);
            assert_eq!(outcome, SlotOutcome::Collision);
            assert!(winner.is_none());
        }
    }

    /// Records every command and answers none.
    #[derive(Default)]
    struct RecordingMedium {
        sent: Vec<Command>,
    }

    impl Medium for RecordingMedium {
        fn transact(&mut self, cmd: &Command) -> Vec<Observation> {
            self.sent.push(cmd.clone());
            Vec::new()
        }
    }

    #[test]
    fn a_round_opens_with_the_configs_query() {
        let mut medium = RecordingMedium::default();
        controller(8).run_round(&mut medium);
        let q = QAlgorithm::default_start().q();
        let expected = ReaderConfig::usrp_default().query(q);
        assert_eq!(medium.sent.first(), Some(&expected));

        // Planted control: the same check rejects a Query in another
        // session.
        let other_session = Command::Query {
            dr: DR,
            m: TagEncoding::Fm0,
            trext: ReaderConfig::TREXT,
            sel: ReaderConfig::usrp_default().sel,
            session: Session::S1,
            target: ReaderConfig::TARGET,
            q,
        };
        assert_ne!(ReaderConfig::SESSION, Session::S1);
        assert_ne!(medium.sent.first(), Some(&other_session));
    }

    #[test]
    fn adaptive_round_handles_large_population() {
        // 200 tags against a starting Q of 4: without in-round
        // QueryAdjust the round would drown in collisions. The adaptive
        // controller should still read the bulk of the population within
        // a couple of rounds.
        let mut medium = MockMedium::new(200, Db::new(30.0));
        let mut c = controller(6);
        let r1 = c.run_round(&mut medium);
        let r2 = c.run_round(&mut medium);
        let total = r1.reads.len() + r2.reads.len();
        assert!(
            total >= 160,
            "only {total}/200 tags read in two adaptive rounds"
        );
        assert!(r1.collisions > 0, "a 200-tag round must see collisions");
    }
}

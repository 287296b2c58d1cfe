//! The phasor-level world: geometry + link budgets + protocol, exposed
//! to the reader stack through the one propagation core,
//! [`crate::medium::WorldMedium`].
//!
//! Two media over the same world state cover the paper's two baselines:
//!
//! * [`WorldMedium::direct`](crate::medium::WorldMedium::direct) —
//!   reader ↔ tags with no relay (the Fig. 11 baseline),
//! * [`WorldMedium::relayed`](crate::medium::WorldMedium::relayed) —
//!   reader ↔ relay ↔ tags, with the drone-borne relay at a given
//!   position, the embedded RFID, the §6.1 gain plan, the PA
//!   compression cap and the Eq. 3 stability gate — a fleet of one.
//!
//! Both return the same `WorldMedium` type behind the same `Medium`
//! trait, so the identical unmodified reader stack runs against either
//! — the paper's protocol-transparency claim, enforced by the type
//! system.

use rfly_dsp::rng::StdRng;

use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_channel::link::Backscatter;
use rfly_core::relay::gains::{allocate, GainPlan, IsolationBudget, PA_COMPRESSION};
use rfly_core::relay::RelayConfig;
use rfly_dsp::noise::noise_sample;
use rfly_dsp::units::{Db, Dbm, Hertz, Seconds};
use rfly_dsp::Complex;
use rfly_protocol::epc::Epc;
use rfly_protocol::session::TagFlags;
use rfly_protocol::tag_state::TagMachine;
use rfly_reader::config::ReaderConfig;
use rfly_tag::population::TagPopulation;

/// Phasor-level parameters of the relay build flown in a scenario.
#[derive(Debug, Clone)]
pub struct RelayModel {
    /// Reader-side frequency f₁.
    pub f1: Hertz,
    /// Tag-side frequency f₂ = f₁ + Δ.
    pub f2: Hertz,
    /// Gain plan (downlink powers tags; uplink boosts replies).
    pub gains: GainPlan,
    /// The constant complex factor of the relay hardware chain
    /// (mirrored architecture: constant; it cancels in Eq. 10).
    pub hw_constant: Complex,
    /// Mirrored wiring. When false, every transaction picks a fresh
    /// random phase — localization through such a relay fails (Fig. 10's
    /// point).
    pub mirrored: bool,
    /// Eq. 3 stability gate: the relay only operates while the
    /// reader→relay path loss stays below this isolation.
    pub stability_isolation: Db,
    /// PA output cap (1 dB compression, §6.1).
    pub pa_limit: Dbm,
    /// The embedded RFID's fixed relay-local one-way channel.
    pub embedded_local: Complex,
    /// Extra SNR penalty applied to every relayed observation (used by
    /// the Fig. 14 projected-distance methodology: emulate a longer
    /// reader-relay half-link by degrading measurement SNR without
    /// moving the geometry).
    pub snr_penalty: Db,
}

impl RelayModel {
    /// Gain of each relay antenna, dBi.
    pub const ANTENNA_GAIN: Db = Db::new(2.0);

    /// Builds the model from a measured isolation budget using the
    /// §6.1 allocator (10 dB margin, −40 dBm design input; stronger
    /// inputs are handled by the runtime PA-compression cap).
    pub fn from_budget(f1: Hertz, shift: Hertz, budget: &IsolationBudget) -> Self {
        let gains = allocate(budget, Db::new(10.0), Dbm::new(-40.0));
        Self {
            f1,
            f2: f1 + shift,
            gains,
            hw_constant: Complex::from_polar(1.0, 0.83),
            mirrored: true,
            stability_isolation: budget
                .intra_downlink
                .min(budget.inter_downlink)
                .min(budget.inter_uplink),
            pa_limit: PA_COMPRESSION,
            embedded_local: Complex::from_polar(0.31, 1.37),
            snr_penalty: Db::new(0.0),
        }
    }

    /// The paper-median prototype (Fig. 9 isolations).
    pub fn prototype(f1: Hertz) -> Self {
        Self::from_budget(f1, RelayConfig::SHIFT, &IsolationBudget::fig9())
    }
}

/// The SNR attached to an observation is the decoder's *post-fit*
/// estimate SNR (see `rfly_reader::decoder`): channel-estimate noise is
/// therefore `|h|²/SNR` directly, with no further processing gain.
const EST_GAIN: f64 = 1.0;

/// The complete phasor world.
#[derive(Debug)]
pub struct PhasorWorld {
    /// The RF environment.
    pub environment: Environment,
    /// Reader antenna position.
    pub reader_pos: Point2,
    /// Reader configuration.
    pub config: ReaderConfig,
    /// Tags in the environment.
    pub tags: TagPopulation,
    /// The relay-embedded RFID (§5.1): a stock Gen2 tag on the relay
    /// PCB, so a plain [`TagMachine`]. It serves three roles:
    ///
    /// 1. its channel, as seen by the reader, is *purely* the
    ///    reader↔relay half-link — the divisor of Eq. 10's
    ///    disentanglement;
    /// 2. it abides by Gen2 anti-collision, so it coexists with the tags
    ///    in the environment without protocol changes;
    /// 3. decoding it at all tells the reader the drone is in radio
    ///    range (it is always within the relay's own powering range).
    ///
    /// Unlike environment tags it is *always powered* when the relay is
    /// on (it sits centimeters from the relay's transmit antenna), so it
    /// has no harvester.
    pub embedded: TagMachine,
    /// The relay model.
    pub relay: RelayModel,
    /// Extra attenuation applied to every reader-side link (large-scale
    /// shadowing drawn per trial by experiments; 0 dB by default).
    pub reader_link_extra_loss: Db,
    pub(crate) backscatter: Backscatter,
    pub(crate) rng: StdRng,
}

impl PhasorWorld {
    /// Assembles a world. The embedded tag's EPC is reserved as
    /// `Epc::from_index(u64::MAX)`.
    pub fn new(
        environment: Environment,
        reader_pos: Point2,
        config: ReaderConfig,
        tags: TagPopulation,
        relay: RelayModel,
        seed: u64,
    ) -> Self {
        Self {
            environment,
            reader_pos,
            config,
            tags,
            embedded: TagMachine::new(Self::embedded_epc(), seed ^ 0xE0E0),
            relay,
            reader_link_extra_loss: Db::new(0.0),
            backscatter: Backscatter::passive_tag(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The reserved EPC of the relay-embedded tag.
    pub fn embedded_epc() -> Epc {
        Epc::from_index(u64::MAX)
    }

    /// Power-cycles every tag (including the embedded one): called
    /// between measurement positions, where tags lose illumination as
    /// the drone moves (session-0 inventory state decays).
    pub fn power_cycle_tags(&mut self) {
        for t in self.tags.tags_mut() {
            t.illuminate(Dbm::new(-90.0), Seconds::new(1.0));
        }
        self.embedded.power_cycle();
    }

    /// One-way channel between two points at `f` through the scene.
    /// Links originating at the reader additionally pay the per-trial
    /// shadowing loss.
    pub(crate) fn one_way(&self, a: Point2, b: Point2, f: Hertz) -> Complex {
        let h = self.environment.trace(a, b, f).channel(f);
        if a == self.reader_pos || b == self.reader_pos {
            h * (-self.reader_link_extra_loss).amplitude()
        } else {
            h
        }
    }

    /// Adds estimation noise to a channel observation at a given SNR,
    /// passed as a linear ratio (`Db::linear`) so callers can hoist it.
    pub(crate) fn observe_channel(&mut self, h: Complex, snr_linear: f64) -> Complex {
        let noise_power = h.norm_sq() / (snr_linear * EST_GAIN);
        h + noise_sample(&mut self.rng, noise_power)
    }

    /// Captures the world's cross-step mutable state at a step
    /// boundary: the observation-noise RNG plus every tag machine's RNG
    /// stream and persistent Gen2 flags (the embedded RFID included).
    ///
    /// Tag *protocol* state is canonical at a step boundary — every
    /// inventory stop ends in [`Self::power_cycle_tags`], which resets
    /// harvesters and machines — so a snapshot taken there, restored
    /// into an identically-constructed world, continues the simulation
    /// bit-identically (the `rfly-replay` crash-consistency property).
    pub fn snapshot(&self) -> WorldSnapshot {
        WorldSnapshot {
            rng: self.rng_state(),
            embedded_rng: self.embedded.rng_state(),
            embedded_flags: self.embedded.flags().snapshot(),
            tags: self
                .tags
                .tags()
                .iter()
                .map(|t| TagSnapshot {
                    epc: t.epc(),
                    rng: t.rng_state(),
                    flags: t.flags_snapshot(),
                })
                .collect(),
        }
    }

    /// The observation-noise RNG stream state — the cheapest possible
    /// divergence probe: any extra or missing draw anywhere in a step
    /// shows up here.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores a [`Self::snapshot`] into this world. The world must
    /// have been constructed identically to the snapshotted one (same
    /// scene, tags, and seed); tag identity is checked by EPC.
    pub fn restore(&mut self, snap: &WorldSnapshot) -> Result<(), WorldRestoreError> {
        if snap.tags.len() != self.tags.len() {
            return Err(WorldRestoreError::TagCountMismatch {
                world: self.tags.len(),
                snapshot: snap.tags.len(),
            });
        }
        for (tag, ts) in self.tags.tags_mut().iter_mut().zip(&snap.tags) {
            if tag.epc() != ts.epc {
                return Err(WorldRestoreError::EpcMismatch { snapshot: ts.epc });
            }
            tag.restore_rng_state(ts.rng);
            tag.restore_flags_snapshot(ts.flags);
        }
        self.embedded.restore_rng_state(snap.embedded_rng);
        self.embedded
            .restore_flags(TagFlags::from_bits(snap.embedded_flags));
        self.rng = StdRng::from_state(snap.rng);
        Ok(())
    }
}

/// One tag's cross-step mutable state (see [`PhasorWorld::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagSnapshot {
    /// The tag's EPC (identity check on restore).
    pub epc: Epc,
    /// The tag machine's RNG stream state.
    pub rng: [u64; 4],
    /// The persistent Gen2 flags, packed per `TagFlags::snapshot`.
    pub flags: u8,
}

/// The world's cross-step mutable state at a step boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSnapshot {
    /// The observation-noise RNG state.
    pub rng: [u64; 4],
    /// The embedded RFID machine's RNG stream state.
    pub embedded_rng: [u64; 4],
    /// The embedded RFID's persistent flags, packed.
    pub embedded_flags: u8,
    /// Per-environment-tag state, in population order.
    pub tags: Vec<TagSnapshot>,
}

/// Why a [`PhasorWorld::restore`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldRestoreError {
    /// The snapshot's tag count differs from the world's.
    TagCountMismatch {
        /// Tags in the world being restored into.
        world: usize,
        /// Tags recorded in the snapshot.
        snapshot: usize,
    },
    /// A snapshot entry's EPC does not match the world's tag at the
    /// same population index.
    EpcMismatch {
        /// The snapshot entry's EPC.
        snapshot: Epc,
    },
}

impl std::fmt::Display for WorldRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldRestoreError::TagCountMismatch { world, snapshot } => {
                write!(f, "snapshot has {snapshot} tags, world has {world}")
            }
            WorldRestoreError::EpcMismatch { snapshot } => {
                write!(f, "snapshot tag {snapshot:?} not at its world index")
            }
        }
    }
}

impl std::error::Error for WorldRestoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::WorldMedium;
    use rfly_reader::inventory::{InventoryController, Medium};
    use rfly_tag::tag::PassiveTag;

    fn world_with_tag(tag_pos: Point2, reader_pos: Point2, seed: u64) -> PhasorWorld {
        let mut tags = TagPopulation::new();
        tags.add(
            PassiveTag::new(Epc::from_index(1), 7, tag_pos),
            "test".into(),
        );
        PhasorWorld::new(
            Environment::free_space(),
            reader_pos,
            ReaderConfig::usrp_default(),
            tags,
            RelayModel::prototype(Hertz::mhz(915.0)),
            seed,
        )
    }

    fn inventory(medium: &mut dyn Medium, seed: u64) -> Vec<rfly_reader::inventory::TagRead> {
        let mut c =
            InventoryController::new(ReaderConfig::usrp_default(), StdRng::seed_from_u64(seed));
        c.run_until_quiet(medium, 10)
    }

    #[test]
    fn direct_link_reads_nearby_tag_only() {
        // 4 m: within direct range.
        let mut w = world_with_tag(Point2::new(4.0, 0.0), Point2::ORIGIN, 1);
        let reads = inventory(&mut WorldMedium::direct(&mut w), 1);
        assert!(reads.iter().any(|r| r.epc == Epc::from_index(1)));

        // 20 m: tag cannot power up directly.
        let mut w2 = world_with_tag(Point2::new(20.0, 0.0), Point2::ORIGIN, 2);
        let reads2 = inventory(&mut WorldMedium::direct(&mut w2), 2);
        assert!(reads2.is_empty());
    }

    #[test]
    fn relay_extends_range_by_an_order_of_magnitude() {
        // Tag 50 m from the reader, relay hovering 2 m from the tag:
        // the headline result.
        let mut w = world_with_tag(Point2::new(50.0, 0.0), Point2::ORIGIN, 3);
        let reads = inventory(&mut WorldMedium::relayed(&mut w, Point2::new(48.0, 0.0)), 3);
        assert!(
            reads.iter().any(|r| r.epc == Epc::from_index(1)),
            "tag not read through the relay"
        );
        // The embedded tag is read too — the relay-in-range signal.
        assert!(reads.iter().any(|r| r.epc == PhasorWorld::embedded_epc()));
    }

    #[test]
    fn relay_cannot_power_a_far_tag() {
        // Relay 30 m from the tag: the relay-tag half-link is still
        // power-limited to a few meters (§4.3's point).
        let mut w = world_with_tag(Point2::new(50.0, 0.0), Point2::ORIGIN, 4);
        let reads = inventory(&mut WorldMedium::relayed(&mut w, Point2::new(20.0, 0.0)), 4);
        assert!(!reads.iter().any(|r| r.epc == Epc::from_index(1)));
        // But the embedded tag still reads (it's on the relay).
        assert!(reads.iter().any(|r| r.epc == PhasorWorld::embedded_epc()));
    }

    #[test]
    fn stability_gate_silences_an_out_of_range_relay() {
        // Reader→relay loss beyond the isolation: Eq. 3 violated.
        let mut w = world_with_tag(Point2::new(400.0, 0.0), Point2::ORIGIN, 5);
        let medium = WorldMedium::relayed(&mut w, Point2::new(399.0, 0.0));
        assert!(!medium.stable());
        let mut w2 = world_with_tag(Point2::new(400.0, 0.0), Point2::ORIGIN, 5);
        let reads = inventory(
            &mut WorldMedium::relayed(&mut w2, Point2::new(399.0, 0.0)),
            5,
        );
        assert!(reads.is_empty());
    }

    #[test]
    fn mirrored_channel_phase_is_repeatable_across_positions() {
        // Read the embedded tag twice from the same geometry: phases
        // must agree (constant hw term), enabling SAR.
        let mut w = world_with_tag(Point2::new(30.0, 0.0), Point2::ORIGIN, 6);
        let r1 = inventory(&mut WorldMedium::relayed(&mut w, Point2::new(29.0, 0.0)), 6);
        w.power_cycle_tags();
        let r2 = inventory(&mut WorldMedium::relayed(&mut w, Point2::new(29.0, 0.0)), 7);
        let e1 = r1
            .iter()
            .find(|r| r.epc == PhasorWorld::embedded_epc())
            .unwrap();
        let e2 = r2
            .iter()
            .find(|r| r.epc == PhasorWorld::embedded_epc())
            .unwrap();
        let d = rfly_dsp::complex::phase_distance(e1.channel.arg(), e2.channel.arg());
        assert!(d < 0.05, "phase differs by {d} rad");
    }

    #[test]
    fn no_mirror_phase_is_not_repeatable() {
        let mut w = world_with_tag(Point2::new(30.0, 0.0), Point2::ORIGIN, 8);
        w.relay.mirrored = false;
        let mut phases = Vec::new();
        for k in 0..6 {
            w.power_cycle_tags();
            let reads = inventory(
                &mut WorldMedium::relayed(&mut w, Point2::new(29.0, 0.0)),
                100 + k,
            );
            let e = reads
                .iter()
                .find(|r| r.epc == PhasorWorld::embedded_epc())
                .unwrap();
            phases.push(e.channel.arg());
        }
        let max_d = phases
            .windows(2)
            .map(|w| rfly_dsp::complex::phase_distance(w[0], w[1]))
            .fold(0.0f64, f64::max);
        assert!(max_d > 0.5, "no-mirror phases aligned: {max_d}");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Drive a world for a few stops, snapshot, then compare the
        // continued run against a fresh world fast-forwarded by restore.
        let mut w = world_with_tag(Point2::new(30.0, 0.0), Point2::ORIGIN, 21);
        for k in 0..3 {
            let _ = inventory(
                &mut WorldMedium::relayed(&mut w, Point2::new(29.0, 0.0)),
                50 + k,
            );
            w.power_cycle_tags();
        }
        let snap = w.snapshot();
        let tail = inventory(
            &mut WorldMedium::relayed(&mut w, Point2::new(29.0, 0.0)),
            99,
        );

        let mut w2 = world_with_tag(Point2::new(30.0, 0.0), Point2::ORIGIN, 21);
        w2.restore(&snap).expect("identical construction");
        let tail2 = inventory(
            &mut WorldMedium::relayed(&mut w2, Point2::new(29.0, 0.0)),
            99,
        );

        assert_eq!(tail.len(), tail2.len());
        for (a, b) in tail.iter().zip(&tail2) {
            assert_eq!(a.epc, b.epc);
            assert_eq!(a.channel, b.channel, "channel phasors must match in bits");
            assert_eq!(a.snr.value().to_bits(), b.snr.value().to_bits());
        }
    }

    #[test]
    fn restore_rejects_a_mismatched_world() {
        let w = world_with_tag(Point2::new(30.0, 0.0), Point2::ORIGIN, 22);
        let snap = w.snapshot();
        let mut other = world_with_tag(Point2::new(30.0, 0.0), Point2::ORIGIN, 22);
        other.tags.add(
            PassiveTag::new(Epc::from_index(2), 9, Point2::new(5.0, 0.0)),
            "extra".into(),
        );
        assert!(matches!(
            other.restore(&snap),
            Err(WorldRestoreError::TagCountMismatch { .. })
        ));
    }

    #[test]
    fn snr_decreases_with_reader_distance() {
        let mut snrs = Vec::new();
        for d in [10.0, 30.0, 60.0] {
            let mut w = world_with_tag(Point2::new(d, 0.0), Point2::ORIGIN, 9);
            let reads = inventory(
                &mut WorldMedium::relayed(&mut w, Point2::new(d - 2.0, 0.0)),
                9,
            );
            let e = reads
                .iter()
                .find(|r| r.epc == PhasorWorld::embedded_epc())
                .expect("embedded read");
            snrs.push(e.snr.value());
        }
        assert!(snrs[0] > snrs[1] && snrs[1] > snrs[2], "snrs = {snrs:?}");
    }
}

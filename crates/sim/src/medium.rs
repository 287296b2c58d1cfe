//! The one propagation core behind every air interface.
//!
//! [`WorldMedium`] is the **single** `impl Medium` in the workspace
//! that contains propagation physics. Every topology the paper and its
//! extensions exercise is a configuration of this core:
//!
//! * [`WorldMedium::direct`] — reader ↔ tags, no relay (the Fig. 11
//!   baseline);
//! * [`WorldMedium::fleet_planned`] — reader ↔ serving relay ↔ tags
//!   with the rest of the fleet radiating (coherent/incoherent downlink
//!   superposition, Δf-rejected uplink leakage, TDM serving), assembled
//!   from a [`FleetRf`] plan traced once per stop;
//! * [`WorldMedium::relayed`] — reader ↔ one drone-borne relay ↔ tags:
//!   a one-relay plan followed by `fleet_planned`.
//!
//! [`FleetRf::trace`] is the only place a relayed medium's RF rows are
//! traced.
//!
//! Everything *around* propagation — fault injection, instrumentation,
//! transaction taps — is a `rfly_reader::medium::MediumLayer` stacked
//! on top (`base.layer(faults).layer(obs).layer(tap)`), so behaviors
//! compose instead of each re-implementing the physics glue.
//!
//! Physics notes (unchanged from the pre-refactor media): every relay
//! radiates its downlink carrier continuously, so a tag hears the
//! *sum* of all relay downlinks — coherent within a shared tag-side
//! frequency f₂ ([`rfly_channel::phasor::coherent_sum`]), incoherent
//! across distinct f₂ ([`rfly_channel::phasor::incoherent_power_sum`]).
//! Inventory is TDM through one serving relay; the other relays'
//! carriers leak into the serving uplink after the chain filters' Δf
//! rejection ([`rfly_core::relay::gains::offset_rejection`]).
//!
//! A transaction visits only the tags that can act on its command (see
//! `TagVisits`): incident power is frozen while a medium lives, so
//! the set of powered tags is fixed after the medium's first
//! transaction.

use std::collections::BTreeMap;

use rfly_channel::geometry::Point2;
use rfly_channel::phasor::{coherent_sum, incoherent_power_sum};
use rfly_core::relay::gains::offset_rejection;
use rfly_dsp::rng::{xoshiro256pp_step, Rng, StdRng};
use rfly_dsp::units::{Db, Dbm};
use rfly_dsp::Complex;
use rfly_protocol::commands::Command;
use rfly_protocol::session::Session;
use rfly_protocol::tag_state::{adjusted_q, draw_slot, rep_slot, Arbitration, TagReply, TagState};
use rfly_reader::config::ReaderConfig;
use rfly_reader::inventory::{Medium, Observation};
use rfly_tag::tag::PassiveTag;

use crate::world::{PhasorWorld, RelayModel};

/// One fleet member: a relay build and where its drone hovers.
#[derive(Debug, Clone)]
pub struct FleetRelay {
    /// The relay's phasor-level model (frequencies, gains, caps).
    pub model: RelayModel,
    /// Drone hover position.
    pub pos: Point2,
}

/// Beyond this relay→tag distance a 29 dBm downlink is ≥ 20 dB under
/// the −15 dBm power-up threshold, so the relay's field is left out of
/// the tag's incident sum.
const INCIDENT_CULL_M: f64 = 25.0;

/// Tag counts below this stay on the serial trace path: per-tag work
/// is too small to amortize spawning pool workers (the lesson from the
/// first, bench-level parallelization attempt that lost to serial).
const PAR_MIN_TAGS: usize = 64;

/// Tags per pool task on the parallel trace path: large enough to
/// amortize the per-task claim, small enough to load-balance.
const PAR_CHUNK: usize = 32;

/// The fleet-summed incident power (mW) at one point: groups the relay
/// fields by tag-side frequency, sums each group coherently, then adds
/// group powers incoherently. `h2[j]` is relay `j`'s one-way channel to
/// `at` at its f₂; relays beyond the cull radius are skipped.
fn fleet_incident_mw(relays: &[FleetRelay], eirps: &[Dbm], at: Point2, h2: &[Complex]) -> f64 {
    let mut groups: BTreeMap<u64, Vec<Complex>> = BTreeMap::new();
    for (j, (r, &eirp)) in relays.iter().zip(eirps).enumerate() {
        if r.pos.distance(at) > INCIDENT_CULL_M {
            continue;
        }
        let amp = eirp.milliwatts().sqrt();
        groups
            .entry(r.model.f2.as_hz().to_bits())
            .or_default()
            .push(h2[j] * amp);
    }
    incoherent_power_sum(
        groups
            .into_values()
            .map(|fields| coherent_sum(fields).norm_sq()),
    )
}

/// The relayed link state: the fleet, the serving index, the per-stop
/// RF caches, and the serving relay's per-transaction constants.
/// Geometry and gains are frozen while the medium lives, so all of it
/// is computed once when the link is built instead of once per
/// transact — which is what keeps a warehouse mission tractable.
#[derive(Debug)]
struct RelayLink {
    relays: Vec<FleetRelay>,
    serving: usize,
    /// One-way reader→relay channel at each relay's f₁.
    h1: Vec<Complex>,
    /// Per-tag cache: fleet-summed incident power and the serving
    /// relay's one-way tag channel.
    tag_rf: Vec<(Dbm, Complex)>,
    /// Fleet leakage into the serving uplink, linear mW: folded into
    /// `denom`, kept for the full-scan reference in the tests.
    #[cfg(test)]
    leakage_mw: f64,
    /// The serving relay's effective downlink gain after the PA cap.
    g_dl_eff: Db,
    /// The serving relay's PA-capped downlink output power.
    output: Dbm,
    /// The serving relay's radiated downlink EIRP.
    eirp: Dbm,
    /// Effective noise floor: receiver noise plus the fleet's leaked
    /// carriers, summed in linear power.
    denom: Dbm,
    /// Per-tag reply constants through the serving relay: the SNR, the
    /// same SNR as a linear ratio, and the round-trip channel before
    /// the per-transaction relay phase.
    uplink: Vec<(Db, f64, Complex)>,
    /// The serving relay's Eq. 3 stability gate.
    stable: bool,
}

/// Relay `i`'s PA-capped downlink output power at its tag-side port.
/// Pure in `(world state, relays, h1)` — shared by the live link and
/// the [`FleetRf`] plan so both compute bit-identical values.
fn relay_output_of(world: &PhasorWorld, relays: &[FleetRelay], h1: &[Complex], i: usize) -> Dbm {
    let r = &relays[i].model;
    let p_in = world.config.tx_power
        + ReaderConfig::ANTENNA_GAIN
        + Db::from_linear(h1[i].norm_sq())
        + RelayModel::ANTENNA_GAIN;
    let amplified = p_in + r.gains.downlink;
    Dbm::new(amplified.value().min(r.pa_limit.value()))
}

/// A relay's effective downlink amplitude gain after the PA cap, from
/// its reader channel `h1`.
fn effective_downlink_gain(world: &PhasorWorld, relay: &FleetRelay, h1: Complex) -> Db {
    let r = &relay.model;
    let p_in = world.config.tx_power
        + ReaderConfig::ANTENNA_GAIN
        + Db::from_linear(h1.norm_sq())
        + RelayModel::ANTENNA_GAIN;
    Db::new(
        r.gains
            .downlink
            .value()
            .min(r.pa_limit.value() - p_in.value()),
    )
}

/// Radiated downlink EIRP of every relay (output + antenna gain).
fn fleet_eirps(world: &PhasorWorld, relays: &[FleetRelay], h1: &[Complex]) -> Vec<Dbm> {
    (0..relays.len())
        .map(|i| relay_output_of(world, relays, h1, i) + RelayModel::ANTENNA_GAIN)
        .collect()
}

/// Interference power reaching the reader through the serving relay's
/// uplink from every other relay's downlink carrier, attenuated by the
/// chain filters' Δf rejection
/// ([`rfly_core::relay::gains::offset_rejection`]). Linear milliwatts.
fn fleet_leakage_mw(
    world: &PhasorWorld,
    relays: &[FleetRelay],
    h1: &[Complex],
    serving: usize,
) -> f64 {
    let s = serving;
    let sm = &relays[s].model;
    let reader_side = Db::from_linear(h1[s].norm_sq()) + ReaderConfig::ANTENNA_GAIN;
    incoherent_power_sum((0..relays.len()).filter(|&j| j != s).map(|j| {
        let jm = &relays[j].model;
        let coupling = world.one_way(relays[j].pos, relays[s].pos, jm.f2);
        let offset = jm.f2 - sm.f2;
        let leak = relay_output_of(world, relays, h1, j)
            + RelayModel::ANTENNA_GAIN
            + Db::from_linear(coupling.norm_sq())
            + RelayModel::ANTENNA_GAIN
            + sm.gains.uplink
            - offset_rejection(offset)
            + reader_side;
        leak.milliwatts()
    }))
}

/// Receiver noise plus `leakage_mw` of leaked fleet carriers, summed in
/// linear power: the denominator of every relayed observation's SNR.
fn noise_plus_leakage(world: &PhasorWorld, leakage_mw: f64) -> Dbm {
    let noise_floor = world.config.link_budget().noise_floor();
    Dbm::from_milliwatts(noise_floor.milliwatts() + leakage_mw)
}

impl RelayLink {
    /// Assembles a link from its traced rows and hoists the serving
    /// relay's per-transaction constants.
    fn new(
        world: &PhasorWorld,
        relays: Vec<FleetRelay>,
        serving: usize,
        h1: Vec<Complex>,
        tag_rf: Vec<(Dbm, Complex)>,
        leakage_mw: f64,
    ) -> Self {
        let output = relay_output_of(world, &relays, &h1, serving);
        let stable = stability_probe(&relays[serving], h1[serving]);
        let mut link = Self {
            g_dl_eff: effective_downlink_gain(world, &relays[serving], h1[serving]),
            output,
            eirp: output + RelayModel::ANTENNA_GAIN,
            denom: noise_plus_leakage(world, leakage_mw),
            relays,
            serving,
            h1,
            tag_rf,
            #[cfg(test)]
            leakage_mw,
            uplink: Vec::new(),
            stable,
        };
        link.uplink = link.uplink_rows(world);
        link
    }

    /// Every tag's reply constants through the serving relay (see
    /// [`Self::uplink`]): backscatter of the serving carrier, the
    /// relay's uplink chain and antennas, and the reader side, against
    /// the noise-plus-leakage floor.
    fn uplink_rows(&self, world: &PhasorWorld) -> Vec<(Db, f64, Complex)> {
        let model = &self.relays[self.serving].model;
        let (g_ul, ant) = (model.gains.uplink, RelayModel::ANTENNA_GAIN);
        let bs_gain = world.backscatter.gain();
        let reader_gain = ReaderConfig::ANTENNA_GAIN;
        let h1 = self.h1[self.serving];
        let (g_dl_amp, g_ul_amp) = (self.g_dl_eff.amplitude(), g_ul.amplitude());
        self.tag_rf
            .iter()
            .map(|&(_, h2)| {
                let incident = self.eirp + Db::from_linear(h2.norm_sq());
                let p_rx = incident
                    + bs_gain
                    + Db::from_linear(h2.norm_sq())
                    + ant // serving uplink RX antenna
                    + g_ul
                    + ant // serving uplink TX antenna
                    + Db::from_linear(h1.norm_sq())
                    + reader_gain;
                let snr = p_rx - self.denom - model.snr_penalty;
                (snr, snr.linear(), h1 * h1 * h2 * h2 * g_dl_amp * g_ul_amp)
            })
            .collect()
    }
}

/// The serving relay's Eq. 3 stability gate, from its already-traced
/// reader channel: path loss at or below the relay's self-interference
/// isolation.
fn stability_probe(relay: &FleetRelay, h1: Complex) -> bool {
    let loss = -Db::from_linear(h1.norm_sq()).value();
    loss <= relay.model.stability_isolation.value()
}

/// A step's fleet RF plan: every *pure* propagation quantity a mission
/// stop needs — reader→relay channels, PA-capped EIRPs, per-tag
/// fleet-summed incident power, every relay→tag channel, and the
/// per-candidate-serving uplink leakage — traced **once** per step and
/// shared across all of the step's TDM servings.
///
/// This is the plan half of the mission engine's
/// plan → parallel-execute → ordered-merge contract: the plan is a
/// pure function of frozen geometry, so its per-tag rows fan out over
/// the [`crate::pool::Pool`] (merged in tag order), while everything
/// stateful — tag protocol machines, RNG draws, inventory merges —
/// stays on the caller's thread in the original serial order. The
/// serving loop then builds one [`WorldMedium::fleet_planned`] per
/// serving without re-tracing, which also removes the old
/// `n_servings × n_tags` re-trace inside a step.
///
/// The plan freezes geometry: it must be re-traced after tags or
/// drones move (`run_mission` re-plans every step).
#[derive(Debug, Clone)]
pub struct FleetRf {
    relays: Vec<FleetRelay>,
    /// One-way reader→relay channel at each relay's f₁.
    h1: Vec<Complex>,
    /// Per-tag fleet-summed incident power (serving-independent:
    /// powering is fleet-wide).
    incident: Vec<Dbm>,
    /// `h2[tag][relay]`: relay→tag one-way channel at that relay's f₂.
    h2: Vec<Vec<Complex>>,
    /// Fleet leakage into the uplink for each candidate serving, mW.
    leakage_mw: Vec<f64>,
}

impl FleetRf {
    /// Traces the full plan for `relays` over the world's current tag
    /// field. Byte-identical at any pool worker count.
    pub fn trace(world: &PhasorWorld, relays: Vec<FleetRelay>) -> Self {
        let h1: Vec<Complex> = relays
            .iter()
            .map(|r| world.one_way(world.reader_pos, r.pos, r.model.f1))
            .collect();
        let eirps = fleet_eirps(world, &relays, &h1);
        let positions: Vec<Point2> = world.tags.tags().iter().map(|t| t.position()).collect();
        let row = |&p: &Point2| {
            // Each relay→tag channel is traced once: the incident sum
            // reads the row by relay index.
            let h2 = relays
                .iter()
                .map(|r| world.one_way(r.pos, p, r.model.f2))
                .collect::<Vec<Complex>>();
            let incident = Dbm::from_milliwatts(fleet_incident_mw(&relays, &eirps, p, &h2));
            (incident, h2)
        };
        let rows: Vec<(Dbm, Vec<Complex>)> = if positions.len() < PAR_MIN_TAGS {
            positions.iter().map(row).collect()
        } else {
            crate::pool::Pool::global().map_chunked(positions.len(), PAR_CHUNK, |range| {
                positions[range].iter().map(row).collect()
            })
        };
        let leakage_mw = (0..relays.len())
            .map(|s| fleet_leakage_mw(world, &relays, &h1, s))
            .collect();
        let (incident, h2) = rows.into_iter().unzip();
        Self {
            relays,
            h1,
            incident,
            h2,
            leakage_mw,
        }
    }

    /// The Eq. 3 stability gate for candidate serving `s`, from the
    /// plan's already-traced reader channel — exactly the value
    /// [`WorldMedium::stable`] would compute, without building a
    /// medium.
    pub fn stable(&self, s: usize) -> bool {
        stability_probe(&self.relays[s], self.h1[s])
    }
}

/// Which link topology the core is simulating.
#[derive(Debug)]
enum Link {
    /// Reader ↔ tags, no relay: each tag's one-way reader channel and
    /// the incident power it delivers, traced when the link is built.
    Direct(Vec<(Complex, Dbm)>),
    /// Reader ↔ serving relay ↔ tags, rest of the fleet radiating.
    Relayed(RelayLink),
}

/// The tags a medium's transactions visit: two ascending index lists
/// that make a Gen2 transaction cost the tags that can act on it, not
/// the whole tag field, and the arbitration [`Lanes`] that run a
/// QueryRep or QueryAdjust over dense register arrays. The medium's
/// first transaction past the stability gate scans every tag and builds
/// both lists. After that, `Query` and `Select` visit `live`, and every
/// other command visits `engaged` only.
///
/// The lists cost two `usize` vectors per medium (at most one entry
/// per tag each) and one scan of the field. They are exact — every tag
/// state, RNG draw and reply matches a full scan, in the same order —
/// because of four invariants:
///
/// 1. **Incident power is frozen while a medium lives.** The medium
///    holds the world's only mutable borrow and its per-tag incident
///    power is traced once. After the first visit, a tag that is not
///    sustained is unpowered, and [`PassiveTag::respond`] returns
///    `None` without touching any state.
/// 2. **A `Ready` tag ignores QueryRep, QueryAdjust, Ack and Nak**
///    (`rfly_protocol::tag_state::TagMachine::handle`). Only `Query`
///    and `Select` can move a tag out of `Ready` ([`wakes_ready_tags`]),
///    and no other command moves one into `engaged`, so `engaged`
///    always holds every live tag that a narrow command could change.
/// 3. **Every live tag is charged on the first visit.** A sustained,
///    unpowered tag charges for its full `Harvester::CHARGE_TIME` and boots in that
///    visit, so skipping it later never skips a harvester step.
/// 4. **Checked-out lanes are the tag.** A tag in Arbitrate or Reply of
///    session S changes only its [`Arbitration`] registers under
///    `QueryRep(S)` and `QueryAdjust(S)`: RNG, slot counter, Q, Reply
///    vs Arbitrate and RN16. Neither command changes its session, flags
///    or harvester, or moves it out of Arbitrate or Reply. So the first
///    of those commands checks the registers of every such engaged tag
///    out into the lanes ([`Self::check_out`]), and the commands step
///    them there; the copy on the tag is stale until
///    [`Self::check_in`] writes the lanes back. Every other command, a
///    QueryRep or QueryAdjust of another session, and `WorldMedium`'s
///    `Drop` check the lanes in first.
///
/// While lanes are checked out, their tags leave `engaged`, which then
/// holds the rest: Acknowledged tags, tags of another session,
/// and the stale `Ready` ones. A lane pass visits the rest with
/// [`PassiveTag::query_rep`] or [`PassiveTag::query_adjust`]; none of
/// them can reply to either command, so every reply comes from a lane.
/// Those steps skip [`PassiveTag::respond`], which is exact by
/// invariants 1 and 3: an engaged tag is live, hence powered, and
/// `respond` would only re-check its harvester. Their `debug_assert!`
/// on the harvester is the guard.
///
/// `sim.tag_visits` counts the tag protocol steps that change or could
/// change a tag: every tag a full-field or `live` visit reaches, every
/// engaged tag (lanes included) on a QueryAdjust or another narrow
/// command, and on a QueryRep each lane whose counter is at most 1 plus
/// each other engaged tag in Reply or Acknowledged. A lane with a
/// larger counter only counts down.
///
/// Replies come out in tag-index order, so the per-tag RNG streams and
/// the order of the world RNG draws in `observe_channel` do not change.
#[derive(Debug, Default)]
struct TagVisits {
    /// False until the first transaction has scanned the whole field.
    scanned: bool,
    /// Tags whose frozen incident power sustains their harvester.
    live: Vec<usize>,
    /// Live tags whose state is not `Ready`, less the checked-out
    /// lanes, plus, on a QueryRep streak, the ones a QueryRep just sent
    /// back to `Ready` (the next other narrow command drops them).
    engaged: Vec<usize>,
    /// The arbitration registers checked out of engaged tags.
    lanes: Lanes,
    /// Planted-control bug: `Query` visits `engaged` instead of `live`.
    #[cfg(test)]
    planted_query_on_engaged: bool,
    /// Planted-control bug: check-in leaves each tag's old RN16.
    #[cfg(test)]
    planted_check_in_drops_rn16: bool,
}

/// Arbitration lanes: the [`Arbitration`] registers of the engaged tags
/// that arbitrate in `session`, one dense array per register, in
/// tag-index order (invariant 4 of [`TagVisits`]). Each command is one
/// loop over the arrays that calls the per-tag rules of
/// `rfly_protocol::tag_state` and the generator step of
/// `rfly_dsp::rng`, then a second loop that draws the RN16s of the
/// lanes that entered Reply.
#[derive(Debug, Default)]
struct Lanes {
    /// The session the lanes hold; `None` while checked in.
    session: Option<Session>,
    /// Each lane's tag index, ascending.
    tag: Vec<usize>,
    /// The xoshiro256++ state, one array per state word.
    rng: [Vec<u64>; 4],
    /// Slot counters.
    slot: Vec<u32>,
    /// The Q of each lane's last slot draw.
    q: Vec<u8>,
    /// Reply (true) or Arbitrate.
    reply: Vec<bool>,
    /// The last RN16 each lane backscattered.
    rn16: Vec<u16>,
    /// The Q every lane holds, when they all hold one: after one Query,
    /// every lane does.
    shared_q: Option<u8>,
    /// Planted-control bug: a QueryAdjust at Q = 0 advances the RNG.
    #[cfg(test)]
    planted_draw_at_q0: bool,
}

impl Lanes {
    fn len(&self) -> usize {
        self.tag.len()
    }

    fn push(&mut self, tag: usize, a: Arbitration) {
        self.shared_q = if self.tag.is_empty() {
            Some(a.q)
        } else {
            self.shared_q.filter(|&q| q == a.q)
        };
        self.tag.push(tag);
        for (word, &s) in self.rng.iter_mut().zip(&a.rng) {
            word.push(s);
        }
        self.slot.push(a.slot);
        self.q.push(a.q);
        self.reply.push(a.reply);
        self.rn16.push(a.rn16);
    }

    /// Lane `k`'s registers.
    fn get(&self, k: usize) -> Arbitration {
        Arbitration {
            rng: self.rng.each_ref().map(|word| word[k]),
            slot: self.slot[k],
            q: self.q[k],
            reply: self.reply[k],
            rn16: self.rn16[k],
        }
    }

    fn clear(&mut self) {
        self.session = None;
        self.tag.clear();
        self.rng.iter_mut().for_each(Vec::clear);
        self.slot.clear();
        self.q.clear();
        self.reply.clear();
        self.rn16.clear();
        self.shared_q = None;
    }

    /// `QueryRep(session)`: every lane steps its counter by
    /// [`rep_slot`], and the lanes that reach 0 reply. Returns the lanes
    /// it counts as visits: those whose counter was at most 1.
    fn query_rep(&mut self, out: &mut Vec<(usize, TagReply)>) -> u64 {
        let (slot, reply, q) = (&mut self.slot, &mut self.reply, &self.q);
        let (visits, replied) = match self.shared_q {
            Some(q) => step_counters(slot, reply, |_| q),
            None => step_counters(slot, reply, |k| q[k]),
        };
        self.replies(replied, out);
        u64::from(visits)
    }

    /// `QueryAdjust(session, updn)`: every lane redraws its slot at its
    /// adjusted Q, and the lanes that draw 0 reply.
    fn query_adjust(&mut self, updn: i8, out: &mut Vec<(usize, TagReply)>) {
        for q in &mut self.q {
            *q = adjusted_q(*q, updn);
        }
        self.shared_q = self.shared_q.map(|q| adjusted_q(q, updn));
        #[cfg(test)]
        let planted = self.planted_draw_at_q0;
        #[cfg(not(test))]
        let planted = false;
        let (rng, slot, reply, q) = (&mut self.rng, &mut self.slot, &mut self.reply, &self.q);
        let replied = match self.shared_q {
            Some(q) => redraw(rng, slot, reply, |_| q, planted),
            None => redraw(rng, slot, reply, |k| q[k], planted),
        };
        self.replies(replied, out);
    }

    /// Draws a fresh RN16 for each of the `replied` lanes the last
    /// command sent into Reply and pushes its reply, in tag-index order.
    fn replies(&mut self, replied: u32, out: &mut Vec<(usize, TagReply)>) {
        let mut left = replied;
        for k in 0..self.len() {
            if left == 0 {
                break;
            }
            if self.reply[k] {
                left -= 1;
                let mut rng = StdRng::from_state(self.rng.each_ref().map(|word| word[k]));
                let rn16 = rng.gen();
                for (word, s) in self.rng.iter_mut().zip(rng.state()) {
                    word[k] = s;
                }
                self.rn16[k] = rn16;
                out.push((self.tag[k], TagReply::rn16(rn16)));
            }
        }
    }
}

/// The QueryRep counter loop of [`Lanes`]: lane `k` at Q = `q_of(k)`
/// steps its counter by [`rep_slot`] and replies exactly when the new
/// counter is 0. Returns the lanes whose counter was at most 1 and the
/// lanes that now reply. Each register is read once and written once,
/// so with one shared Q the loop vectorises.
fn step_counters(slot: &mut [u32], reply: &mut [bool], q_of: impl Fn(usize) -> u8) -> (u32, u32) {
    let reply = &mut reply[..slot.len()];
    // u32 counts, as wide as the counters, keep the loop vectorisable.
    let (mut visits, mut replied) = (0u32, 0u32);
    for k in 0..slot.len() {
        let counter = slot[k];
        visits += u32::from(counter <= 1);
        let next = rep_slot(reply[k], counter, q_of(k));
        slot[k] = next;
        reply[k] = next == 0;
        replied += u32::from(next == 0);
    }
    (visits, replied)
}

/// The QueryAdjust draw loop of [`Lanes`]: lane `k` redraws its counter
/// at Q = `q_of(k)` by [`draw_slot`], which takes one word of the lane's
/// generator only when Q > 0, and replies exactly when the new counter
/// is 0. `planted` (a test control, false otherwise) takes a word at
/// Q = 0 too. Returns the lanes that now reply. With one shared Q the
/// loop has no branch that depends on the lane, and it vectorises.
fn redraw(
    rng: &mut [Vec<u64>; 4],
    slot: &mut [u32],
    reply: &mut [bool],
    q_of: impl Fn(usize) -> u8,
    planted: bool,
) -> u32 {
    let n = slot.len();
    let [s0, s1, s2, s3] = rng;
    let (s0, s1, s2, s3) = (&mut s0[..n], &mut s1[..n], &mut s2[..n], &mut s3[..n]);
    let reply = &mut reply[..n];
    let mut replied = 0u32;
    for k in 0..n {
        let mut step = || {
            let (next, word) = xoshiro256pp_step([s0[k], s1[k], s2[k], s3[k]]);
            [s0[k], s1[k], s2[k], s3[k]] = next;
            word
        };
        let q = q_of(k);
        if planted && q == 0 {
            step();
        }
        let next = draw_slot(q, step);
        slot[k] = next;
        reply[k] = next == 0;
        replied += u32::from(next == 0);
    }
    replied
}

/// Whether `cmd` can move a `Ready` tag out of `Ready` (invariant 2 of
/// [`TagVisits`]). Exhaustive, so a new command must be classified.
fn wakes_ready_tags(cmd: &Command) -> bool {
    match cmd {
        Command::Query { .. } | Command::Select { .. } => true,
        Command::QueryRep { .. }
        | Command::QueryAdjust { .. }
        | Command::Ack { .. }
        | Command::Nak => false,
    }
}

/// True for a tag that a command other than `Query`/`Select` may change.
fn is_engaged(tag: &PassiveTag) -> bool {
    tag.state() != TagState::Ready
}

impl TagVisits {
    /// True if `cmd` must visit `live` rather than `engaged` after the
    /// first scan.
    fn visits_live(&self, cmd: &Command) -> bool {
        #[cfg(test)]
        if self.planted_query_on_engaged && matches!(cmd, Command::Query { .. }) {
            return false;
        }
        wakes_ready_tags(cmd)
    }

    /// Checks out the registers of every engaged tag that arbitrates in
    /// `session` into the lanes, unless they already hold `session`.
    fn check_out(&mut self, tags: &mut [PassiveTag], session: Session) {
        if self.lanes.session == Some(session) {
            return;
        }
        self.check_in(tags);
        let mut rest = 0;
        for k in 0..self.engaged.len() {
            let i = self.engaged[k];
            match tags[i].arbitration() {
                Some((s, registers)) if s == session => self.lanes.push(i, registers),
                _ => {
                    self.engaged[rest] = i;
                    rest += 1;
                }
            }
        }
        self.engaged.truncate(rest);
        self.lanes.session = Some(session);
    }

    /// Writes every lane back to its tag and returns the lane tags to
    /// `engaged`. Afterwards every tag holds its exact registers.
    fn check_in(&mut self, tags: &mut [PassiveTag]) {
        if self.lanes.session.is_none() {
            return;
        }
        for (k, &i) in self.lanes.tag.iter().enumerate() {
            let registers = self.lanes.get(k);
            #[cfg(test)]
            let registers = match tags[i].arbitration() {
                Some((_, stale)) if self.planted_check_in_drops_rn16 => Arbitration {
                    rn16: stale.rn16,
                    ..registers
                },
                _ => registers,
            };
            tags[i].set_arbitration(registers);
        }
        self.engaged.extend_from_slice(&self.lanes.tag);
        self.engaged.sort_unstable();
        self.lanes.clear();
    }

    /// Visits every engaged tag with `visit`, in index order, and keeps
    /// only the tags the visit left engaged.
    fn retain_engaged(
        &mut self,
        tags: &mut [PassiveTag],
        mut visit: impl FnMut(usize, &mut PassiveTag),
    ) {
        self.engaged.retain(|&i| {
            let tag = &mut tags[i];
            visit(i, tag);
            is_engaged(tag)
        });
    }

    /// Feeds `cmd` to every tag that can act on it, illuminated at
    /// `incident(tag index)`, and returns the replies with their tag
    /// indices, in index order.
    fn transact(
        &mut self,
        tags: &mut [PassiveTag],
        cmd: &Command,
        incident: impl Fn(usize) -> Dbm,
    ) -> Vec<(usize, TagReply)> {
        let mut replies = Vec::new();
        let mut visited = 0u64;
        let mut hear = |i: usize, tag: &mut PassiveTag| {
            visited += 1;
            if let Some(reply) = tag.respond(cmd, incident(i)) {
                replies.push((i, reply));
            }
        };
        if !self.scanned || self.visits_live(cmd) {
            self.check_in(tags);
            self.engaged.clear();
            if !self.scanned {
                self.scanned = true;
                for (i, tag) in tags.iter_mut().enumerate() {
                    hear(i, tag);
                    if tag.sustains(incident(i)) {
                        self.live.push(i);
                        if is_engaged(tag) {
                            self.engaged.push(i);
                        }
                    }
                }
            } else {
                for &i in &self.live {
                    hear(i, &mut tags[i]);
                    if is_engaged(&tags[i]) {
                        self.engaged.push(i);
                    }
                }
            }
        } else if let Command::QueryRep { session } = *cmd {
            self.check_out(tags, session);
            for &i in &self.engaged {
                let tag = &mut tags[i];
                if matches!(tag.state(), TagState::Reply | TagState::Acknowledged) {
                    visited += 1;
                    let reply = tag.query_rep(session);
                    debug_assert!(reply.is_none(), "a tag outside the lanes replied");
                }
            }
            visited += self.lanes.query_rep(&mut replies);
        } else if let Command::QueryAdjust { session, updn } = *cmd {
            self.check_out(tags, session);
            self.retain_engaged(tags, |_, tag| {
                visited += 1;
                let reply = tag.query_adjust(session, updn);
                debug_assert!(reply.is_none(), "a tag outside the lanes replied");
            });
            visited += self.lanes.len() as u64;
            self.lanes.query_adjust(updn, &mut replies);
        } else {
            self.check_in(tags);
            self.retain_engaged(tags, hear);
        }
        rfly_obs::counter_add("sim.tag_visits", visited);
        replies
    }
}

/// The shared propagation core: the only `impl Medium` carrying
/// physics. See the module docs for the topology constructors.
#[derive(Debug)]
pub struct WorldMedium<'a> {
    world: &'a mut PhasorWorld,
    link: Link,
    visits: TagVisits,
}

impl<'a> WorldMedium<'a> {
    fn with_link(world: &'a mut PhasorWorld, link: Link) -> Self {
        Self {
            world,
            link,
            visits: TagVisits::default(),
        }
    }

    /// Reader ↔ tags directly (the no-relay baseline). Traces every
    /// tag's reader channel once.
    pub fn direct(world: &'a mut PhasorWorld) -> Self {
        let eirp = world.config.link_budget().eirp();
        let tag_rf = world
            .tags
            .tags()
            .iter()
            .map(|tag| {
                let h = world.one_way(world.reader_pos, tag.position(), world.relay.f1);
                (h, eirp + Db::from_linear(h.norm_sq()))
            })
            .collect();
        Self::with_link(world, Link::Direct(tag_rf))
    }

    /// Reader ↔ relay ↔ tags with the world's relay build hovering at
    /// `relay_pos`: a one-relay [`FleetRf`] plan, served by its only
    /// member.
    pub fn relayed(world: &'a mut PhasorWorld, relay_pos: Point2) -> Self {
        let relay = FleetRelay {
            model: world.relay.clone(),
            pos: relay_pos,
        };
        let rf = FleetRf::trace(world, vec![relay]);
        Self::fleet_planned(world, &rf, 0)
    }

    /// Reader ↔ `rf.relays()[serving]` ↔ tags, with every other fleet
    /// member radiating its downlink carrier, from an already-traced
    /// [`FleetRf`] plan: no propagation runs here, the link is
    /// assembled from the plan's rows. The world's tag field must not
    /// have moved since [`FleetRf::trace`].
    pub fn fleet_planned(world: &'a mut PhasorWorld, rf: &FleetRf, serving: usize) -> Self {
        assert!(serving < rf.relays.len(), "serving index out of range");
        assert_eq!(
            rf.incident.len(),
            world.tags.tags().len(),
            "fleet RF plan is stale: tag field changed since trace"
        );
        let tag_rf = rf
            .incident
            .iter()
            .zip(&rf.h2)
            .map(|(&incident, row)| (incident, row[serving]))
            .collect();
        let link = RelayLink::new(
            world,
            rf.relays.clone(),
            serving,
            rf.h1.clone(),
            tag_rf,
            rf.leakage_mw[serving],
        );
        Self::with_link(world, Link::Relayed(link))
    }

    /// The Eq. 3 stability gate for one relay that is in no plan:
    /// traces only its reader channel — exactly the value
    /// [`FleetRf::stable`] reads for a traced fleet member.
    pub fn probe_stability(world: &PhasorWorld, relay: &FleetRelay) -> bool {
        let h1 = world.one_way(world.reader_pos, relay.pos, relay.model.f1);
        stability_probe(relay, h1)
    }

    /// The Eq. 3 stability gate: path loss below the serving relay's
    /// isolation. A direct link is always stable; a ringing relay
    /// forwards nothing useful.
    pub fn stable(&self) -> bool {
        match &self.link {
            Link::Direct(_) => true,
            Link::Relayed(link) => link.stable,
        }
    }
}

impl Drop for WorldMedium<'_> {
    /// Checks the arbitration lanes in, so a medium rebuilt on the same
    /// world without `power_cycle_tags` finds every tag's registers
    /// exact.
    fn drop(&mut self) {
        self.visits.check_in(self.world.tags.tags_mut());
    }
}

/// Reader ↔ tags with no relay in the loop.
fn direct_transact(
    world: &mut PhasorWorld,
    tag_rf: &[(Complex, Dbm)],
    visits: &mut TagVisits,
    cmd: &Command,
) -> Vec<Observation> {
    let budget = world.config.link_budget();
    let bs = world.backscatter;
    let replies = visits.transact(world.tags.tags_mut(), cmd, |i| tag_rf[i].1);
    let mut obs = Vec::with_capacity(replies.len());
    for (i, reply) in replies {
        let (h, incident) = tag_rf[i];
        let p_rx = incident + bs.gain() + Db::from_linear(h.norm_sq()) + budget.rx_gain;
        let snr = p_rx - budget.noise_floor();
        let channel = world.observe_channel(h * h * bs.gain().amplitude(), snr.linear());
        obs.push(Observation {
            frame: reply.into_frame(),
            channel,
            snr,
        });
    }
    obs
}

/// Reader ↔ serving relay ↔ tags, with the rest of the fleet radiating.
fn fleet_transact(
    world: &mut PhasorWorld,
    link: &RelayLink,
    visits: &mut TagVisits,
    cmd: &Command,
) -> Vec<Observation> {
    if !link.stable {
        return Vec::new();
    }
    let model = &link.relays[link.serving].model;
    let relay_phase = if model.mirrored {
        model.hw_constant
    } else {
        Complex::cis(
            world
                .rng
                .gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        )
    };

    // Powering is fleet-wide; the decoded backscatter rides the
    // serving relay's carrier only.
    let replies = visits.transact(world.tags.tags_mut(), cmd, |i| link.tag_rf[i].0);
    let mut obs = Vec::with_capacity(replies.len());
    for (i, reply) in replies {
        let (snr, snr_linear, h) = link.uplink[i];
        let channel = world.observe_channel(h * relay_phase, snr_linear);
        obs.push(Observation {
            frame: reply.into_frame(),
            channel,
            snr,
        });
    }

    // The serving relay's embedded RFID (reserved EPC; the fleet
    // inventory engine filters it out of the global inventory).
    if let Some(reply) = world.embedded.handle(cmd) {
        let (g_ul, ant) = (model.gains.uplink, RelayModel::ANTENNA_GAIN);
        let h1 = link.h1[link.serving];
        let local = model.embedded_local;
        let p_rx = link.output
            + ant
            + Db::from_linear(local.norm_sq())
            + world.backscatter.gain()
            + Db::from_linear(local.norm_sq())
            + ant
            + g_ul
            + ant
            + Db::from_linear(h1.norm_sq())
            + ReaderConfig::ANTENNA_GAIN;
        let snr = p_rx - link.denom - model.snr_penalty;
        let h =
            h1 * h1 * local * local * link.g_dl_eff.amplitude() * g_ul.amplitude() * relay_phase;
        let channel = world.observe_channel(h, snr.linear());
        obs.push(Observation {
            frame: reply.into_frame(),
            channel,
            snr,
        });
    }

    obs
}

impl Medium for WorldMedium<'_> {
    fn transact(&mut self, cmd: &Command) -> Vec<Observation> {
        rfly_obs::counter_add("sim.transactions", 1);
        let world = &mut *self.world;
        match &self.link {
            Link::Direct(tag_rf) => direct_transact(world, tag_rf, &mut self.visits, cmd),
            Link::Relayed(link) => fleet_transact(world, link, &mut self.visits, cmd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{RelayModel, WorldSnapshot};
    use rfly_channel::environment::Environment;
    use rfly_dsp::rng::StdRng;
    use rfly_dsp::units::Hertz;
    use rfly_protocol::bits::Bits;
    use rfly_protocol::commands::{MemBank, SelectTarget};
    use rfly_protocol::epc::Epc;
    use rfly_protocol::session::{InventoriedFlag, SelFilter, Session};
    use rfly_protocol::timing::{DivideRatio, TagEncoding};
    use rfly_reader::inventory::{InventoryController, TagRead};
    use rfly_tag::population::TagPopulation;

    fn world_with_tags(n_tags: usize, seed: u64) -> PhasorWorld {
        let mut tags = TagPopulation::new();
        for i in 0..n_tags {
            let pos = Point2::new(44.0 + (i % 10) as f64, (i / 10) as f64 - 3.0);
            tags.add(
                PassiveTag::new(Epc::from_index(i as u64 + 1), 7, pos),
                "test".into(),
            );
        }
        PhasorWorld::new(
            Environment::free_space(),
            Point2::ORIGIN,
            ReaderConfig::usrp_default(),
            tags,
            RelayModel::prototype(Hertz::mhz(915.0)),
            seed,
        )
    }

    fn fleet_of_three() -> Vec<FleetRelay> {
        [
            (915.0, Point2::new(48.0, 0.0)),
            (920.0, Point2::new(48.0, 6.0)),
            (925.0, Point2::new(48.0, -6.0)),
        ]
        .into_iter()
        .map(|(mhz, pos)| FleetRelay {
            model: RelayModel::prototype(Hertz::mhz(mhz)),
            pos,
        })
        .collect()
    }

    /// A medium served by `relays[serving]`, assembled from a plan
    /// traced for it.
    fn planned(
        world: &mut PhasorWorld,
        relays: Vec<FleetRelay>,
        serving: usize,
    ) -> WorldMedium<'_> {
        let rf = FleetRf::trace(world, relays);
        WorldMedium::fleet_planned(world, &rf, serving)
    }

    /// Tracing is byte-identical at any pool worker count, including
    /// past the parallel threshold.
    #[test]
    fn trace_is_worker_count_invariant() {
        let _guard = crate::pool::TEST_WIDTH_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let fleet = fleet_of_three();
        let w = world_with_tags(PAR_MIN_TAGS + 33, 13);
        let reference = {
            crate::pool::set_global_workers(1);
            format!("{:?}", FleetRf::trace(&w, fleet.clone()))
        };
        for workers in [2, 8] {
            crate::pool::set_global_workers(workers);
            let got = format!("{:?}", FleetRf::trace(&w, fleet.clone()));
            assert_eq!(got, reference, "{workers} workers");
        }
        crate::pool::reset_global_workers();
    }

    /// The h1-only probe, the plan and a medium built from the plan
    /// agree on the gate in both a stable and an unstable geometry.
    #[test]
    fn probe_agrees_with_full_medium_stability() {
        let fleet = fleet_of_three();
        for (reader, expect_stable) in [(Point2::ORIGIN, true), (Point2::new(-350.0, 0.0), false)] {
            let mut w = world_with_tags(4, 17);
            w.reader_pos = reader;
            let probe = WorldMedium::probe_stability(&w, &fleet[0]);
            let rf = FleetRf::trace(&w, fleet.clone());
            let plan = rf.stable(0);
            let full = WorldMedium::fleet_planned(&mut w, &rf, 0).stable();
            assert_eq!(probe, full);
            assert_eq!(plan, full);
            assert_eq!(full, expect_stable, "reader at {reader:?}");
        }
    }

    /// Full-scan reference transact: every tag hears every command, and
    /// every per-transaction constant is recomputed from the world. The
    /// visit-list path must match it bit for bit.
    fn full_scan_transact(world: &mut PhasorWorld, link: &Link, cmd: &Command) -> Vec<Observation> {
        let link = match link {
            Link::Direct(_) => {
                let f1 = world.relay.f1;
                let reader_pos = world.reader_pos;
                let budget = world.config.link_budget();
                let bs = world.backscatter;
                let shadow_amp = (-world.reader_link_extra_loss).amplitude();
                let env = world.environment.clone();
                let replies: Vec<(Complex, Dbm, TagReply)> = world
                    .tags
                    .tags_mut()
                    .iter_mut()
                    .filter_map(|tag| {
                        let h = env.trace(reader_pos, tag.position(), f1).channel(f1) * shadow_amp;
                        let incident = budget.eirp() + Db::from_linear(h.norm_sq());
                        let reply = tag.respond(cmd, incident)?;
                        Some((h, incident, reply))
                    })
                    .collect();
                return replies
                    .into_iter()
                    .map(|(h, incident, reply)| {
                        let p_rx =
                            incident + bs.gain() + Db::from_linear(h.norm_sq()) + budget.rx_gain;
                        let snr = p_rx - budget.noise_floor();
                        let channel =
                            world.observe_channel(h * h * bs.gain().amplitude(), snr.linear());
                        Observation {
                            frame: reply.frame().clone(),
                            channel,
                            snr,
                        }
                    })
                    .collect();
            }
            Link::Relayed(link) => link,
        };
        let s = link.serving;
        if !stability_probe(&link.relays[s], link.h1[s]) {
            return Vec::new();
        }
        let model = &link.relays[s].model;
        let g_dl_eff = effective_downlink_gain(world, &link.relays[s], link.h1[s]);
        let output = relay_output_of(world, &link.relays, &link.h1, s);
        let serving_eirp = output + RelayModel::ANTENNA_GAIN;
        let relay_phase = if model.mirrored {
            model.hw_constant
        } else {
            Complex::cis(
                world
                    .rng
                    .gen_range(-std::f64::consts::PI..std::f64::consts::PI),
            )
        };
        let (bs_gain, reader_gain, h1) = (
            world.backscatter.gain(),
            ReaderConfig::ANTENNA_GAIN,
            link.h1[s],
        );
        let noise_floor = world.config.link_budget().noise_floor();
        let denom = Dbm::from_milliwatts(noise_floor.milliwatts() + link.leakage_mw);
        let (g_ul, ant) = (model.gains.uplink, RelayModel::ANTENNA_GAIN);
        let replies: Vec<(Complex, Dbm, TagReply)> = world
            .tags
            .tags_mut()
            .iter_mut()
            .zip(&link.tag_rf)
            .filter_map(|(tag, &(incident_total, h2))| {
                let incident_serving = serving_eirp + Db::from_linear(h2.norm_sq());
                let reply = tag.respond(cmd, incident_total)?;
                Some((h2, incident_serving, reply))
            })
            .collect();
        let mut obs = Vec::new();
        let mut push = |world: &mut PhasorWorld, p_rx: Dbm, h: Complex, reply: TagReply| {
            let snr = p_rx - denom - model.snr_penalty;
            let h = h * g_dl_eff.amplitude() * g_ul.amplitude() * relay_phase;
            let channel = world.observe_channel(h, snr.linear());
            obs.push(Observation {
                frame: reply.frame().clone(),
                channel,
                snr,
            });
        };
        for (h2, incident, reply) in replies {
            let p_rx = incident
                + bs_gain
                + Db::from_linear(h2.norm_sq())
                + ant
                + g_ul
                + ant
                + Db::from_linear(h1.norm_sq())
                + reader_gain;
            push(world, p_rx, h1 * h1 * h2 * h2, reply);
        }
        if let Some(reply) = world.embedded.handle(cmd) {
            let local = model.embedded_local;
            let p_rx = output
                + ant
                + Db::from_linear(local.norm_sq())
                + bs_gain
                + Db::from_linear(local.norm_sq())
                + ant
                + g_ul
                + ant
                + Db::from_linear(h1.norm_sq())
                + reader_gain;
            push(world, p_rx, h1 * h1 * local * local, reply);
        }
        obs
    }

    /// 48 tags on a 12 × 4 grid around the fleet of three (and around a
    /// reader placed at (44, 0)): the near tags are powered, the far
    /// ones sit below −15 dBm.
    fn straddling_world(seed: u64, reader: Point2) -> PhasorWorld {
        let mut tags = TagPopulation::new();
        for i in 0..48u64 {
            let (col, row) = ((i % 12) as f64, (i / 12) as f64);
            let pos = Point2::new(40.0 + 1.5 * col, 3.0 * row - 4.5);
            tags.add(
                PassiveTag::new(Epc::from_index(i + 1), seed ^ (i << 8), pos),
                "test".into(),
            );
        }
        PhasorWorld::new(
            Environment::free_space(),
            reader,
            ReaderConfig::usrp_default(),
            tags,
            RelayModel::prototype(Hertz::mhz(915.0)),
            seed,
        )
    }

    /// How a differential stage builds its medium.
    #[derive(Debug, Clone)]
    enum Build {
        Direct,
        Planned(Vec<FleetRelay>, usize),
    }

    fn build<'w>(world: &'w mut PhasorWorld, how: &Build) -> WorldMedium<'w> {
        match how {
            Build::Direct => WorldMedium::direct(world),
            Build::Planned(relays, s) => planned(world, relays.clone(), *s),
        }
    }

    /// Each tag's incident power on a medium's link.
    fn incidents(m: &WorldMedium<'_>) -> Vec<Dbm> {
        match &m.link {
            Link::Direct(rf) => rf.iter().map(|&(_, p)| p).collect(),
            Link::Relayed(link) => link.tag_rf.iter().map(|&(p, _)| p).collect(),
        }
    }

    /// A seeded random Gen2 command. Round commands mostly carry the
    /// session of the last Query; Ack mostly carries the last RN16 a
    /// tag sent.
    fn random_command(rng: &mut StdRng, last_rn: u16, round: &mut Session) -> Command {
        const SESSIONS: [Session; 4] = [Session::S0, Session::S1, Session::S2, Session::S3];
        const SELS: [SelFilter; 4] = [
            SelFilter::All,
            SelFilter::All,
            SelFilter::NotSelected,
            SelFilter::Selected,
        ];
        let any_session = SESSIONS[rng.gen_range(0..4usize)];
        let session = if rng.gen_bool(0.8) {
            *round
        } else {
            any_session
        };
        let rn = if rng.gen_bool(0.7) {
            last_rn
        } else {
            rng.gen()
        };
        match rng.gen_range(0..14u32) {
            0..=2 => {
                *round = any_session;
                Command::Query {
                    dr: DivideRatio::Dr64over3,
                    m: TagEncoding::Fm0,
                    trext: false,
                    sel: SELS[rng.gen_range(0..4usize)],
                    session: any_session,
                    target: if rng.gen() {
                        InventoriedFlag::A
                    } else {
                        InventoriedFlag::B
                    },
                    q: rng.gen_range(0..4u8),
                }
            }
            3..=6 => Command::QueryRep { session },
            7 => Command::QueryAdjust {
                session,
                updn: rng.gen_range(-1..=1i8),
            },
            8 => Command::Nak,
            9..=11 => Command::Ack { rn16: rn },
            _ => Command::Select {
                target: if rng.gen() {
                    SelectTarget::Sl
                } else {
                    SelectTarget::Inventoried(any_session)
                },
                action: rng.gen_range(0..8u8),
                bank: MemBank::Epc,
                pointer: rng.gen_range(32..48u32),
                mask: Bits::from_bools(&[rng.gen(), rng.gen()]),
                truncate: false,
            },
        }
    }

    /// A QueryRep-streak command: a Query with q in 4..=8 opens a
    /// round of 20–200 QueryReps in its session, interleaved with
    /// QueryAdjust, Nak and Ack with the RN16 a lone reply just sent,
    /// and with one QueryRep in another session mid-streak.
    fn streak_command(rng: &mut StdRng, fresh_rn: Option<u16>, streak: &mut Streak) -> Command {
        const SESSIONS: [Session; 4] = [Session::S0, Session::S1, Session::S2, Session::S3];
        if streak.left == 0 {
            streak.session = SESSIONS[rng.gen_range(0..4usize)];
            streak.left = rng.gen_range(20..=200usize);
            streak.other_at = rng.gen_range(1..streak.left);
            return Command::Query {
                dr: DivideRatio::Dr64over3,
                m: TagEncoding::Fm0,
                trext: false,
                sel: SelFilter::All,
                session: streak.session,
                target: if rng.gen() {
                    InventoriedFlag::A
                } else {
                    InventoriedFlag::B
                },
                q: rng.gen_range(4..=8u8),
            };
        }
        streak.left -= 1;
        let session = streak.session;
        if streak.left == streak.other_at {
            let other = SESSIONS[(session.field() as usize + rng.gen_range(1..4usize)) % 4];
            return Command::QueryRep { session: other };
        }
        if let Some(rn16) = fresh_rn.filter(|_| rng.gen_bool(0.8)) {
            return Command::Ack { rn16 };
        }
        match rng.gen_range(0..100u32) {
            0..=5 => Command::QueryAdjust {
                session,
                updn: rng.gen_range(-1..=1i8),
            },
            6..=8 => Command::Nak,
            _ => Command::QueryRep { session },
        }
    }

    /// Where a streak stage is in its current round.
    #[derive(Debug)]
    struct Streak {
        session: Session,
        /// Commands left in the round; 0 opens a new one.
        left: usize,
        /// `left` at which the other-session QueryRep goes out.
        other_at: usize,
    }

    /// Each checked-out lane of `visits`: its tag, session and registers.
    fn lanes_of(visits: &TagVisits) -> Vec<(usize, Session, Arbitration)> {
        let lanes = &visits.lanes;
        lanes
            .session
            .map(|s| {
                (0..lanes.len())
                    .map(|k| (lanes.tag[k], s, lanes.get(k)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// What a tag holds as a full scan would leave it: its state,
    /// `powered()` and, in Arbitrate or Reply, its session and
    /// arbitration registers.
    type TagView = (TagState, bool, Option<(Session, Arbitration)>);

    /// Every tag's [`TagView`], read through the checked-out lanes of
    /// `visits` when given (the registers on a lane's tag are stale).
    fn tag_view(w: &PhasorWorld, visits: Option<&TagVisits>) -> Vec<TagView> {
        let mut view: Vec<TagView> = w
            .tags
            .tags()
            .iter()
            .map(|t| (t.state(), t.powered(), t.arbitration()))
            .collect();
        for (i, session, a) in visits.map(lanes_of).unwrap_or_default() {
            view[i].0 = if a.reply {
                TagState::Reply
            } else {
                TagState::Arbitrate
            };
            view[i].2 = Some((session, a));
        }
        view
    }

    /// The world's snapshot, with each checked-out lane's RNG state in
    /// place of its tag's stale one when `visits` is given.
    fn snapshot(w: &PhasorWorld, visits: Option<&TagVisits>) -> WorldSnapshot {
        let mut snap = w.snapshot();
        for (i, _, a) in visits.map(lanes_of).unwrap_or_default() {
            snap.tags[i].rng = a.rng;
        }
        snap
    }

    /// The first bit-level difference between two transactions' results
    /// and the two worlds they left behind.
    fn divergence(
        got: &[Observation],
        want: &[Observation],
        m: &WorldMedium<'_>,
        b: &PhasorWorld,
    ) -> Option<String> {
        let bits = |obs: &[Observation]| -> Vec<(Bits, u64, u64, u64)> {
            obs.iter()
                .map(|o| {
                    let (re, im) = (o.channel.re.to_bits(), o.channel.im.to_bits());
                    (o.frame.clone(), re, im, o.snr.value().to_bits())
                })
                .collect()
        };
        if bits(got) != bits(want) {
            Some(format!("observations {got:?} != {want:?}"))
        } else if tag_view(m.world, Some(&m.visits)) != tag_view(b, None) {
            Some("tag states, powered() or arbitration registers differ".into())
        } else if snapshot(m.world, Some(&m.visits)) != snapshot(b, None) {
            Some("tag or world RNG/flag state differs".into())
        } else {
            None
        }
    }

    /// Which command mix a differential stage draws from.
    #[derive(Debug, Clone, Copy)]
    enum Mix {
        /// [`random_command`]: every command, short rounds.
        Random,
        /// [`streak_command`]: long QueryRep streaks.
        Streak,
    }

    /// Which planted bug, if any, the candidate medium carries.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Plant {
        None,
        QueryOnEngaged,
        CheckInDropsRn16,
        DrawAtQ0,
    }

    /// Runs `n` seeded commands of `mix` through the visit-list medium
    /// on `cand` and the full-scan reference on `reference`, comparing
    /// after every command and, once the medium is dropped, every raw
    /// slot counter. Returns the observation count.
    fn differential_stage(
        cand: &mut PhasorWorld,
        reference: &mut PhasorWorld,
        how: &Build,
        mix: Mix,
        plant: Plant,
        cmd_seed: u64,
        n: usize,
    ) -> Result<usize, String> {
        let mut m = build(cand, how);
        m.visits.planted_query_on_engaged = plant == Plant::QueryOnEngaged;
        m.visits.planted_check_in_drops_rn16 = plant == Plant::CheckInDropsRn16;
        m.visits.lanes.planted_draw_at_q0 = plant == Plant::DrawAtQ0;
        let r = build(reference, how);
        let mut rng = StdRng::seed_from_u64(cmd_seed);
        let (mut last_rn, mut round, mut seen) = (0u16, Session::S0, 0);
        let mut fresh_rn = None;
        let mut streak = Streak {
            session: Session::S0,
            left: 0,
            other_at: 0,
        };
        for k in 0..n {
            let cmd = match mix {
                Mix::Random => random_command(&mut rng, last_rn, &mut round),
                Mix::Streak => streak_command(&mut rng, fresh_rn, &mut streak),
            };
            let got = m.transact(&cmd);
            let want = full_scan_transact(r.world, &r.link, &cmd);
            if let Some(d) = divergence(&got, &want, &m, r.world) {
                return Err(format!("{how:?}, command {k} ({cmd:?}): {d}"));
            }
            seen += want.len();
            if let Some(o) = want.iter().rev().find(|o| matches!(o.frame.len(), 16 | 32)) {
                last_rn = o.frame.uint_at(0, 16) as u16;
            }
            fresh_rn = match want.as_slice() {
                [o] if o.frame.len() == 16 => Some(o.frame.uint_at(0, 16) as u16),
                _ => None,
            };
        }
        drop((m, r));
        if tag_view(cand, None) != tag_view(reference, None) {
            return Err(format!("{how:?}: raw tag registers differ after drop"));
        }
        if cand.snapshot() != reference.snapshot() {
            return Err(format!("{how:?}: raw RNG/flag state differs after drop"));
        }
        Ok(seen)
    }

    /// One seed's stage sequence over twin worlds: media on the same
    /// world without `power_cycle_tags` in between (tags arrive
    /// engaged, and a moved fleet unpowers some of them), an unstable
    /// serving, a direct link, and QueryRep streaks.
    fn differential_run(seed: u64, plant: Plant) -> Result<usize, String> {
        let fleet = fleet_of_three();
        // The moved fleet is unmirrored (a relay-phase RNG draw per
        // transaction) and carries an SNR penalty.
        let moved: Vec<FleetRelay> = fleet
            .iter()
            .map(|r| {
                let mut model = r.model.clone();
                model.mirrored = false;
                model.snr_penalty = Db::new(3.0);
                FleetRelay {
                    model,
                    pos: Point2::new(r.pos.x + 5.0, r.pos.y),
                }
            })
            .collect();
        let stages = [
            (
                Point2::ORIGIN,
                Build::Planned(fleet.clone(), 0),
                Mix::Random,
            ),
            (
                Point2::ORIGIN,
                Build::Planned(fleet.clone(), 1),
                Mix::Random,
            ),
            (
                Point2::ORIGIN,
                Build::Planned(moved.clone(), 2),
                Mix::Random,
            ),
            (
                Point2::new(-350.0, 0.0),
                Build::Planned(fleet.clone(), 0),
                Mix::Random,
            ),
            (Point2::new(44.0, 0.0), Build::Direct, Mix::Random),
            (
                Point2::new(44.0, 0.0),
                Build::Planned(fleet.clone(), 1),
                Mix::Random,
            ),
            (Point2::new(44.0, 0.0), Build::Direct, Mix::Random),
            (
                Point2::ORIGIN,
                Build::Planned(fleet.clone(), 0),
                Mix::Streak,
            ),
            (Point2::ORIGIN, Build::Planned(moved, 2), Mix::Streak),
            (Point2::new(44.0, 0.0), Build::Direct, Mix::Streak),
        ];
        let mut cand = straddling_world(seed, Point2::ORIGIN);
        let mut reference = straddling_world(seed, Point2::ORIGIN);
        let (mut seen, mut arrived_engaged) = (0, 0);
        for (k, (reader, how, mix)) in stages.iter().enumerate() {
            cand.reader_pos = *reader;
            reference.reader_pos = *reader;
            arrived_engaged += cand.tags.tags().iter().filter(|t| is_engaged(t)).count();
            {
                let m = build(&mut cand, how);
                let live = incidents(&m).iter().filter(|p| p.value() >= -15.0).count();
                if m.stable() {
                    assert!(
                        live > 0 && live < 48,
                        "{how:?}: {live}/48 powered does not straddle −15 dBm"
                    );
                } else {
                    assert_eq!(*reader, Point2::new(-350.0, 0.0), "{how:?} unstable");
                }
            }
            let cmd_seed = seed.wrapping_mul(31).wrapping_add(k as u64);
            let n = match mix {
                Mix::Random => 400,
                Mix::Streak => 1200,
            };
            seen += differential_stage(&mut cand, &mut reference, how, *mix, plant, cmd_seed, n)?;
        }
        assert!(arrived_engaged > 0, "no medium inherited engaged tags");
        Ok(seen)
    }

    /// The visit-list transact is bit-identical to a full scan: same
    /// observations, tag states, `powered()`, effective slot counters,
    /// tag and world RNG states, after every command of every stage,
    /// and the same raw slot counters once each medium is dropped.
    #[test]
    fn visit_lists_match_full_scan() {
        for seed in 0..4 {
            let seen =
                differential_run(seed, Plant::None).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                seen > 100,
                "seed {seed}: only {seen} replies, the run is vacuous"
            );
        }
    }

    /// Planted control: a `Query` that visits only `engaged` tags (and
    /// so never wakes a `Ready` one) must be caught by the differential
    /// run.
    #[test]
    fn planted_query_on_engaged_is_caught() {
        let caught = (0..4)
            .filter(|&seed| differential_run(seed, Plant::QueryOnEngaged).is_err())
            .count();
        assert_eq!(caught, 4, "the differential test missed the planted bug");
    }

    /// Planted control: a check-in that leaves each tag the RN16 it held
    /// before its lanes were checked out must be caught by the
    /// differential run.
    #[test]
    fn planted_check_in_dropping_the_rn16_is_caught() {
        let caught = (0..4)
            .filter(|&seed| differential_run(seed, Plant::CheckInDropsRn16).is_err())
            .count();
        assert_eq!(caught, 4, "the differential test missed the planted bug");
    }

    /// Planted control: a lane QueryAdjust that advances the RNG at
    /// Q = 0, where a tag draws nothing, must be caught by the
    /// differential run.
    #[test]
    fn planted_draw_at_q0_is_caught() {
        let caught = (0..4)
            .filter(|&seed| differential_run(seed, Plant::DrawAtQ0).is_err())
            .count();
        assert_eq!(caught, 4, "the differential test missed the planted bug");
    }

    /// Twin tag populations for the lane property: `n` powered tags of
    /// session S1, each driven into a round by a real Query and then
    /// given seeded registers. Q is one of {0, 1, 7, 15}, shared by every
    /// tag or drawn per tag; a tag replies (counter 0) or arbitrates with
    /// a counter of 1, 2, up to 2^Q or `u32::MAX`.
    fn lane_population(seed: u64, shared_q: bool) -> [Vec<PassiveTag>; 2] {
        const QS: [u8; 4] = [0, 1, 7, 15];
        let mut rng = StdRng::seed_from_u64(seed);
        let one_q = QS[rng.gen_range(0..4usize)];
        let registers: Vec<Arbitration> = (0..40)
            .map(|_| {
                let q = if shared_q {
                    one_q
                } else {
                    QS[rng.gen_range(0..4usize)]
                };
                let reply = rng.gen_bool(0.2);
                let slot = match (reply, rng.gen_range(0..4u32)) {
                    (true, _) => 0,
                    (false, 0) => 1,
                    (false, 1) => 2,
                    (false, 2) => rng.gen_range(1..=(1u32 << q).max(2)),
                    (false, _) => u32::MAX,
                };
                Arbitration {
                    rng: [rng.gen(), rng.gen(), rng.gen(), rng.gen::<u64>() | 1],
                    slot,
                    q,
                    reply,
                    rn16: rng.gen(),
                }
            })
            .collect();
        let query = Command::Query {
            dr: DivideRatio::Dr64over3,
            m: TagEncoding::Fm0,
            trext: false,
            sel: SelFilter::All,
            session: Session::S1,
            target: InventoriedFlag::A,
            q: 3,
        };
        [0, 1].map(|_| {
            registers
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let mut tag = PassiveTag::new(Epc::from_index(i as u64), seed, Point2::ORIGIN);
                    let _ = tag.respond(&query, Dbm::new(0.0));
                    tag.set_arbitration(a);
                    tag
                })
                .collect()
        })
    }

    /// A lane pass is each tag's own step: seeded populations (Q in
    /// {0, 1, 7, 15}, shared or mixed, Reply and Arbitrate, counters 0,
    /// 1, 2, up to 2^Q and `u32::MAX`) hear three QueryReps and
    /// QueryAdjusts (updn −1, 0, +1) in a row through the lanes and,
    /// tag by tag, through `PassiveTag::{query_rep, query_adjust}`. The
    /// replies and, once the lanes are checked in, every tag's state,
    /// registers and RNG state must match.
    #[test]
    fn lane_passes_match_each_tags_machine() {
        const STEPS: [Command; 4] = [
            Command::QueryRep {
                session: Session::S1,
            },
            Command::QueryAdjust {
                session: Session::S1,
                updn: -1,
            },
            Command::QueryAdjust {
                session: Session::S1,
                updn: 0,
            },
            Command::QueryAdjust {
                session: Session::S1,
                updn: 1,
            },
        ];
        let mut replies = 0;
        for seed in 0..24 {
            for shared_q in [true, false] {
                let [mut lanes, mut machines] = lane_population(seed, shared_q);
                let mut visits = TagVisits {
                    scanned: true,
                    live: (0..lanes.len()).collect(),
                    engaged: (0..lanes.len()).collect(),
                    ..TagVisits::default()
                };
                let mut order = StdRng::seed_from_u64(seed ^ 0x1a7e);
                for n in 0..3 {
                    let cmd = &STEPS[order.gen_range(0..4usize)];
                    let got = visits.transact(&mut lanes, cmd, |_| Dbm::new(0.0));
                    assert_eq!(visits.lanes.shared_q.is_some(), shared_q || lanes.len() < 2);
                    let want: Vec<(usize, TagReply)> = machines
                        .iter_mut()
                        .enumerate()
                        .filter_map(|(i, tag)| {
                            let rn16 = match *cmd {
                                Command::QueryRep { session } => tag.query_rep(session),
                                Command::QueryAdjust { session, updn } => {
                                    tag.query_adjust(session, updn)
                                }
                                _ => unreachable!("lane steps only"),
                            };
                            rn16.map(|rn16| (i, TagReply::rn16(rn16)))
                        })
                        .collect();
                    assert_eq!(
                        got, want,
                        "seed {seed}, shared {shared_q}, step {n} {cmd:?}"
                    );
                    replies += got.len();
                }
                visits.check_in(&mut lanes);
                for (i, (a, b)) in lanes.iter().zip(&machines).enumerate() {
                    let case = format!("seed {seed}, shared {shared_q}, tag {i}");
                    assert_eq!(a.state(), b.state(), "{case}");
                    assert_eq!(a.arbitration(), b.arbitration(), "{case}");
                    assert_eq!(a.rng_state(), b.rng_state(), "{case}");
                }
            }
        }
        assert!(replies > 50, "only {replies} replies: vacuous");
    }

    /// The first transact past the stability gate builds the lists; an
    /// unstable serving never touches them (or any tag).
    #[test]
    fn lists_track_powered_and_engaged_tags() {
        let mut w = straddling_world(5, Point2::ORIGIN);
        let mut m = planned(&mut w, fleet_of_three(), 0);
        let live: Vec<usize> = incidents(&m)
            .iter()
            .enumerate()
            .filter(|(_, p)| p.value() >= -15.0)
            .map(|(i, _)| i)
            .collect();
        m.transact(&Command::Query {
            dr: DivideRatio::Dr64over3,
            m: TagEncoding::Fm0,
            trext: false,
            sel: SelFilter::All,
            session: Session::S0,
            target: InventoriedFlag::A,
            q: 2,
        });
        assert_eq!(m.visits.live, live);
        assert_eq!(m.visits.engaged, live, "every live tag joins a q=2 round");
        m.transact(&Command::Nak);
        m.transact(&Command::Select {
            target: SelectTarget::Sl,
            action: 0,
            bank: MemBank::Epc,
            pointer: 32,
            mask: Bits::from_bools(&[true]),
            truncate: false,
        });
        assert!(m.visits.engaged.is_empty(), "Select leaves every tag Ready");

        let mut far = straddling_world(5, Point2::new(-350.0, 0.0));
        let mut unstable = planned(&mut far, fleet_of_three(), 0);
        assert!(unstable.transact(&Command::Nak).is_empty());
        assert!(!unstable.visits.scanned);
    }

    fn world_with_tag(tag_pos: Point2, seed: u64) -> PhasorWorld {
        let mut tags = TagPopulation::new();
        tags.add(
            PassiveTag::new(Epc::from_index(1), 7, tag_pos),
            "test".into(),
        );
        PhasorWorld::new(
            Environment::free_space(),
            Point2::ORIGIN,
            ReaderConfig::usrp_default(),
            tags,
            RelayModel::prototype(Hertz::mhz(915.0)),
            seed,
        )
    }

    fn member(f1_mhz: f64, shift_mhz: f64, pos: Point2) -> FleetRelay {
        let mut model = RelayModel::prototype(Hertz::mhz(f1_mhz));
        model.f2 = model.f1 + Hertz::mhz(shift_mhz);
        FleetRelay { model, pos }
    }

    fn inventory(medium: &mut dyn Medium, seed: u64) -> Vec<TagRead> {
        let mut c =
            InventoryController::new(ReaderConfig::usrp_default(), StdRng::seed_from_u64(seed));
        c.run_until_quiet(medium, 10)
    }

    #[test]
    fn single_relay_plan_reads_tag_and_embedded() {
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 3);
        let fleet = vec![member(915.0, 1.0, Point2::new(48.0, 0.0))];
        let reads = inventory(&mut planned(&mut w, fleet, 0), 3);
        assert!(reads.iter().any(|r| r.epc == Epc::from_index(1)));
        assert!(reads.iter().any(|r| r.epc == PhasorWorld::embedded_epc()));
    }

    #[test]
    fn co_channel_neighbor_jams_the_serving_uplink() {
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 4);
        // Both relays on the same f1/f2: zero Δf rejection.
        let fleet = vec![
            member(915.0, 1.0, Point2::new(48.0, 0.0)),
            member(915.0, 1.0, Point2::new(48.0, 8.0)),
        ];
        let reads = inventory(&mut planned(&mut w, fleet, 0), 4);
        assert!(
            !reads.iter().any(|r| r.epc == Epc::from_index(1)),
            "co-channel interference should bury the tag reply"
        );
    }

    #[test]
    fn offset_neighbor_is_rejected_by_the_chain_filters() {
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 4);
        // Same geometry as the jamming case, but 5 MHz apart.
        let fleet = vec![
            member(915.0, 1.0, Point2::new(48.0, 0.0)),
            member(920.0, 1.0, Point2::new(48.0, 8.0)),
        ];
        let reads = inventory(&mut planned(&mut w, fleet, 0), 4);
        assert!(
            reads.iter().any(|r| r.epc == Epc::from_index(1)),
            "Δf-offset neighbor should be filtered out"
        );
    }

    /// The plan's fleet-summed incident power at the one tag of `w`.
    fn incident(w: &PhasorWorld, relays: Vec<FleetRelay>) -> Dbm {
        FleetRf::trace(w, relays).incident[0]
    }

    #[test]
    fn fleet_raises_incident_power_incoherently() {
        let w = world_with_tag(Point2::new(50.0, 0.0), 5);
        let near = Point2::new(46.0, 0.0);
        let solo = incident(&w, vec![member(915.0, 1.0, near)]);
        // A second relay the same distance away on another channel
        // doubles the incident power: +3 dB, no fading risk.
        let two = vec![
            member(915.0, 1.0, near),
            member(920.0, 1.0, Point2::new(54.0, 0.0)),
        ];
        let duo = incident(&w, two);
        let gain = (duo - solo).value();
        assert!((gain - 3.01).abs() < 0.1, "incoherent +3 dB, got {gain}");
    }

    #[test]
    fn co_channel_fleet_can_fade_destructively() {
        // Two co-channel relays with a λ/2 path difference cancel at the
        // tag — the blind-spot hazard that distinct f₂ avoids.
        let w = world_with_tag(Point2::new(50.0, 0.0), 6);
        let f2 = Hertz::mhz(916.0);
        let lambda = f2.wavelength();
        let a = Point2::new(46.0, 0.0);
        let b = Point2::new(54.0 + lambda / 2.0, 0.0);
        let faded = incident(&w, vec![member(915.0, 1.0, a), member(915.0, 1.0, b)]);
        let summed = incident(&w, vec![member(915.0, 1.0, a), member(920.0, 1.0, b)]);
        assert!(
            summed.value() > faded.value() + 1.0,
            "coherent pair {faded} should fade below incoherent pair {summed}"
        );
    }

    #[test]
    fn unstable_serving_relay_is_silent() {
        let mut w = world_with_tag(Point2::new(400.0, 0.0), 7);
        let fleet = vec![member(915.0, 1.0, Point2::new(399.0, 0.0))];
        let mut m = planned(&mut w, fleet, 0);
        assert!(!m.stable());
        assert!(m.transact(&Command::Nak).is_empty());
    }
}

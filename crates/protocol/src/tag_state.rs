//! The Gen2 tag-side inventory state machine.
//!
//! A powered tag walks Ready → Arbitrate → Reply → Acknowledged under
//! the reader's inventory commands, as in the Gen2 state diagram. The
//! access layer's states (Open, Secured, Killed) are not modelled: the
//! paper's reader sends only inventory commands (§6.3). This logic is
//! pure — RF power and backscatter physics wrap it in `rfly-tag` —
//! which makes the protocol behaviour directly testable, including the
//! collision arbitration the relay must transparently forward.

use rfly_dsp::rng::Rng;
use rfly_dsp::rng::StdRng;

use crate::bits::Bits;
use crate::commands::{Command, MemBank, SelectTarget};
use crate::epc::{epc_reply_frame, rn16_frame, Epc, PC_96BIT};
use crate::session::{InventoriedFlag, Session, TagFlags};

/// The tag's protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// Powered, not participating in a round.
    Ready,
    /// Holding a nonzero slot counter in a round.
    Arbitrate,
    /// Slot reached zero; RN16 sent, awaiting ACK.
    Reply,
    /// ACKed; EPC sent, awaiting the round's next command.
    Acknowledged,
}

/// What a tag backscatters in response to a command.
#[derive(Debug, Clone, PartialEq)]
pub enum TagReply {
    /// The 16-bit random number (no CRC).
    Rn16(Bits),
    /// The `{PC, EPC, CRC16}` frame.
    EpcFrame(Bits),
}

impl TagReply {
    /// The RN16 reply carrying `rn16`.
    pub fn rn16(rn16: u16) -> Self {
        TagReply::Rn16(rn16_frame(rn16))
    }

    /// The transmitted bit frame.
    pub fn frame(&self) -> &Bits {
        match self {
            TagReply::Rn16(b) | TagReply::EpcFrame(b) => b,
        }
    }

    /// Consumes the reply, yielding its bit frame without a copy.
    pub fn into_frame(self) -> Bits {
        match self {
            TagReply::Rn16(b) | TagReply::EpcFrame(b) => b,
        }
    }
}

/// A tag's Gen2 arbitration registers: everything QueryRep and
/// QueryAdjust in its own session read or write while the tag is in
/// Arbitrate or Reply. Those two commands never change its session,
/// flags or memory, and never move it out of Arbitrate or Reply, so a
/// medium may step these registers away from the tag
/// ([`TagMachine::arbitration`]) and write them back
/// ([`TagMachine::set_arbitration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arbitration {
    /// The xoshiro256++ state of the tag's slot and RN16 draws.
    pub rng: [u64; 4],
    /// The slot counter: 0 in Reply, at least 1 in Arbitrate.
    pub slot: u32,
    /// The Q of the tag's last slot draw.
    pub q: u8,
    /// Reply (true) or Arbitrate (false).
    pub reply: bool,
    /// The last RN16 the tag backscattered.
    pub rn16: u16,
}

/// Q after a QueryAdjust with `updn`, clamped to Gen2's 0–15.
#[inline]
pub fn adjusted_q(q: u8, updn: i8) -> u8 {
    (q as i8 + updn).clamp(0, 15) as u8
}

/// The slot counter a tag draws at Q = `q`: the low `q` bits of one
/// RNG word from `draw`, which is called only when `q` > 0 (Q = 0
/// draws nothing and replies at once). The same value as
/// `gen_range(0..2^q)`, which takes one masked word for a power-of-two
/// span.
#[inline]
pub fn draw_slot(q: u8, draw: impl FnOnce() -> u64) -> u32 {
    if q == 0 {
        0
    } else {
        (draw() & ((1u64 << q) - 1)) as u32
    }
}

/// The slot counter a QueryRep in its session leaves on a tag in Reply
/// (`reply`) or Arbitrate: a replying tag missed its ACK and goes back
/// to arbitration out of this slot (the maximum counter at `q`, at
/// least 1); an arbitrating tag counts down. Either way the tag replies
/// next exactly when the new counter is 0.
#[inline]
pub fn rep_slot(reply: bool, slot: u32, q: u8) -> u32 {
    if reply {
        (1u32 << q).saturating_sub(1).max(1)
    } else {
        slot.saturating_sub(1)
    }
}

/// The protocol engine of one tag.
#[derive(Debug)]
pub struct TagMachine {
    epc: Epc,
    pc: u16,
    state: TagState,
    flags: TagFlags,
    slot: u32,
    rn16: u16,
    session: Option<Session>,
    current_q: u8,
    rng: StdRng,
}

impl TagMachine {
    /// Creates a tag with the given EPC; `seed` drives its RN16 and slot
    /// draws (hardware tags use ring-oscillator entropy; the simulation
    /// wants reproducibility).
    pub fn new(epc: Epc, seed: u64) -> Self {
        Self {
            epc,
            pc: PC_96BIT,
            state: TagState::Ready,
            flags: TagFlags::new(),
            slot: 0,
            rn16: 0,
            session: None,
            current_q: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The tag's EPC.
    pub fn epc(&self) -> Epc {
        self.epc
    }

    /// The current protocol state.
    #[inline]
    pub fn state(&self) -> TagState {
        self.state
    }

    /// The current flag set (SL + inventoried).
    pub fn flags(&self) -> &TagFlags {
        &self.flags
    }

    /// The tag's current slot counter (meaningful in Arbitrate).
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The session and arbitration registers of a tag in Arbitrate or
    /// Reply; `None` in any other state.
    #[inline]
    pub fn arbitration(&self) -> Option<(Session, Arbitration)> {
        let reply = match self.state {
            TagState::Arbitrate => false,
            TagState::Reply => true,
            _ => return None,
        };
        let registers = Arbitration {
            rng: self.rng.state(),
            slot: self.slot,
            q: self.current_q,
            reply,
            rn16: self.rn16,
        };
        Some((self.session?, registers))
    }

    /// Writes back registers read by [`Self::arbitration`] after
    /// QueryReps and QueryAdjusts in the tag's session stepped them:
    /// the tag continues exactly as if it had heard those commands.
    #[inline]
    pub fn set_arbitration(&mut self, a: Arbitration) {
        debug_assert!(
            matches!(self.state, TagState::Arbitrate | TagState::Reply),
            "arbitration registers written back to a {:?} tag",
            self.state
        );
        self.rng = StdRng::from_state(a.rng);
        self.slot = a.slot;
        self.current_q = a.q;
        self.state = if a.reply {
            TagState::Reply
        } else {
            TagState::Arbitrate
        };
        self.rn16 = a.rn16;
    }

    /// The machine's RNG stream state — the only tag-side state that
    /// survives a power cycle besides the persistent session flags, so
    /// a step-boundary mission checkpoint captures exactly this plus
    /// [`TagFlags::snapshot`].
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the RNG stream captured by [`Self::rng_state`]; the
    /// machine's subsequent slot and RN16 draws continue that stream
    /// bit-identically.
    pub fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Overwrites the persistent flag set (checkpoint restore).
    pub fn restore_flags(&mut self, flags: TagFlags) {
        self.flags = flags;
    }

    /// Models loss of power: back to Ready, session-0 flag decays.
    pub fn power_cycle(&mut self) {
        self.state = TagState::Ready;
        self.flags.power_cycle();
        self.session = None;
    }

    /// The EPC-bank bit image: StoredCRC ‖ PC ‖ EPC (as Select masks
    /// address it).
    fn epc_bank(&self) -> Bits {
        let mut body = Bits::new();
        body.push_uint(self.pc as u64, 16);
        body.extend(&self.epc.to_bits());
        // StoredCRC is the CRC16 over PC+EPC and sits *first* in the bank.
        let crc = crate::crc::crc16(&body);
        let mut bank = Bits::new();
        bank.push_uint(crc as u64, 16);
        bank.extend(&body);
        bank
    }

    /// Draws a slot at `q`: a zero slot backscatters a fresh RN16.
    fn enter_slot(&mut self, q: u8) -> Option<u16> {
        self.current_q = q;
        let slot = draw_slot(q, || self.rng.next_u64());
        self.count_from(slot)
    }

    /// Holds `slot` in arbitration: a zero counter enters Reply with a
    /// fresh RN16 and returns it, any other arbitrates.
    fn count_from(&mut self, slot: u32) -> Option<u16> {
        self.slot = slot;
        if slot == 0 {
            Some(self.reply_rn16())
        } else {
            self.state = TagState::Arbitrate;
            None
        }
    }

    /// Enters Reply with a fresh RN16 and returns it.
    fn reply_rn16(&mut self) -> u16 {
        self.state = TagState::Reply;
        self.rn16 = self.rng.gen();
        self.rn16
    }

    /// QueryRep in `session`: an arbitrating tag counts its slot down
    /// and backscatters a fresh RN16 on reaching zero. Returns the RN16
    /// the tag sends, if any. This is the only implementation of the
    /// command; [`Self::handle`] delegates to it.
    pub fn query_rep(&mut self, session: Session) -> Option<u16> {
        if Some(session) != self.session {
            return None;
        }
        match self.state {
            TagState::Arbitrate | TagState::Reply => {
                let reply = self.state == TagState::Reply;
                self.count_from(rep_slot(reply, self.slot, self.current_q))
            }
            TagState::Acknowledged => {
                // Successfully inventoried: toggle and retire.
                self.flags.toggle_inventoried(session);
                self.state = TagState::Ready;
                None
            }
            _ => None,
        }
    }

    /// QueryAdjust in `session`: an arbitrating or replying tag redraws
    /// its slot at Q + `updn` (clamped to 0–15). Returns the RN16 the
    /// tag sends, if any. This is the only implementation of the
    /// command; [`Self::handle`] delegates to it.
    pub fn query_adjust(&mut self, session: Session, updn: i8) -> Option<u16> {
        if Some(session) != self.session {
            return None;
        }
        match self.state {
            TagState::Arbitrate | TagState::Reply => {
                self.enter_slot(adjusted_q(self.current_q, updn))
            }
            TagState::Acknowledged => {
                self.flags.toggle_inventoried(session);
                self.state = TagState::Ready;
                None
            }
            _ => None,
        }
    }

    /// Feeds one reader command; returns the backscattered reply, if
    /// any. A `None` means the tag stays silent (the normal case for
    /// most tags in most slots). QueryRep and QueryAdjust delegate to
    /// [`Self::query_rep`] and [`Self::query_adjust`], which a medium
    /// may also call directly.
    pub fn handle(&mut self, cmd: &Command) -> Option<TagReply> {
        match cmd {
            Command::Query {
                sel,
                session,
                target,
                q,
                ..
            } => {
                // A new Query ends any previous participation: a tag in
                // Acknowledged toggles its inventoried flag first (it
                // was successfully read this round).
                if self.state == TagState::Acknowledged {
                    if let Some(s) = self.session {
                        self.flags.toggle_inventoried(s);
                    }
                }
                self.session = Some(*session);
                let participates =
                    sel.matches(self.flags.selected) && self.flags.inventoried(*session) == *target;
                if participates {
                    self.enter_slot(*q).map(TagReply::rn16)
                } else {
                    self.state = TagState::Ready;
                    None
                }
            }
            Command::QueryRep { session } => self.query_rep(*session).map(TagReply::rn16),
            Command::QueryAdjust { session, updn } => {
                self.query_adjust(*session, *updn).map(TagReply::rn16)
            }
            Command::Ack { rn16 } => {
                if self.state == TagState::Reply && *rn16 == self.rn16 {
                    self.state = TagState::Acknowledged;
                    Some(TagReply::EpcFrame(epc_reply_frame(self.pc, self.epc)))
                } else if self.state == TagState::Reply || self.state == TagState::Acknowledged {
                    // Wrong RN16: return to arbitrate, stay silent.
                    self.state = TagState::Arbitrate;
                    self.slot = 1;
                    None
                } else {
                    None
                }
            }
            Command::Nak => {
                if matches!(self.state, TagState::Reply | TagState::Acknowledged) {
                    self.state = TagState::Arbitrate;
                    self.slot = u32::MAX; // effectively out of the round
                }
                None
            }
            Command::Select {
                target,
                action,
                bank,
                pointer,
                mask,
                ..
            } => {
                let matches = self.select_matches(*bank, *pointer, mask);
                self.apply_select(*target, *action, matches);
                // Select also aborts any round participation.
                self.state = TagState::Ready;
                None
            }
        }
    }

    fn select_matches(&self, bank: MemBank, pointer: u32, mask: &Bits) -> bool {
        let memory = match bank {
            MemBank::Epc => self.epc_bank(),
            // TID/User/Reserved are not modelled; treat as all-zero.
            _ => Bits::from_bools(&vec![false; 256]),
        };
        // A pointer+mask beyond the bank simply does not match — a
        // corrupted Select must never panic the tag.
        match memory.try_slice(pointer as usize, mask.len()) {
            Ok(window) => window == *mask,
            Err(_) => false,
        }
    }

    fn apply_select(&mut self, target: SelectTarget, action: u8, matched: bool) {
        // Gen2 Table 6.29: per-action (assert, deassert, negate, none)
        // for matching and non-matching tags.
        #[derive(Clone, Copy)]
        enum Op {
            Assert,
            Deassert,
            Negate,
            None,
        }
        let (on_match, on_miss) = match action & 0b111 {
            0b000 => (Op::Assert, Op::Deassert),
            0b001 => (Op::Assert, Op::None),
            0b010 => (Op::None, Op::Deassert),
            0b011 => (Op::Negate, Op::None),
            0b100 => (Op::Deassert, Op::Assert),
            0b101 => (Op::Deassert, Op::None),
            0b110 => (Op::None, Op::Assert),
            _ => (Op::None, Op::Negate),
        };
        let op = if matched { on_match } else { on_miss };
        match target {
            SelectTarget::Sl => match op {
                Op::Assert => self.flags.selected = true,
                Op::Deassert => self.flags.selected = false,
                Op::Negate => self.flags.selected = !self.flags.selected,
                Op::None => {}
            },
            SelectTarget::Inventoried(s) => match op {
                // "Assert" sets the flag to A, "deassert" to B.
                Op::Assert => self.flags.set_inventoried(s, InventoriedFlag::A),
                Op::Deassert => self.flags.set_inventoried(s, InventoriedFlag::B),
                Op::Negate => self.flags.toggle_inventoried(s),
                Op::None => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::MemBank;
    use crate::epc::parse_epc_reply;
    use crate::session::SelFilter;
    use crate::timing::{DivideRatio, TagEncoding};

    fn query(q: u8, session: Session, target: InventoriedFlag) -> Command {
        Command::Query {
            dr: DivideRatio::Dr64over3,
            m: TagEncoding::Fm0,
            trext: false,
            sel: SelFilter::All,
            session,
            target,
            q,
        }
    }

    fn tag(seed: u64) -> TagMachine {
        TagMachine::new(Epc::from_index(seed), seed)
    }

    #[test]
    fn full_singulation_handshake() {
        let mut t = tag(2);
        let rn16 = match t.handle(&query(0, Session::S1, InventoriedFlag::A)) {
            Some(TagReply::Rn16(b)) => b.uint_at(0, 16) as u16,
            other => panic!("expected RN16, got {other:?}"),
        };
        let epc_frame = match t.handle(&Command::Ack { rn16 }) {
            Some(TagReply::EpcFrame(b)) => b,
            other => panic!("expected EPC, got {other:?}"),
        };
        let (pc, epc) = parse_epc_reply(&epc_frame).expect("valid EPC frame");
        assert_eq!(pc, PC_96BIT);
        assert_eq!(epc, t.epc());
        assert_eq!(t.state(), TagState::Acknowledged);

        // End of its slot: QueryRep retires it and toggles the flag.
        assert!(t
            .handle(&Command::QueryRep {
                session: Session::S1
            })
            .is_none());
        assert_eq!(t.state(), TagState::Ready);
        assert_eq!(t.flags().inventoried(Session::S1), InventoriedFlag::B);
    }

    #[test]
    fn inventoried_tag_ignores_next_round_for_same_target() {
        let mut t = tag(4);
        let rn16 = match t.handle(&query(0, Session::S1, InventoriedFlag::A)) {
            Some(TagReply::Rn16(b)) => b.uint_at(0, 16) as u16,
            _ => panic!(),
        };
        t.handle(&Command::Ack { rn16 }).expect("acked");
        t.handle(&Command::QueryRep {
            session: Session::S1,
        });
        // Flag is now B; a Target-A query excludes the tag.
        let reply = t.handle(&query(0, Session::S1, InventoriedFlag::A));
        assert!(reply.is_none());
        assert_eq!(t.state(), TagState::Ready);
        // But a Target-B query includes it again.
        let reply_b = t.handle(&query(0, Session::S1, InventoriedFlag::B));
        assert!(matches!(reply_b, Some(TagReply::Rn16(_))));
    }

    #[test]
    fn arbitrate_counts_down_with_query_rep() {
        // Find a seed whose first slot draw (q=4) is ≥ 2 so we can watch
        // the countdown.
        let mut t = tag(5);
        let mut reply = t.handle(&query(4, Session::S0, InventoriedFlag::A));
        let mut guard = 0;
        while t.state() != TagState::Arbitrate || t.slot() < 2 {
            t = tag(100 + guard);
            reply = t.handle(&query(4, Session::S0, InventoriedFlag::A));
            guard += 1;
            assert!(guard < 100, "no suitable seed found");
        }
        assert!(reply.is_none());
        let start_slot = t.slot();
        let mut reps = 0;
        loop {
            let r = t.handle(&Command::QueryRep {
                session: Session::S0,
            });
            reps += 1;
            if r.is_some() {
                break;
            }
            assert!(reps <= start_slot, "tag never replied");
        }
        assert_eq!(reps, start_slot);
        assert_eq!(t.state(), TagState::Reply);
    }

    #[test]
    fn select_asserts_sl_on_epc_match() {
        let mut t = tag(8);
        // Mask: first 16 bits of the EPC, located at bit 32 of the EPC
        // bank (after StoredCRC and PC).
        let epc_bits = t.epc().to_bits();
        let cmd = Command::Select {
            target: SelectTarget::Sl,
            action: 0,
            bank: MemBank::Epc,
            pointer: 32,
            mask: epc_bits.slice(0, 16),
            truncate: false,
        };
        t.handle(&cmd);
        assert!(t.flags().selected);

        // A non-matching mask deasserts (action 0).
        let mut wrong: Vec<bool> = epc_bits.slice(0, 16).as_slice().to_vec();
        wrong[0] = !wrong[0];
        let cmd2 = Command::Select {
            target: SelectTarget::Sl,
            action: 0,
            bank: MemBank::Epc,
            pointer: 32,
            mask: Bits::from_bools(&wrong),
            truncate: false,
        };
        t.handle(&cmd2);
        assert!(!t.flags().selected);
    }

    #[test]
    fn sel_filter_excludes_unselected_tags() {
        let mut t = tag(9);
        let cmd = Command::Query {
            dr: DivideRatio::Dr8,
            m: TagEncoding::Fm0,
            trext: false,
            sel: SelFilter::Selected,
            session: Session::S0,
            target: InventoriedFlag::A,
            q: 0,
        };
        assert!(t.handle(&cmd).is_none(), "unselected tag must not reply");
        t.flags.selected = true;
        assert!(t.handle(&cmd).is_some());
    }

    #[test]
    fn power_cycle_resets_state_and_s0() {
        let mut t = tag(10);
        let rn16 = match t.handle(&query(0, Session::S0, InventoriedFlag::A)) {
            Some(TagReply::Rn16(b)) => b.uint_at(0, 16) as u16,
            _ => panic!(),
        };
        t.handle(&Command::Ack { rn16 });
        t.handle(&Command::QueryRep {
            session: Session::S0,
        });
        assert_eq!(t.flags().inventoried(Session::S0), InventoriedFlag::B);
        t.power_cycle();
        assert_eq!(t.state(), TagState::Ready);
        assert_eq!(t.flags().inventoried(Session::S0), InventoriedFlag::A);
    }

    #[test]
    fn corrupted_select_is_silent_not_fatal() {
        let mut t = tag(22);
        // Select with a pointer far past the EPC bank: no match, no panic.
        let cmd = Command::Select {
            target: SelectTarget::Sl,
            action: 0,
            bank: MemBank::Epc,
            pointer: u32::MAX,
            mask: Bits::from_str01("1010"),
            truncate: false,
        };
        t.handle(&cmd);
        assert!(!t.flags().selected);
    }

    /// A tag of `seed` driven by real commands into `want`, at Q = `q`
    /// in `session`; `Ready` is a tag the last Query left out.
    fn tag_in(seed: u64, want: TagState, q: u8, session: Session) -> TagMachine {
        let mut t = tag(seed);
        if want == TagState::Ready {
            t.handle(&query(q, session, InventoriedFlag::B));
        } else {
            t.handle(&query(q, session, InventoriedFlag::A));
            if want == TagState::Arbitrate && t.state() == TagState::Reply {
                // Missed ACK: back to arbitration.
                t.handle(&Command::QueryRep { session });
            } else if want != TagState::Arbitrate && t.state() == TagState::Arbitrate {
                t.slot = 1;
                t.handle(&Command::QueryRep { session });
            }
            if want == TagState::Acknowledged {
                t.handle(&Command::Ack { rn16: t.rn16 });
            }
        }
        assert_eq!(t.state(), want, "setup of seed {seed}, Q {q}");
        t
    }

    fn assert_same_machine(a: &TagMachine, b: &TagMachine, case: &str) {
        assert_eq!(a.state(), b.state(), "{case}: state");
        assert_eq!(a.slot(), b.slot(), "{case}: slot");
        assert_eq!(a.session, b.session, "{case}: session");
        assert_eq!(a.flags().snapshot(), b.flags().snapshot(), "{case}: flags");
        assert_eq!(a.rng_state(), b.rng_state(), "{case}: rng");
    }

    /// Feeds QueryRep (`updn` = `None`) or QueryAdjust in `heard` to
    /// `a` by [`TagMachine::handle`] and to `b` by the step; returns
    /// the step's RN16 after checking both replies agree.
    fn step_both(
        a: &mut TagMachine,
        b: &mut TagMachine,
        heard: Session,
        updn: Option<i8>,
        case: &str,
    ) -> Option<u16> {
        let (dispatched, stepped) = match updn {
            None => (
                a.handle(&Command::QueryRep { session: heard }),
                b.query_rep(heard),
            ),
            Some(updn) => (
                a.handle(&Command::QueryAdjust {
                    session: heard,
                    updn,
                }),
                b.query_adjust(heard, updn),
            ),
        };
        assert_eq!(dispatched, stepped.map(TagReply::rn16), "{case}: reply");
        assert_same_machine(a, b, case);
        stepped
    }

    #[test]
    fn arbitration_steps_match_command_dispatch() {
        const STATES: [TagState; 4] = [
            TagState::Ready,
            TagState::Arbitrate,
            TagState::Reply,
            TagState::Acknowledged,
        ];
        let own = Session::S1;
        let mut replies = 0;
        for (seed, q, want) in (40..44)
            .flat_map(|seed| [0, 1, 7, 15].map(|q| (seed, q)))
            .flat_map(|(seed, q)| STATES.map(|want| (seed, q, want)))
        {
            for heard in [own, Session::S3] {
                for updn in [None, Some(-1), Some(0), Some(1)] {
                    let mut a = tag_in(seed, want, q, own);
                    let mut b = tag_in(seed, want, q, own);
                    // Three steps in a row: the first leaves the setup
                    // state, the later ones act on where it went.
                    for n in 0..3 {
                        let case =
                            format!("seed {seed}, Q {q}, {want:?}, {heard:?}, {updn:?} #{n}");
                        let rn16 = step_both(&mut a, &mut b, heard, updn, &case);
                        replies += usize::from(rn16.is_some());
                    }
                }
            }
        }
        assert!(replies > 0, "some steps must backscatter an RN16");

        // A tag no Query has reached ignores both steps.
        let (mut a, mut b) = (tag(45), tag(45));
        for updn in [None, Some(1)] {
            assert_eq!(step_both(&mut a, &mut b, own, updn, "never queried"), None);
        }
    }

    #[test]
    fn rn16_draws_differ_between_singulations() {
        let mut t = tag(12);
        let r1 = match t.handle(&query(0, Session::S0, InventoriedFlag::A)) {
            Some(TagReply::Rn16(b)) => b.uint_at(0, 16),
            _ => panic!(),
        };
        t.power_cycle();
        let r2 = match t.handle(&query(0, Session::S0, InventoriedFlag::A)) {
            Some(TagReply::Rn16(b)) => b.uint_at(0, 16),
            _ => panic!(),
        };
        assert_ne!(r1, r2);
    }
}

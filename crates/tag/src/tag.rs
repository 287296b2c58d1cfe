//! The complete passive tag: protocol engine + harvester, placed at a
//! position in the scene.

use rfly_channel::geometry::Point2;
use rfly_dsp::units::{Dbm, Seconds};
use rfly_protocol::commands::Command;
use rfly_protocol::epc::Epc;
use rfly_protocol::session::Session;
use rfly_protocol::tag_state::{TagMachine, TagReply, TagState};

use crate::harvester::Harvester;

/// A passive UHF RFID tag in the simulation.
#[derive(Debug)]
pub struct PassiveTag {
    machine: TagMachine,
    harvester: Harvester,
    position: Point2,
}

impl PassiveTag {
    /// Creates a tag with typical off-the-shelf physics at `position`.
    pub fn new(epc: Epc, seed: u64, position: Point2) -> Self {
        Self {
            machine: TagMachine::new(epc, seed),
            harvester: Harvester::passive_tag(),
            position,
        }
    }

    /// Overrides the harvester (e.g. a more sensitive chip).
    pub fn with_harvester(mut self, harvester: Harvester) -> Self {
        self.harvester = harvester;
        self
    }

    /// The tag's EPC.
    pub fn epc(&self) -> Epc {
        self.machine.epc()
    }

    /// The tag's location.
    pub fn position(&self) -> Point2 {
        self.position
    }

    /// Moves the tag (scene setup only; tags are static during runs).
    pub fn set_position(&mut self, p: Point2) {
        self.position = p;
    }

    /// The protocol state (for tests and diagnostics).
    #[inline]
    pub fn state(&self) -> TagState {
        self.machine.state()
    }

    /// The protocol machine's slot counter (meaningful in Arbitrate).
    #[inline]
    pub fn slot(&self) -> u32 {
        self.machine.slot()
    }

    /// The session of the tag's last Query.
    #[inline]
    pub fn session(&self) -> Option<Session> {
        self.machine.session()
    }

    /// Overwrites the slot counter; calendar-only, see
    /// [`TagMachine::set_slot`].
    #[inline]
    pub fn set_slot(&mut self, slot: u32) {
        self.machine.set_slot(slot);
    }

    /// The protocol machine's RNG stream state (mission checkpoints).
    pub fn rng_state(&self) -> [u64; 4] {
        self.machine.rng_state()
    }

    /// Restores the RNG stream captured by [`Self::rng_state`].
    pub fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.machine.restore_rng_state(state);
    }

    /// The persistent Gen2 flag set, packed (mission checkpoints).
    pub fn flags_snapshot(&self) -> u8 {
        self.machine.flags().snapshot()
    }

    /// Restores the flag set captured by [`Self::flags_snapshot`].
    pub fn restore_flags_snapshot(&mut self, bits: u8) {
        self.machine
            .restore_flags(rfly_protocol::session::TagFlags::from_snapshot(bits));
    }

    /// Whether steady illumination at `incident` keeps the chip powered
    /// (no state change).
    #[inline]
    pub fn sustains(&self, incident: Dbm) -> bool {
        self.harvester.sustains(incident)
    }

    /// Phasor-level interaction: the tag hears `cmd` while illuminated at
    /// `incident` power. Returns the protocol reply if the tag is
    /// powered and chooses to respond.
    ///
    /// An under-powered tag is not merely silent — if it *was* powered it
    /// loses all protocol state (the blind-spot mechanism of \[31\]).
    #[inline]
    pub fn respond(&mut self, cmd: &Command, incident: Dbm) -> Option<TagReply> {
        if !self.harvester.sustains(incident) {
            if self.harvester.powered() {
                self.harvester.reset();
                self.machine.power_cycle();
            }
            return None;
        }
        if !self.harvester.powered() {
            // Steady illumination assumed between commands: charge up.
            self.harvester.step(incident, self.harvester.charge_time);
        }
        self.machine.handle(cmd)
    }

    /// Sample-level power bookkeeping while listening: advances the
    /// harvester through `dt` at `incident`; reports a power cycle to
    /// the protocol machine.
    pub fn illuminate(&mut self, incident: Dbm, dt: Seconds) {
        if self.harvester.step(incident, dt) {
            self.machine.power_cycle();
        }
    }

    /// Whether the chip is currently powered.
    #[inline]
    pub fn powered(&self) -> bool {
        self.harvester.powered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_protocol::session::{InventoriedFlag, SelFilter, Session};
    use rfly_protocol::timing::{DivideRatio, TagEncoding};

    fn query() -> Command {
        Command::Query {
            dr: DivideRatio::Dr64over3,
            m: TagEncoding::Fm0,
            trext: false,
            sel: SelFilter::All,
            session: Session::S0,
            target: InventoriedFlag::A,
            q: 0,
        }
    }

    fn tag() -> PassiveTag {
        PassiveTag::new(Epc::from_index(1), 1, Point2::new(3.0, 0.0))
    }

    #[test]
    fn powered_tag_replies() {
        let mut t = tag();
        let reply = t.respond(&query(), Dbm::new(-10.0));
        assert!(matches!(reply, Some(TagReply::Rn16(_))));
        assert!(t.powered());
    }

    #[test]
    fn starved_tag_is_silent() {
        let mut t = tag();
        assert!(t.respond(&query(), Dbm::new(-20.0)).is_none());
        assert!(!t.powered());
    }

    #[test]
    fn losing_power_resets_protocol_state() {
        let mut t = tag();
        t.respond(&query(), Dbm::new(-10.0)).expect("replied");
        assert_eq!(t.state(), TagState::Reply);
        // Power dips below threshold: state must collapse to Ready.
        assert!(t.respond(&query(), Dbm::new(-30.0)).is_none());
        assert_eq!(t.state(), TagState::Ready);
    }

    #[test]
    fn illumination_dynamics_power_cycle() {
        let mut t = tag();
        t.respond(&query(), Dbm::new(-10.0)).unwrap();
        t.illuminate(Dbm::new(-60.0), Seconds::new(1e-3)); // 1 ms starvation
        assert!(!t.powered());
        assert_eq!(t.state(), TagState::Ready);
    }

    #[test]
    fn position_accessors() {
        let mut t = tag();
        assert_eq!(t.position(), Point2::new(3.0, 0.0));
        t.set_position(Point2::new(1.0, 1.0));
        assert_eq!(t.position(), Point2::new(1.0, 1.0));
    }
}

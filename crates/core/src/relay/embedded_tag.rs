//! The relay-embedded RFID (§5.1).
//!
//! A stock Gen2 tag glued onto the relay itself serves three roles:
//!
//! 1. its channel, as seen by the reader, is *purely* the reader↔relay
//!    half-link — the divisor of Eq. 10's disentanglement;
//! 2. it abides by Gen2 anti-collision, so it coexists with the tags in
//!    the environment without protocol changes;
//! 3. decoding it at all tells the reader the drone is in radio range
//!    (it is always within the relay's own powering range).

use rfly_protocol::commands::Command;
use rfly_protocol::epc::Epc;
use rfly_protocol::tag_state::{TagMachine, TagReply};

/// The tag mounted on the relay PCB.
///
/// Unlike environment tags it is *always powered* when the relay is on
/// (it sits centimeters from the relay's transmit antenna), so there is
/// no harvester model here.
#[derive(Debug)]
pub struct EmbeddedRfid {
    machine: TagMachine,
}

impl EmbeddedRfid {
    /// Creates the embedded tag with its (reserved) EPC.
    pub fn new(epc: Epc, seed: u64) -> Self {
        Self {
            machine: TagMachine::new(epc, seed),
        }
    }

    /// Handles a (relay-forwarded) reader command.
    pub fn handle(&mut self, cmd: &Command) -> Option<TagReply> {
        self.machine.handle(cmd)
    }

    /// Resets protocol state (relay power cycle).
    pub fn power_cycle(&mut self) {
        self.machine.power_cycle();
    }

    /// The machine's RNG stream state (mission checkpoints).
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
            .restore_flags(rfly_protocol::session::TagFlags::from_bits(bits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_protocol::session::{InventoriedFlag, SelFilter, Session};
    use rfly_protocol::tag_state::TagReply;
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

    #[test]
    fn embedded_tag_is_a_normal_gen2_citizen() {
        let mut t = EmbeddedRfid::new(Epc::from_index(0xEE), 1);
        let reply = t.handle(&query());
        assert!(matches!(reply, Some(TagReply::Rn16(_))));
    }

    #[test]
    fn power_cycle_resets_protocol() {
        let mut t = EmbeddedRfid::new(Epc::from_index(0xEE), 1);
        t.handle(&query()).expect("replied");
        t.power_cycle();
        // After reset a fresh Q=0 query solicits a reply again.
        assert!(t.handle(&query()).is_some());
    }
}

//! The Gen2 tag machine's transition table over its four inventory
//! states: Ready, Arbitrate, Reply and Acknowledged.
//!
//! Every row drives a tag into one state with reader commands, feeds it
//! one more command and pins what follows: the next state, what the tag
//! backscatters (nothing, an RN16 or its EPC frame), its inventoried
//! flag in the round's session and, when it ends in Arbitrate, its slot
//! counter. Only the public `rfly::protocol` API is used.
//!
//! Every setup is the same seeded tag at Q = 4 in session S1, whose
//! first slot draw replies at once, so the rows are exact.

use rfly::protocol::bits::Bits;
use rfly::protocol::commands::{Command, MemBank, SelectTarget};
use rfly::protocol::epc::{parse_epc_reply, parse_rn16, Epc};
use rfly::protocol::session::{InventoriedFlag, SelFilter, Session};
use rfly::protocol::tag_state::{TagMachine, TagReply, TagState};
use rfly::protocol::timing::{DivideRatio, TagEncoding};

use Event::*;
use Heard::{EpcFrame, Rn16, Silent};
use InventoriedFlag::{A, B};
use TagState::{Acknowledged, Arbitrate, Ready, Reply};

/// The session of every setup's round.
const OWN: Session = Session::S1;
/// A session no setup's round runs in.
const FOREIGN: Session = Session::S3;
/// The Q of every setup's round.
const Q: u8 = 4;

/// The command a row feeds to a tag in its start state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Query at Q = 0 in the own session, targeting the tag's flag (A).
    QueryMatch,
    /// Query at Q = 0 in the own session, targeting the other flag (B).
    QueryMiss,
    RepOwn,
    RepForeign,
    /// QueryAdjust down (−1), in the own or another session.
    AdjustOwn,
    AdjustForeign,
    /// Ack carrying the RN16 the tag last backscattered, or another.
    AckRight,
    AckWrong,
    Nak,
    /// Select on the own session's flag, action 0 (A on a match, B on a
    /// miss), whose mask is the EPC's first 16 bits, or with one flipped.
    SelectMatch,
    SelectMiss,
}

const EVENTS: [Event; 11] = [
    QueryMatch,
    QueryMiss,
    RepOwn,
    RepForeign,
    AdjustOwn,
    AdjustForeign,
    AckRight,
    AckWrong,
    Nak,
    SelectMatch,
    SelectMiss,
];

/// What a tag backscatters in answer to a row's command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heard {
    Silent,
    Rn16,
    EpcFrame,
}

/// Next state, reply, the own session's inventoried flag, and the slot
/// counter when the next state is Arbitrate.
type Outcome = (TagState, Heard, InventoriedFlag, Option<u32>);

#[rustfmt::skip]
const TABLE: [(TagState, Event, Outcome); 44] = [
    (Ready, QueryMatch,    (Reply, Rn16,   A, None)),
    (Ready, QueryMiss,     (Ready, Silent, A, None)),
    (Ready, RepOwn,        (Ready, Silent, A, None)),
    (Ready, RepForeign,    (Ready, Silent, A, None)),
    (Ready, AdjustOwn,     (Ready, Silent, A, None)),
    (Ready, AdjustForeign, (Ready, Silent, A, None)),
    (Ready, AckRight,      (Ready, Silent, A, None)),
    (Ready, AckWrong,      (Ready, Silent, A, None)),
    (Ready, Nak,           (Ready, Silent, A, None)),
    (Ready, SelectMatch,   (Ready, Silent, A, None)),
    (Ready, SelectMiss,    (Ready, Silent, B, None)),

    (Arbitrate, QueryMatch,    (Reply,     Rn16,   A, None)),
    (Arbitrate, QueryMiss,     (Ready,     Silent, A, None)),
    (Arbitrate, RepOwn,        (Arbitrate, Silent, A, Some(14))),
    (Arbitrate, RepForeign,    (Arbitrate, Silent, A, Some(15))),
    (Arbitrate, AdjustOwn,     (Arbitrate, Silent, A, Some(1))),
    (Arbitrate, AdjustForeign, (Arbitrate, Silent, A, Some(15))),
    (Arbitrate, AckRight,      (Arbitrate, Silent, A, Some(15))),
    (Arbitrate, AckWrong,      (Arbitrate, Silent, A, Some(15))),
    (Arbitrate, Nak,           (Arbitrate, Silent, A, Some(15))),
    (Arbitrate, SelectMatch,   (Ready,     Silent, A, None)),
    (Arbitrate, SelectMiss,    (Ready,     Silent, B, None)),

    (Reply, QueryMatch,    (Reply,        Rn16,     A, None)),
    (Reply, QueryMiss,     (Ready,        Silent,   A, None)),
    // A missed ACK returns the tag to arbitration with the largest
    // counter at Q, 2^Q − 1 = 15. Gen2 wraps the counter to 7FFFh
    // instead: ROADMAP item 1's conformance fix changes this slot, and
    // with it the Arbitrate rows' counters, whose setup is this row.
    (Reply, RepOwn,        (Arbitrate,    Silent,   A, Some(15))),
    (Reply, RepForeign,    (Reply,        Silent,   A, None)),
    (Reply, AdjustOwn,     (Arbitrate,    Silent,   A, Some(1))),
    (Reply, AdjustForeign, (Reply,        Silent,   A, None)),
    (Reply, AckRight,      (Acknowledged, EpcFrame, A, None)),
    (Reply, AckWrong,      (Arbitrate,    Silent,   A, Some(1))),
    (Reply, Nak,           (Arbitrate,    Silent,   A, Some(u32::MAX))),
    (Reply, SelectMatch,   (Ready,        Silent,   A, None)),
    (Reply, SelectMiss,    (Ready,        Silent,   B, None)),

    // A Query or a QueryRep/QueryAdjust of the round first toggles an
    // Acknowledged tag's flag: it was read.
    (Acknowledged, QueryMatch,    (Ready,        Silent, B, None)),
    (Acknowledged, QueryMiss,     (Reply,        Rn16,   B, None)),
    (Acknowledged, RepOwn,        (Ready,        Silent, B, None)),
    (Acknowledged, RepForeign,    (Acknowledged, Silent, A, None)),
    (Acknowledged, AdjustOwn,     (Ready,        Silent, B, None)),
    (Acknowledged, AdjustForeign, (Acknowledged, Silent, A, None)),
    // Gen2 keeps an Acknowledged tag that hears its own RN16 again in
    // Acknowledged and has it backscatter its EPC once more; this
    // machine treats the repeat like a wrong RN16.
    (Acknowledged, AckRight,      (Arbitrate,    Silent, A, Some(1))),
    (Acknowledged, AckWrong,      (Arbitrate,    Silent, A, Some(1))),
    (Acknowledged, Nak,           (Arbitrate,    Silent, A, Some(u32::MAX))),
    (Acknowledged, SelectMatch,   (Ready,        Silent, A, None)),
    (Acknowledged, SelectMiss,    (Ready,        Silent, B, None)),
];

fn query(target: InventoriedFlag, q: u8) -> Command {
    Command::Query {
        dr: DivideRatio::Dr64over3,
        m: TagEncoding::Fm0,
        trext: false,
        sel: SelFilter::All,
        session: OWN,
        target,
        q,
    }
}

fn fresh(seed: u64) -> TagMachine {
    TagMachine::new(Epc::from_index(seed), seed)
}

/// A tag driven into `state`, with the RN16 it last backscattered.
/// Every setup first enters Reply at Q = 4; Arbitrate is then a missed
/// ACK (counter 15), Acknowledged the right ACK, and Ready a Query of
/// the session targeting B.
fn tag_in(state: TagState) -> (TagMachine, u16) {
    let seed = (0..)
        .find(|&seed| fresh(seed).handle(&query(A, Q)).is_some())
        .unwrap_or_default();
    let mut tag = fresh(seed);
    let rn16 = match tag.handle(&query(A, Q)) {
        Some(TagReply::Rn16(frame)) => frame.uint_at(0, 16) as u16,
        other => panic!("seed {seed}: expected an RN16, got {other:?}"),
    };
    let setup = match state {
        Ready => Some(query(B, Q)),
        Arbitrate => Some(Command::QueryRep { session: OWN }),
        Acknowledged => Some(Command::Ack { rn16 }),
        _ => None,
    };
    if let Some(cmd) = setup {
        tag.handle(&cmd);
    }
    assert_eq!(tag.state(), state, "setup");
    assert_eq!(tag.flags().inventoried(OWN), A, "setup of {state:?}");
    (tag, rn16)
}

fn command(event: Event, tag: &TagMachine, rn16: u16) -> Command {
    let mut mask = tag.epc().to_bits().slice(0, 16).as_slice().to_vec();
    let (session, updn) = (OWN, -1);
    match event {
        QueryMatch => query(A, 0),
        QueryMiss => query(B, 0),
        RepOwn => Command::QueryRep { session },
        RepForeign => Command::QueryRep { session: FOREIGN },
        AdjustOwn => Command::QueryAdjust { session, updn },
        AdjustForeign => Command::QueryAdjust {
            session: FOREIGN,
            updn,
        },
        AckRight => Command::Ack { rn16 },
        AckWrong => Command::Ack { rn16: !rn16 },
        Nak => Command::Nak,
        SelectMatch | SelectMiss => {
            mask[0] ^= event == SelectMiss;
            Command::Select {
                target: SelectTarget::Inventoried(OWN),
                action: 0,
                bank: MemBank::Epc,
                // The EPC follows StoredCRC and PC in the EPC bank.
                pointer: 32,
                mask: Bits::from_bools(&mask),
                truncate: false,
            }
        }
    }
}

fn run(state: TagState, event: Event) -> Outcome {
    let (mut tag, rn16) = tag_in(state);
    let heard = match tag
        .handle(&command(event, &tag, rn16))
        .map(TagReply::into_frame)
    {
        None => Silent,
        Some(frame) if parse_rn16(&frame).is_some() => Rn16,
        Some(frame) if parse_epc_reply(&frame).map(|r| r.1) == Some(tag.epc()) => EpcFrame,
        Some(frame) => panic!("{state:?} × {event:?}: not an inventory reply: {frame}"),
    };
    let slot = (tag.state() == Arbitrate).then(|| tag.slot());
    (tag.state(), heard, tag.flags().inventoried(OWN), slot)
}

/// Checks that `table` has one row for each state × event and that
/// every row holds; the error names each row that does not.
fn check(table: &[(TagState, Event, Outcome)]) -> Result<(), String> {
    let mut wrong = Vec::new();
    for state in [Ready, Arbitrate, Reply, Acknowledged] {
        for event in EVENTS {
            let rows = table.iter().filter(|r| (r.0, r.1) == (state, event));
            if rows.count() != 1 {
                wrong.push(format!("{state:?} × {event:?}: not one row"));
            }
        }
    }
    for &(state, event, want) in table {
        let got = run(state, event);
        if got != want {
            wrong.push(format!(
                "{state:?} × {event:?}: expected {want:?}, got {got:?}"
            ));
        }
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join("\n"))
    }
}

#[test]
fn live_states_follow_the_committed_transition_table() {
    if let Err(rows) = check(&TABLE) {
        panic!("transition table rows do not hold:\n{rows}");
    }
}

#[test]
fn planted_control_one_altered_row_is_caught() {
    // Plant: Reply × AckRight expected to leave the tag in Reply.
    let mut planted = TABLE;
    for row in &mut planted {
        if (row.0, row.1) == (Reply, AckRight) {
            row.2 .0 = Reply;
        }
    }
    let err = check(&planted).expect_err("the altered row must fail the check");
    assert!(
        err.starts_with("Reply × AckRight:") && !err.contains('\n'),
        "the check must name the altered row and only it:\n{err}"
    );
}

//! The divergence detector: where do two mission records first
//! disagree?
//!
//! [`first_divergence`] compares two journals step by step, field by
//! field, and reports the first disagreement — the step index, the
//! field name, and both values. [`verify_replay`] re-runs a journal's
//! scenario live under a given fault schedule and compares the fresh
//! journal against the recorded one: the end-to-end determinism check a
//! triage session runs before trusting a journal.
//!
//! Floats are compared by bit pattern, not by `==` — a `-0.0` / `0.0`
//! disagreement is a real divergence (the two runs took different
//! arithmetic paths even though the values compare equal).

use rfly_faults::supervisor::StepRecord;
use rfly_faults::FaultSchedule;

use crate::journal::Journal;
use crate::runner::run_full;

/// The first point at which two mission records disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The step index at which the records part ways (the journal's
    /// step count when the disagreement is a missing step).
    pub step: usize,
    /// Which journaled field disagrees.
    pub field: &'static str,
    /// Both values, rendered for the triage report.
    pub detail: String,
}

fn bits3(m: Option<(usize, usize, f64)>) -> Option<(usize, usize, u64)> {
    m.map(|(i, j, x)| (i, j, x.to_bits()))
}

/// Compares one step's records field by field.
fn step_divergence(a: &StepRecord, b: &StepRecord) -> Option<(&'static str, String)> {
    if a.step != b.step {
        return Some(("step", format!("{} vs {}", a.step, b.step)));
    }
    if a.faults != b.faults {
        return Some(("faults", format!("{:?} vs {:?}", a.faults, b.faults)));
    }
    if a.recoveries != b.recoveries {
        return Some((
            "recoveries",
            format!("{:?} vs {:?}", a.recoveries, b.recoveries),
        ));
    }
    if bits3(a.margin) != bits3(b.margin) {
        return Some(("margin", format!("{:?} vs {:?}", a.margin, b.margin)));
    }
    if a.reads.len() != b.reads.len() {
        return Some((
            "reads",
            format!("{} reads vs {}", a.reads.len(), b.reads.len()),
        ));
    }
    for (ra, rb) in a.reads.iter().zip(&b.reads) {
        let same = ra.relay == rb.relay
            && ra.epc == rb.epc
            && ra.channel.re.to_bits() == rb.channel.re.to_bits()
            && ra.channel.im.to_bits() == rb.channel.im.to_bits()
            && ra.snr.value().to_bits() == rb.snr.value().to_bits();
        if !same {
            return Some(("reads", format!("{ra:?} vs {rb:?}")));
        }
    }
    if a.rng != b.rng {
        return Some(("rng", format!("{:x?} vs {:x?}", a.rng, b.rng)));
    }
    if a.done != b.done {
        return Some(("done", format!("{} vs {}", a.done, b.done)));
    }
    None
}

/// The first step and field at which journals `a` and `b` disagree, or
/// `None` if they match bit for bit (seals included).
pub fn first_divergence(a: &Journal, b: &Journal) -> Option<Divergence> {
    if a.scenario != b.scenario {
        return Some(Divergence {
            step: 0,
            field: "scenario",
            detail: format!("{} vs {}", a.scenario, b.scenario),
        });
    }
    for (k, (ra, rb)) in a.steps.iter().zip(&b.steps).enumerate() {
        if let Some((field, detail)) = step_divergence(ra, rb) {
            return Some(Divergence {
                step: k,
                field,
                detail,
            });
        }
    }
    if a.steps.len() != b.steps.len() {
        return Some(Divergence {
            step: a.steps.len().min(b.steps.len()),
            field: "length",
            detail: format!("{} steps vs {}", a.steps.len(), b.steps.len()),
        });
    }
    let seal_bits = |j: &Journal| j.sealed.map(|s| (s.steps, s.duration_s.to_bits()));
    if seal_bits(a) != seal_bits(b) {
        return Some(Divergence {
            step: a.steps.len(),
            field: "seal",
            detail: format!("{:?} vs {:?}", a.sealed, b.sealed),
        });
    }
    None
}

/// Re-runs `journal`'s scenario live under `schedule` and reports the
/// first divergence between the recorded journal and the fresh run
/// (`None` = the journal replays exactly).
///
/// A sealed journal that replays with a divergence means either the
/// journal text was edited, the schedule passed here is not the one the
/// mission flew, or — worst case — nondeterminism crept into the
/// mission path.
pub fn verify_replay(
    journal: &Journal,
    schedule: &FaultSchedule,
) -> Result<Option<Divergence>, String> {
    let fresh = run_full(&journal.scenario, schedule)?;
    Ok(first_divergence(journal, &fresh.journal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scenario;
    use rfly_dsp::units::Db;

    #[test]
    fn identical_runs_do_not_diverge() {
        let scn = Scenario::small(17);
        let storm = FaultSchedule::storm(17, 2, 12);
        let run = run_full(&scn, &storm).expect("runs");
        assert_eq!(
            verify_replay(&run.journal, &storm).expect("replays"),
            None,
            "a sealed journal must replay exactly"
        );
    }

    #[test]
    fn wrong_schedule_is_detected() {
        let scn = Scenario::small(17);
        let storm = FaultSchedule::storm(17, 2, 12);
        let run = run_full(&scn, &storm).expect("runs");
        let div = verify_replay(&run.journal, &FaultSchedule::none())
            .expect("replays")
            .expect("a dropped schedule must diverge");
        // The storm's earliest strike is at step 1; step 0 is identical
        // in both runs, so the divergence lands exactly there.
        assert_eq!((div.step, div.field), (1, "faults"));
    }

    #[test]
    fn edited_fields_are_pinpointed() {
        let scn = Scenario::small(17);
        let storm = FaultSchedule::storm(17, 2, 12);
        let run = run_full(&scn, &storm).expect("runs");

        let mut edited = run.journal.clone();
        edited.steps[2].rng[0] ^= 1;
        let div = first_divergence(&run.journal, &edited).expect("diverges");
        assert_eq!((div.step, div.field), (2, "rng"));

        let mut edited = run.journal.clone();
        if let Some(r) = edited.steps[1].reads.first_mut() {
            r.snr = r.snr + Db::new(0.5);
        }
        if !edited.steps[1].reads.is_empty() {
            let div = first_divergence(&run.journal, &edited).expect("diverges");
            assert_eq!((div.step, div.field), (1, "reads"));
        }

        let mut truncated = run.journal.clone();
        truncated.steps.pop();
        truncated.sealed = None;
        let div = first_divergence(&run.journal, &truncated).expect("diverges");
        assert_eq!(div.field, "length");
    }
}

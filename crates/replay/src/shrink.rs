//! The delta-debugging fault-schedule shrinker.
//!
//! Given a schedule that makes the invariant harness flag a violation,
//! [`shrink`] minimizes it while the harness *still flags the same
//! invariant*:
//!
//! 1. **Event removal to fixed point** — greedily drop one event at a
//!    time, keeping a removal exactly when the reduced schedule still
//!    violates; repeat full passes until none succeeds.
//! 2. **Per-event weakening** — walk each survivor down its
//!    [`rfly_faults::FaultKind::weakened`] ladder (halved severities
//!    and durations, floored) as far as the violation survives.
//! 3. **One more removal pass** — weakening can make an event
//!    redundant.
//!
//! Every probe is one deterministic supervised mission, so the whole
//! shrink is deterministic: the same input schedule always reduces to
//! the same minimal repro. Event ids are preserved, so a minimized
//! event is traceable back to the original storm.

use rfly_faults::schedule::FaultEvent;
use rfly_faults::FaultSchedule;

use crate::invariant::{InvariantHarness, Violation};
use crate::runner::Scenario;

/// The outcome of a shrink session.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized schedule (still violating).
    pub schedule: FaultSchedule,
    /// The violation the minimized schedule still triggers.
    pub violation: Violation,
    /// Harness probes spent (mission re-runs).
    pub probes: usize,
}

/// Minimizes `schedule` while `harness` still flags the same invariant.
///
/// Errors if the input schedule does not violate anything to begin
/// with, or if a probe mission fails to build.
pub fn shrink(
    harness: &InvariantHarness,
    schedule: &FaultSchedule,
) -> Result<ShrinkResult, String> {
    let mut probes = 0usize;
    let initial = {
        probes += 1;
        harness
            .check(schedule)?
            .ok_or_else(|| "the input schedule does not violate any invariant".to_string())?
    };
    let mut prober = Prober {
        harness,
        target: initial.invariant,
        probes,
    };
    let mut events = schedule.events().to_vec();
    let mut violation = initial;

    prober.removal_pass(&mut events, &mut violation)?;

    // Weakening: walk each event down its ladder while the violation
    // survives.
    for i in 0..events.len() {
        while let Some(weaker) = events[i].kind.weakened() {
            let mut candidate = events.clone();
            candidate[i].kind = weaker;
            if let Some(v) = prober.still(&candidate)? {
                events = candidate;
                violation = v;
            } else {
                break;
            }
        }
    }

    prober.removal_pass(&mut events, &mut violation)?;

    Ok(ShrinkResult {
        schedule: FaultSchedule::from_events(events),
        violation,
        probes: prober.probes,
    })
}

/// The shrink session's probe oracle: counts missions flown and accepts
/// only violations of the *original* invariant (a reduction that trades
/// one violation for a different one is rejected — the repro must
/// reproduce the failure being triaged).
struct Prober<'a> {
    harness: &'a InvariantHarness,
    target: &'static str,
    probes: usize,
}

impl Prober<'_> {
    /// Does `events` still violate the target invariant?
    fn still(&mut self, events: &[FaultEvent]) -> Result<Option<Violation>, String> {
        self.probes += 1;
        let v = self
            .harness
            .check(&FaultSchedule::from_events(events.to_vec()))?;
        Ok(v.filter(|v| v.invariant == self.target))
    }

    /// Greedy single-event removal, repeated to fixed point.
    fn removal_pass(
        &mut self,
        events: &mut Vec<FaultEvent>,
        violation: &mut Violation,
    ) -> Result<(), String> {
        loop {
            let mut removed_any = false;
            let mut i = 0;
            while i < events.len() {
                let mut candidate = events.clone();
                candidate.remove(i);
                if let Some(v) = self.still(&candidate)? {
                    *events = candidate;
                    *violation = v;
                    removed_any = true;
                    // Do not advance: the event now at `i` is untried.
                } else {
                    i += 1;
                }
            }
            if !removed_any {
                return Ok(());
            }
        }
    }
}

/// A parsed repro file: everything [`repro_to_text`] wrote, ready to
/// re-fly with one [`crate::runner::run_full`] call.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The scenario the violation was found in.
    pub scenario: Scenario,
    /// The violated invariant's name (e.g. `coverage-retention`).
    pub invariant: String,
    /// The recorded violation detail.
    pub detail: String,
    /// The minimized fault schedule.
    pub schedule: FaultSchedule,
}

/// Parses a [`repro_to_text`] file back into its parts — the
/// re-flying half of the repro round trip, used by regression tests
/// that hold old soak violations closed.
pub fn repro_from_text(text: &str) -> Result<Repro, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "rfly-repro v1")) => {}
        other => return Err(format!("bad repro header {:?}", other.map(|(_, l)| l))),
    }
    let (n, scenario_line) = lines.next().ok_or("missing scenario line")?;
    let scenario =
        Scenario::from_line(scenario_line, n + 1).map_err(|e| format!("scenario line: {e}"))?;
    let (_, inv_line) = lines.next().ok_or("missing invariant line")?;
    let rest = inv_line
        .strip_prefix("invariant ")
        .ok_or_else(|| format!("expected an `invariant` line, found {inv_line:?}"))?;
    let (invariant, detail) = match rest.split_once(' ') {
        Some((name, detail)) => (name.to_string(), detail.to_string()),
        None => (rest.to_string(), String::new()),
    };
    let schedule_text: String = lines.map(|(_, l)| format!("{l}\n")).collect();
    let schedule =
        FaultSchedule::from_text(&schedule_text).map_err(|e| format!("fault schedule: {e}"))?;
    Ok(Repro {
        scenario,
        invariant,
        detail,
        schedule,
    })
}

/// The minimal-repro file format: the scenario line, the violated
/// invariant, and the minimized schedule — everything a later session
/// needs to reproduce the violation with one [`crate::runner::run_full`]
/// call.
pub fn repro_to_text(scenario: &Scenario, result: &ShrinkResult) -> String {
    format!(
        "rfly-repro v1\n{scenario}\ninvariant {} {}\n{}",
        result.violation.invariant, result.violation.detail, result.schedule
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::Invariant;
    use rfly_faults::schedule::{FaultEvent, FaultKind};

    /// A hand-built storm whose only load-bearing event is one gain
    /// drift: unsupervised, a 38 dB drift drops the band-packed
    /// baseline's ~41 dB mutual-loop margin below a 25 dB floor for
    /// the rest of the mission, while the phase-glitch decoys never
    /// touch the margin. Removal must strip the decoys, and weakening
    /// must walk the drift down the halving ladder to the smallest
    /// value still under the floor.
    #[test]
    fn shrinker_reduces_a_padded_schedule_to_its_core() {
        let scn = Scenario {
            supervised: false,
            ..Scenario::small(3)
        };
        let harness =
            InvariantHarness::new(scn.clone(), vec![Invariant::MarginGate { floor_db: 25.0 }])
                .expect("baseline");

        let mut events = vec![FaultEvent {
            id: 0,
            step: 1,
            relay: 0,
            kind: FaultKind::GainDrift { db: 38.0 },
        }];
        // Decoys: oscillator transients that never move the margin.
        for id in 1..8 {
            events.push(FaultEvent {
                id,
                step: id % 3,
                relay: 1,
                kind: FaultKind::PhaseGlitch { rad: 0.5 },
            });
        }
        let storm = FaultSchedule::from_events(events);
        assert!(
            harness.check(&storm).expect("runs").is_some(),
            "a 38 dB unsupervised drift must break the 25 dB margin floor"
        );

        let a = shrink(&harness, &storm).expect("shrinks");
        assert_eq!(a.violation.invariant, "margin-gate");
        assert_eq!(
            a.schedule.events().len(),
            1,
            "only the gain drift is load-bearing: {:?}",
            a.schedule.events()
        );
        let FaultKind::GainDrift { db } = a.schedule.events()[0].kind else {
            panic!("unexpected minimized kind {:?}", a.schedule.events()[0]);
        };
        assert!(
            db < 38.0,
            "weakening must have walked the drift down, got {db}"
        );
        assert_eq!(a.schedule.events()[0].id, 0, "original id preserved");

        // Determinism: same input, same minimal repro, same probe count.
        let b = shrink(&harness, &storm).expect("shrinks");
        assert_eq!(a.schedule.to_string(), b.schedule.to_string());
        assert_eq!(a.probes, b.probes);
    }

    /// A stranded-cell storm (battery death with no supervisor)
    /// padded with decoys: the shrinker must strip everything but the
    /// fatal sag, and the resulting repro file must round-trip through
    /// [`repro_from_text`] with the `no-stranded-cell` invariant
    /// intact — the full shrink → write → re-parse → re-fly loop the
    /// ops soak bench leans on.
    #[test]
    fn stranded_cell_shrink_round_trips_through_its_repro() {
        let scn = Scenario {
            supervised: false,
            ..Scenario::small(3)
        };
        let harness =
            InvariantHarness::new(scn.clone(), vec![Invariant::NoStrandedCell]).expect("baseline");
        let mut events = vec![FaultEvent {
            id: 0,
            step: 2,
            relay: 0,
            kind: FaultKind::BatterySag,
        }];
        for id in 1..6 {
            events.push(FaultEvent {
                id,
                step: id % 4,
                relay: 1,
                kind: FaultKind::DeepFade { db: 3.0, steps: 2 },
            });
        }
        let storm = FaultSchedule::from_events(events);
        let result = shrink(&harness, &storm).expect("shrinks");
        assert_eq!(result.violation.invariant, "no-stranded-cell");
        assert_eq!(
            result.schedule.events().len(),
            1,
            "only the sag is load-bearing: {:?}",
            result.schedule.events()
        );
        assert!(matches!(
            result.schedule.events()[0].kind,
            FaultKind::BatterySag
        ));

        let text = repro_to_text(&scn, &result);
        let back = repro_from_text(&text).expect("parses");
        assert_eq!(back.invariant, "no-stranded-cell");
        assert_eq!(back.scenario, scn);
        assert_eq!(back.schedule.to_string(), result.schedule.to_string());
        // Re-flying the parsed repro still violates — the loop closes.
        let reharness = InvariantHarness::new(back.scenario, vec![Invariant::NoStrandedCell])
            .expect("baseline");
        assert!(reharness.check(&back.schedule).expect("runs").is_some());
    }

    #[test]
    fn repro_text_round_trips() {
        let scn = Scenario::small(9);
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent {
                id: 3,
                step: 2,
                relay: 1,
                kind: FaultKind::PaSag { db: 4.25 },
            },
            FaultEvent {
                id: 5,
                step: 4,
                relay: 0,
                kind: FaultKind::BatterySag,
            },
        ]);
        let result = ShrinkResult {
            schedule: schedule.clone(),
            violation: Violation {
                invariant: "coverage-retention",
                detail: "retained 3/10 unique tags (ratio 0.300 < 0.8)".to_string(),
            },
            probes: 0,
        };
        let text = repro_to_text(&scn, &result);
        let back = repro_from_text(&text).expect("parses");
        assert_eq!(back.scenario, scn);
        assert_eq!(back.invariant, "coverage-retention");
        assert_eq!(back.detail, result.violation.detail);
        assert_eq!(back.schedule.to_string(), schedule.to_string());

        assert!(repro_from_text("rfly-repro v2\n").is_err());
        assert!(repro_from_text("").is_err());
        assert!(repro_from_text(&text.replace("invariant ", "violated ")).is_err());
    }

    #[test]
    fn non_violating_schedule_is_an_error() {
        let harness = InvariantHarness::new(
            Scenario::small(3),
            vec![Invariant::CoverageRetention { min_ratio: 0.1 }],
        )
        .expect("baseline");
        assert!(shrink(&harness, &FaultSchedule::none()).is_err());
    }
}

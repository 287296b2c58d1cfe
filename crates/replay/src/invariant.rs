//! The mission invariant harness: what a fault schedule is *not*
//! allowed to do to a supervised mission.
//!
//! The harness runs the scenario's fault-free baseline once at
//! construction, then probes candidate schedules against a catalog of
//! invariants. It is the oracle the delta-debugging shrinker
//! ([`crate::shrink()`]) minimizes against: a shrink step is accepted
//! exactly when the reduced schedule still violates the *same*
//! invariant.

use std::collections::BTreeSet;

use rfly_faults::schedule::FaultKind;
use rfly_faults::{FaultSchedule, RecoveryAction};

use crate::runner::{run_full, Run, Scenario};

/// One checkable mission property.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Invariant {
    /// The supervised mission must retain at least this fraction of the
    /// fault-free unique-tag count (the headline resilience claim).
    CoverageRetention {
        /// Minimum `faulted_unique / baseline_unique`, in [0, 1].
        min_ratio: f64,
    },
    /// Every journaled worst-pair mutual-loop margin must stay above
    /// this floor — the supervisor's Δf/gain-trim ladder is supposed to
    /// keep the fleet out of the oscillation region.
    MarginGate {
        /// Minimum margin, dB.
        floor_db: f64,
    },
    /// The deduplicated inventory must never report the same EPC twice
    /// (a checkpoint-restore or merge bug, not a fault effect).
    NoDuplicateEpcs,
    /// The alive fraction of the fleet must never fall below this
    /// floor at any journaled step — the continuous-operation
    /// guarantee the `rfly-ops` rotation planner exists to keep.
    CoverageFloor {
        /// Minimum `alive_relays / configured_relays`, in [0, 1].
        min_frac: f64,
    },
    /// Every battery death must hand its cell off: some
    /// [`RecoveryAction::CellHandoff`] in the run must cite the fatal
    /// battery fault as its trigger, unless the death emptied the
    /// whole fleet (mission over, nothing left to hand to). A miss
    /// means a cell sat stranded with survivors still flying.
    NoStrandedCell,
}

impl Invariant {
    /// The stable name used in repro files and shrink comparisons.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::CoverageRetention { .. } => "coverage-retention",
            Invariant::MarginGate { .. } => "margin-gate",
            Invariant::NoDuplicateEpcs => "no-duplicate-epcs",
            Invariant::CoverageFloor { .. } => "coverage-floor",
            Invariant::NoStrandedCell => "no-stranded-cell",
        }
    }
}

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated invariant's [`Invariant::name`].
    pub invariant: &'static str,
    /// What was observed, for the repro file.
    pub detail: String,
}

/// The probe oracle: a scenario, its fault-free baseline, and the
/// invariant catalog to check schedules against.
#[derive(Debug, Clone)]
pub struct InvariantHarness {
    scenario: Scenario,
    invariants: Vec<Invariant>,
    baseline_unique: usize,
}

impl InvariantHarness {
    /// Builds the harness, flying the fault-free baseline once.
    pub fn new(scenario: Scenario, invariants: Vec<Invariant>) -> Result<Self, String> {
        let baseline = run_full(&scenario, &FaultSchedule::none())?;
        Ok(Self {
            scenario,
            invariants,
            baseline_unique: baseline.outcome.inventory.unique_tags(),
        })
    }

    /// Flies one supervised mission under `schedule` and returns the
    /// first violated invariant (in catalog order), or `None`.
    pub fn check(&self, schedule: &FaultSchedule) -> Result<Option<Violation>, String> {
        let run = run_full(&self.scenario, schedule)?;
        Ok(self.evaluate(&run))
    }

    /// Evaluates the catalog against an already-completed run.
    pub fn evaluate(&self, run: &Run) -> Option<Violation> {
        for inv in &self.invariants {
            match *inv {
                Invariant::CoverageRetention { min_ratio } => {
                    let unique = run.outcome.inventory.unique_tags();
                    let ratio = if self.baseline_unique == 0 {
                        1.0
                    } else {
                        unique as f64 / self.baseline_unique as f64
                    };
                    if ratio < min_ratio {
                        return Some(Violation {
                            invariant: inv.name(),
                            detail: format!(
                                "retained {unique}/{} unique tags (ratio {ratio:.3} < {min_ratio})",
                                self.baseline_unique
                            ),
                        });
                    }
                }
                Invariant::MarginGate { floor_db } => {
                    for rec in &run.journal.steps {
                        if let Some((i, j, m)) = rec.margin {
                            if m < floor_db {
                                return Some(Violation {
                                    invariant: inv.name(),
                                    detail: format!(
                                        "step {}: pair ({i},{j}) margin {m:.2} dB < {floor_db} dB",
                                        rec.step
                                    ),
                                });
                            }
                        }
                    }
                }
                Invariant::CoverageFloor { min_frac } => {
                    let n = self.scenario.n_relays;
                    let mut alive = vec![true; n];
                    for rec in &run.journal.steps {
                        for f in &rec.faults {
                            if matches!(f.kind, FaultKind::BatterySag) && f.relay < n {
                                alive[f.relay] = false;
                            }
                        }
                        let count = alive.iter().filter(|a| **a).count();
                        let frac = count as f64 / n as f64;
                        if frac < min_frac {
                            return Some(Violation {
                                invariant: inv.name(),
                                detail: format!(
                                    "step {}: {count}/{n} relays alive (coverage {frac:.3} < {min_frac})",
                                    rec.step
                                ),
                            });
                        }
                    }
                }
                Invariant::NoStrandedCell => {
                    let handoffs: BTreeSet<usize> = run
                        .journal
                        .steps
                        .iter()
                        .flat_map(|rec| rec.recoveries.iter())
                        .filter(|r| matches!(r.action, RecoveryAction::CellHandoff { .. }))
                        .map(|r| r.trigger)
                        .collect();
                    let n = self.scenario.n_relays;
                    let mut alive = vec![true; n];
                    for rec in &run.journal.steps {
                        for f in &rec.faults {
                            if !matches!(f.kind, FaultKind::BatterySag)
                                || f.relay >= n
                                || !alive[f.relay]
                            {
                                continue;
                            }
                            alive[f.relay] = false;
                            let survivors = alive.iter().filter(|a| **a).count();
                            if survivors > 0 && !handoffs.contains(&f.id) {
                                return Some(Violation {
                                    invariant: inv.name(),
                                    detail: format!(
                                        "relay {} died at step {} (fault {}) with {survivors} survivors and no cell-handoff cites it",
                                        f.relay, rec.step, f.id
                                    ),
                                });
                            }
                        }
                    }
                }
                Invariant::NoDuplicateEpcs => {
                    let mut prev = None;
                    for rec in run.outcome.inventory.records() {
                        if prev == Some(rec.epc) {
                            return Some(Violation {
                                invariant: inv.name(),
                                detail: format!("EPC {:?} inventoried twice", rec.epc),
                            });
                        }
                        prev = Some(rec.epc);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Vec<Invariant> {
        vec![
            Invariant::NoDuplicateEpcs,
            Invariant::CoverageRetention { min_ratio: 0.5 },
            Invariant::MarginGate { floor_db: 0.0 },
            Invariant::CoverageFloor { min_frac: 0.5 },
            Invariant::NoStrandedCell,
        ]
    }

    #[test]
    fn fault_free_mission_violates_nothing() {
        let harness = InvariantHarness::new(Scenario::small(3), catalog()).expect("baseline");
        assert!(harness.baseline_unique > 0);
        assert_eq!(harness.check(&FaultSchedule::none()).expect("runs"), None);
    }

    #[test]
    fn coverage_floor_tracks_battery_deaths() {
        use rfly_faults::schedule::FaultEvent;
        let sag = FaultSchedule::from_events(vec![FaultEvent {
            id: 0,
            step: 2,
            relay: 1,
            kind: FaultKind::BatterySag,
        }]);
        // One death out of two relays: coverage 0.5 clears a 0.5
        // floor but not a 0.9 one.
        let lenient = InvariantHarness::new(
            Scenario::small(3),
            vec![Invariant::CoverageFloor { min_frac: 0.5 }],
        )
        .expect("baseline");
        assert_eq!(lenient.check(&sag).expect("runs"), None);
        let strict = InvariantHarness::new(
            Scenario::small(3),
            vec![Invariant::CoverageFloor { min_frac: 0.9 }],
        )
        .expect("baseline");
        let v = strict.check(&sag).expect("runs").expect("0.5 < 0.9");
        assert_eq!(v.invariant, "coverage-floor");
        assert!(v.detail.contains("1/2"), "{}", v.detail);
    }

    #[test]
    fn a_supervised_death_hands_its_cell_off_an_unsupervised_one_strands_it() {
        use rfly_faults::schedule::FaultEvent;
        let sag = FaultSchedule::from_events(vec![FaultEvent {
            id: 0,
            step: 2,
            relay: 0,
            kind: FaultKind::BatterySag,
        }]);
        let supervised = InvariantHarness::new(Scenario::small(3), vec![Invariant::NoStrandedCell])
            .expect("baseline");
        assert_eq!(
            supervised.check(&sag).expect("runs"),
            None,
            "the supervisor's repartition rung must cite the sag"
        );
        let unsupervised = InvariantHarness::new(
            Scenario {
                supervised: false,
                ..Scenario::small(3)
            },
            vec![Invariant::NoStrandedCell],
        )
        .expect("baseline");
        let v = unsupervised
            .check(&sag)
            .expect("runs")
            .expect("no recovery ladder, so the cell strands");
        assert_eq!(v.invariant, "no-stranded-cell");
    }

    #[test]
    fn an_impossible_retention_bar_flags_any_fault() {
        // min_ratio > 1 can never hold, so any probe flags it — a
        // harness self-test that the violation plumbing works.
        let harness = InvariantHarness::new(
            Scenario::small(3),
            vec![Invariant::CoverageRetention { min_ratio: 1.1 }],
        )
        .expect("baseline");
        let v = harness
            .check(&FaultSchedule::none())
            .expect("runs")
            .expect("ratio 1.0 < 1.1");
        assert_eq!(v.invariant, "coverage-retention");
    }
}

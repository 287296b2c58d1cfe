//! The crash-matrix driver: exhaustive crash-point enumeration and
//! verified recovery, generic over the workload.
//!
//! The protocol has three phases:
//!
//! 1. **Reference** — run the workload against a clean
//!    [`MemStorage`]; its final bytes are the ground truth.
//! 2. **Probe** — run it again against [`ChaosStorage::probe`] to
//!    record every mutating storage operation, then expand each
//!    operation into crash points: one per [`CrashKind`], with torn
//!    writes sampled at seeded byte offsets (first byte, a seeded
//!    interior cut, last-byte-short) so tears land inside records, on
//!    record boundaries, and everywhere between.
//! 3. **Matrix** — for every crash point, run the workload into the
//!    crash, hand the surviving bytes to the caller's recovery
//!    routine, and classify the outcome: **exact** (the recovered and
//!    completed run is bit-identical to the reference) or a **failure**
//!    (anything else — a torn record that survived salvage, a half
//!    checkpoint, duplicated state). Recovery re-executes every lost
//!    step, so there is no partial credit.
//!
//! The driver is deliberately workload-agnostic: missions and campaigns
//! plug in [`crate::durable::recover`] over their own steppers, and the
//! planted-bug controls plug in
//! [`crate::durable::recover_keeping_torn_tail`] to prove the matrix
//! catches a broken recovery.

use rfly_dsp::rng::{Rng, StdRng};

use crate::fault::{ChaosStorage, CrashKind, CrashPoint, OpInfo, OpKind};
use crate::storage::{MemStorage, Storage};

/// One crash point whose recovery failed verification.
#[derive(Debug, Clone)]
pub struct CrashFailure {
    /// The crash that was injected.
    pub point: CrashPoint,
    /// The mutating operation the crash landed on.
    pub op: OpInfo,
    /// Why verification rejected the recovery.
    pub detail: String,
}

/// The matrix verdict over every enumerated crash point.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Mutating storage operations the probe observed.
    pub ops: usize,
    /// Crash points enumerated (ops × kinds × torn offsets).
    pub crash_points: usize,
    /// Points whose recovery was bit-identical to the reference.
    pub exact: usize,
    /// Points whose recovery failed verification.
    pub failures: Vec<CrashFailure>,
}

impl CrashReport {
    /// Whether every crash point recovered.
    pub fn all_recovered(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Expands a probe's operation stream into the full crash matrix.
///
/// Every operation gets a [`CrashKind::Clean`], [`CrashKind::LostAcked`]
/// and (for appends) [`CrashKind::Duplicated`] point. Appends
/// additionally get torn points at up to three distinct byte offsets —
/// 0 (nothing landed), a seeded interior cut, and len−1 (one byte
/// short) — so the matrix exercises tears at and between record
/// boundaries. Atomic writes get a single torn point (the old contents
/// survive whole regardless of offset).
pub fn enumerate_crash_points(ops: &[OpInfo], seed: u64) -> Vec<CrashPoint> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_4C0D_E5EE_D000);
    let mut points = Vec::new();
    for op in ops {
        points.push(CrashPoint {
            op: op.index,
            kind: CrashKind::Clean,
        });
        points.push(CrashPoint {
            op: op.index,
            kind: CrashKind::LostAcked,
        });
        match op.op {
            OpKind::Append => {
                points.push(CrashPoint {
                    op: op.index,
                    kind: CrashKind::Duplicated,
                });
                let mut keeps = vec![0usize];
                if op.len > 1 {
                    keeps.push(op.len - 1);
                }
                if op.len > 2 {
                    let interior = rng.gen_range(1..op.len - 1);
                    if !keeps.contains(&interior) {
                        keeps.push(interior);
                    }
                }
                for keep in keeps {
                    points.push(CrashPoint {
                        op: op.index,
                        kind: CrashKind::Torn { keep },
                    });
                }
            }
            OpKind::WriteAtomic | OpKind::Remove => {
                points.push(CrashPoint {
                    op: op.index,
                    kind: CrashKind::Torn { keep: 0 },
                });
            }
        }
    }
    points
}

/// Runs the full crash matrix for one workload.
///
/// `workload` writes a complete run through the storage it is given;
/// it must be deterministic (same bytes every invocation) and must
/// stop at the first [`crate::StorageError::Crashed`] it sees.
/// `recover` receives the surviving bytes and must salvage, resume,
/// and complete the run, handing back the storage it ends with.
/// Returns the classified report; `Err` only for harness-level breakage
/// (a workload that fails on clean storage).
pub fn verify_recovery(
    workload: &mut dyn FnMut(&mut dyn Storage) -> Result<(), String>,
    recover: &mut dyn FnMut(MemStorage) -> Result<MemStorage, String>,
    seed: u64,
) -> Result<CrashReport, String> {
    let _span = rfly_obs::span("chaos.verify_recovery");

    // Phase 1: reference run on clean storage.
    let mut reference = MemStorage::new();
    workload(&mut reference).map_err(|e| format!("workload failed on clean storage: {e}"))?;

    // Phase 2: probe the operation stream.
    let mut probe = ChaosStorage::probe();
    workload(&mut probe).map_err(|e| format!("workload failed on probe storage: {e}"))?;
    let ops = probe.ops().to_vec();
    let probe_final = probe.into_survivor();
    if probe_final != reference {
        return Err("workload is nondeterministic: probe run differs from reference".into());
    }
    let points = enumerate_crash_points(&ops, seed);

    // Phase 3: the matrix.
    let mut report = CrashReport {
        ops: ops.len(),
        crash_points: points.len(),
        exact: 0,
        failures: Vec::new(),
    };
    for point in points {
        let op = ops[point.op].clone();
        let mut storage = ChaosStorage::with_crash(MemStorage::new(), point);
        // The workload dies at the crash point; LostAcked strikes on
        // the final op can let it run to (apparent) completion.
        let _ = workload(&mut storage);
        let detail = match recover(storage.into_survivor()) {
            Ok(recovered) if recovered == reference => None,
            Ok(recovered) => Some(
                recovered
                    .first_difference(&reference)
                    .unwrap_or_else(|| "differs from reference".to_string()),
            ),
            Err(e) => Some(format!("recovery errored: {e}")),
        };
        match detail {
            None => report.exact += 1,
            Some(detail) => report.failures.push(CrashFailure { point, op, detail }),
        }
        rfly_obs::counter_add("chaos.crash_points_verified", 1);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::tests::{toy_recover, toy_recover_keeping_torn_tail, toy_workload};

    #[test]
    fn toy_workload_recovers_at_every_crash_point() {
        let report = verify_recovery(&mut toy_workload, &mut toy_recover, 99).expect("harness ok");
        assert!(report.ops >= 10, "ops {}", report.ops);
        assert!(
            report.crash_points > report.ops * 3,
            "points {}",
            report.crash_points
        );
        assert!(
            report.all_recovered(),
            "failures: {:?}",
            report.failures.first()
        );
        assert_eq!(report.exact, report.crash_points);
    }

    #[test]
    fn planted_bug_keeping_the_torn_tail_is_caught() {
        let report = verify_recovery(&mut toy_workload, &mut toy_recover_keeping_torn_tail, 99)
            .expect("harness ok");
        assert!(
            !report.all_recovered(),
            "the matrix must catch a salvage that keeps torn records"
        );
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f.point.kind, CrashKind::Torn { .. })));
    }

    #[test]
    fn enumeration_is_seeded_and_covers_every_kind() {
        let mut probe = ChaosStorage::probe();
        toy_workload(&mut probe).unwrap();
        let ops = probe.ops().to_vec();
        let a = enumerate_crash_points(&ops, 1);
        let b = enumerate_crash_points(&ops, 1);
        assert_eq!(a, b, "same seed, same matrix");
        let c = enumerate_crash_points(&ops, 2);
        assert_eq!(a.len(), c.len());
        for kind in ["torn", "clean", "lost-acked", "duplicated"] {
            assert!(
                a.iter().any(|p| p.kind.name() == kind),
                "missing kind {kind}"
            );
        }
        // Every mutating op is a crash site.
        for op in &ops {
            assert!(a.iter().any(|p| p.op == op.index));
        }
    }
}

//! The worker-count determinism matrix: the pool's whole contract,
//! asserted end to end.
//!
//! One storm mission (supervised stepper, fault injection, journaled
//! every step) is flown at pool widths 1, 2, and 8 — the same widths
//! `RFLY_THREADS` would set — and every byte-level artifact must be
//! identical: the journal text, a mid-mission checkpoint's text, and
//! the resilience log. Worker count may change wall-clock and nothing
//! else; this is the regression fence around every parallel path the
//! mission engine grows.

mod common;

use common::{crash_at, file_text};
use rfly_faults::FaultSchedule;
use rfly_replay::runner::{run_full, Scenario};
use rfly_replay::store::StorePaths;
use rfly_sim::pool::set_global_workers;

/// Every artifact of one flight, in its serialized text form.
struct Artifacts {
    journal: String,
    checkpoint: String,
    partial_journal: String,
    resilience_log: String,
}

fn fly_at_width(workers: usize, seed: u64) -> Artifacts {
    set_global_workers(workers);
    // Big enough to clear the medium's parallel-trace threshold (64
    // tags), so the widths under test genuinely run worker threads.
    let scn = Scenario {
        n_tags: 96,
        width_m: 24.0,
        depth_m: 16.0,
        shelves: 3,
        ..Scenario::small(seed)
    };
    let storm = FaultSchedule::storm(seed, 2, 12);
    let full = run_full(&scn, &storm).expect("uninterrupted run");
    let kill = (full.journal.steps.len() / 2).max(1);
    let crashed = crash_at(&scn, &storm, kill);
    let paths = StorePaths::default();
    Artifacts {
        journal: full.journal.to_text(),
        checkpoint: file_text(&crashed, &paths.checkpoint),
        partial_journal: file_text(&crashed, &paths.journal),
        resilience_log: full.outcome.log.to_string(),
    }
}

#[test]
fn storm_artifacts_are_byte_identical_across_worker_counts() {
    for seed in [21u64, 34] {
        let reference = fly_at_width(1, seed);
        assert!(
            !reference.journal.is_empty() && !reference.resilience_log.is_empty(),
            "seed {seed}: mission produced empty artifacts"
        );
        for workers in [2usize, 8] {
            let got = fly_at_width(workers, seed);
            assert_eq!(
                got.journal, reference.journal,
                "seed {seed}: journal bytes differ at {workers} workers"
            );
            assert_eq!(
                got.checkpoint, reference.checkpoint,
                "seed {seed}: checkpoint bytes differ at {workers} workers"
            );
            assert_eq!(
                got.partial_journal, reference.partial_journal,
                "seed {seed}: partial journal bytes differ at {workers} workers"
            );
            assert_eq!(
                got.resilience_log, reference.resilience_log,
                "seed {seed}: resilience log differs at {workers} workers"
            );
        }
    }
    set_global_workers(1);
}

//! The crash-consistency property: a mission killed at any step
//! boundary, with only its journal prefix and its checkpoint durable,
//! recovers through the durable engine ([`recover_stored`]: a new
//! world, state rebuilt only from the parsed checkpoint) to a journal
//! and a storage byte-identical to the uninterrupted run's.
//!
//! Kill steps are drawn deterministically from each seed (no ambient
//! randomness — this test must itself be replayable).

mod common;

use common::{crash_at, file_text};
use rfly_chaos::MemStorage;
use rfly_faults::FaultSchedule;
use rfly_replay::checkpoint::Checkpoint;
use rfly_replay::divergence::first_divergence;
use rfly_replay::journal::Journal;
use rfly_replay::store::{recover_stored, run_stored, StorePaths};
use rfly_replay::{Run, Scenario};

/// Deterministic pseudo-random kill steps for a seed: a splitmix64
/// walk, mapped into the mission's step range.
fn kill_steps(seed: u64, total_steps: usize, n: usize) -> Vec<usize> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // 1..=total_steps: step 0 is covered explicitly below, and
            // total_steps kills at the finish line (recovery only seals).
            1 + (z as usize) % total_steps
        })
        .collect()
}

/// The uncrashed reference: the storage a journaled run leaves behind
/// (final checkpoint only) and its run.
fn reference(scn: &Scenario, storm: &FaultSchedule) -> (MemStorage, Run) {
    let mut storage = MemStorage::new();
    let run =
        run_stored(scn, storm, &mut storage, &StorePaths::default(), 0).expect("uninterrupted run");
    (storage, run)
}

#[test]
fn killed_and_resumed_journal_is_byte_identical() {
    let paths = StorePaths::default();
    for seed in [13u64, 29, 47] {
        let scn = Scenario::small(seed);
        let storm = FaultSchedule::storm(seed, 2, 12);
        let (reference_store, full) = reference(&scn, &storm);
        let full_text = full.journal.to_text();
        let total = full.journal.steps.len();
        assert!(total >= 3, "seed {seed}: mission too short to kill");

        let mut kills = kill_steps(seed, total, 3);
        kills.push(0); // killed before the first step ever ran
        for kill in kills {
            let mut storage = crash_at(&scn, &storm, kill);
            let partial = Journal::from_text(&file_text(&storage, &paths.journal))
                .expect("partial journal parses");
            assert_eq!(
                partial.steps.len(),
                kill.min(total),
                "seed {seed}: kill at {kill} journals exactly the completed steps"
            );
            let cp_text = file_text(&storage, &paths.checkpoint);
            let cp = Checkpoint::from_text(&cp_text).expect("checkpoint parses");
            assert_eq!(
                cp.to_text(),
                cp_text,
                "seed {seed}: checkpoint text is re-serialization-stable"
            );
            assert_eq!(cp.mission.step, partial.steps.len());

            let resumed =
                recover_stored(&scn, &storm, &mut storage, &paths, 0).expect("resumed run");
            assert_eq!(
                first_divergence(&full.journal, &resumed.journal),
                None,
                "seed {seed}, kill {kill}: resumed journal diverged"
            );
            assert_eq!(
                resumed.journal.to_text(),
                full_text,
                "seed {seed}, kill {kill}: resumed journal is not byte-identical"
            );
            assert_eq!(
                storage, reference_store,
                "seed {seed}, kill {kill}: recovered storage is not byte-identical"
            );
            assert_eq!(
                resumed.outcome.inventory, full.outcome.inventory,
                "seed {seed}, kill {kill}: inventories diverged"
            );
            assert_eq!(
                resumed.outcome.log, full.outcome.log,
                "seed {seed}, kill {kill}: resilience logs diverged"
            );
        }
    }
}

#[test]
fn kill_past_the_finish_line_is_a_completed_run() {
    let paths = StorePaths::default();
    let scn = Scenario::small(13);
    let storm = FaultSchedule::storm(13, 2, 12);
    let (reference_store, full) = reference(&scn, &storm);
    let mut storage = crash_at(&scn, &storm, usize::MAX);
    let partial = Journal::from_text(&file_text(&storage, &paths.journal)).expect("parses");
    assert_eq!(partial.steps.len(), full.journal.steps.len());
    let cp = Checkpoint::from_text(&file_text(&storage, &paths.checkpoint)).expect("parses");
    assert!(cp.mission.done, "mission finished before the kill step");
    let resumed =
        recover_stored(&scn, &storm, &mut storage, &paths, 0).expect("recovery only seals");
    assert_eq!(resumed.journal.to_text(), full.journal.to_text());
    assert_eq!(storage, reference_store);
}

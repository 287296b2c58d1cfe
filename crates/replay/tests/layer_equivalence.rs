//! The refactor's acceptance gate: the layered medium stack reproduces
//! the pre-refactor monolithic mediums **seed for seed**.
//!
//! The golden journals under `tests/golden/` were captured *before*
//! `RelayedMedium` / `FleetMedium` / `FaultyMedium` were collapsed into
//! one `WorldMedium` propagation core with `FaultLayer` / `ObsLayer`
//! middleware. Every journal line — per-step fault/recovery records,
//! margins, individual tag reads with full-precision channels and SNRs,
//! and the world RNG state after every step — must still match exactly.
//!
//! `golden/checkpoint_seed42.txt` pins the checkpoint codec the same
//! way: the final checkpoint of the seed-42 golden mission, captured
//! before the encoders were rewritten to append into one buffer.
//!
//! A second gate pins the obs exporter: a replayed mission must emit a
//! **byte-identical** metric report to the live run (no wall-clock, no
//! iteration-order nondeterminism anywhere in the recorder).

mod common;

use common::{crash_at, file_text};
use rfly_chaos::MemStorage;
use rfly_faults::FaultSchedule;
use rfly_obs::{install, take, Recorder, Report};
use rfly_replay::runner::{run_full, Scenario};
use rfly_replay::store::{recover_stored, run_stored, StorePaths};

/// The golden journals and the seeds they were captured from.
const GOLDENS: [(u64, &str); 3] = [
    (11, include_str!("golden/journal_seed11.txt")),
    (42, include_str!("golden/journal_seed42.txt")),
    (7, include_str!("golden/journal_seed7.txt")),
];

/// The final checkpoint of the seed-42 golden mission.
const CHECKPOINT_GOLDEN: &str = include_str!("golden/checkpoint_seed42.txt");

fn storm_for(scn: &Scenario, seed: u64) -> FaultSchedule {
    FaultSchedule::storm(seed, scn.n_relays, 12)
}

#[test]
fn layered_stack_reproduces_pre_refactor_journals() {
    for (seed, golden) in GOLDENS {
        let scn = Scenario::small(seed);
        let run = run_full(&scn, &storm_for(&scn, seed)).expect("mission flies");
        let live = run.journal.to_text();
        assert_eq!(
            live, golden,
            "seed {seed}: the layered medium stack diverged from the \
             pre-refactor golden journal"
        );
    }
}

#[test]
fn final_checkpoint_matches_the_golden() {
    let scn = Scenario::small(42);
    let storm = storm_for(&scn, 42);
    let paths = StorePaths::default();
    let mut storage = MemStorage::new();
    run_stored(&scn, &storm, &mut storage, &paths, 1).expect("stored run completes");
    assert_eq!(
        file_text(&storage, &paths.checkpoint),
        CHECKPOINT_GOLDEN,
        "the final checkpoint's bytes diverged from the golden"
    );
}

#[test]
fn instrumentation_does_not_perturb_the_mission() {
    // The same mission with and without a recorder installed must
    // produce identical journals: every obs probe is RNG-neutral.
    let scn = Scenario::small(42);
    let storm = storm_for(&scn, 42);
    let bare = run_full(&scn, &storm).expect("flies").journal.to_text();
    install(Recorder::new("perturbation-probe"));
    let instrumented = run_full(&scn, &storm).expect("flies").journal.to_text();
    let rec = take().expect("recorder still installed");
    assert_eq!(bare, instrumented, "an obs probe moved the mission");
    assert!(
        rec.counters.get("sim.transactions").copied().unwrap_or(0) > 0,
        "the instrumented run must actually have recorded"
    );
}

#[test]
fn replayed_mission_emits_byte_identical_metric_report() {
    let scn = Scenario::small(42);
    let storm = storm_for(&scn, 42);

    // Live run, instrumented end to end.
    install(Recorder::new("mission-42"));
    let live_run = run_full(&scn, &storm).expect("flies");
    let live_rec = take().expect("live recorder");
    let live_txt = Report::from_recorder(&live_rec).render_text();
    let live_json = Report::from_recorder(&live_rec).render_json();

    // Replay from scratch under the same recorder name: byte-identical
    // text and JSON reports.
    install(Recorder::new("mission-42"));
    let replay_run = run_full(&scn, &storm).expect("flies");
    let replay_rec = take().expect("replay recorder");
    assert_eq!(live_run.journal.to_text(), replay_run.journal.to_text());
    assert_eq!(
        live_txt,
        Report::from_recorder(&replay_rec).render_text(),
        "replayed text report differs from the live run"
    );
    assert_eq!(
        live_json,
        Report::from_recorder(&replay_rec).render_json(),
        "replayed JSON report differs from the live run"
    );
}

#[test]
fn killed_and_resumed_mission_matches_the_golden_tail() {
    // Checkpoint/resume across the refactored stack still lands on the
    // same journal as the uninterrupted golden run.
    let (seed, golden) = GOLDENS[1];
    let scn = Scenario::small(seed);
    let storm = storm_for(&scn, seed);
    let paths = StorePaths::default();
    let mut storage = crash_at(&scn, &storm, 5);
    let resumed = recover_stored(&scn, &storm, &mut storage, &paths, 0).expect("resumes");
    assert_eq!(
        resumed.journal.to_text(),
        golden,
        "seed {seed}: kill/resume diverged from the golden journal"
    );
    assert_eq!(
        file_text(&storage, &paths.journal),
        golden,
        "seed {seed}: the recovered durable journal diverged from the golden"
    );
}

//! Tier-1 property of the mission's checkpoint writer: every checkpoint
//! a durable mission writes, after any step, equals a cold
//! `Checkpoint::to_text` of the same state byte for byte.
//!
//! `MissionRun` keeps one `CheckpointWriter` for the whole flight. It
//! formats only the track and log entries added since its last encode
//! and reuses the text of the rest, which is sound only while those
//! sections grow at their ends. Seeded `Scenario::small` storm missions
//! check it where a durable run encodes:
//!
//! * `run_stored` at checkpoint cadences 1, 3 and 0 (final only);
//! * a mission restored mid-flight from a parsed checkpoint, both one
//!   of its own past (the history shrinks) and one of another schedule
//!   (the history changes but does not shrink);
//! * `recover_stored` of a torn journal, with a checkpoint and without.
//!
//! Two planted writers must be caught: one that keeps its cache across
//! a restore, and one that drops the newest track entry.

use rfly::chaos::{MemStorage, Storage, StorageError};
use rfly::dsp::rng::{Rng, StdRng};
use rfly::faults::FaultSchedule;
use rfly::replay::{
    recover_stored, run_stored, salvage_journal, Checkpoint, CheckpointWriter, MissionRun,
    Scenario, StorePaths,
};

/// Mission steps the storm schedule spans.
const STORM_STEPS: usize = 12;

fn storm(seed: u64) -> FaultSchedule {
    FaultSchedule::storm(seed, 2, STORM_STEPS)
}

/// The cold checkpoint text at every step boundary of `scn` under
/// `schedule`, indexed by step.
fn cold_texts(scn: &Scenario, schedule: &FaultSchedule) -> Vec<String> {
    let mut run = MissionRun::new(scn, schedule).expect("builds");
    let mut texts = vec![run.checkpoint().to_text()];
    while !run.finished() {
        run.advance();
        texts.push(run.checkpoint().to_text());
    }
    texts
}

/// A memory store that keeps every checkpoint it is handed.
struct Spy {
    inner: MemStorage,
    checkpoints: Vec<String>,
}

impl Storage for Spy {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.append(path, bytes)
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        if path == StorePaths::default().checkpoint {
            self.checkpoints
                .push(String::from_utf8(bytes.to_vec()).expect("utf8"));
        }
        self.inner.write_atomic(path, bytes)
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.inner.remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

/// Asserts each of `written` is the cold text of the step it names.
fn assert_cold(written: &[String], cold: &[String], what: &str) {
    assert!(!written.is_empty(), "{what}: no checkpoint written");
    for text in written {
        let step = Checkpoint::from_text(text).expect("parses").mission.step;
        assert!(*text == cold[step], "{what}: checkpoint at step {step}");
    }
}

/// `run_stored` at three cadences, then `recover_stored` of a torn
/// journal without a checkpoint and with one.
fn check_stored(seed: u64) {
    let scn = Scenario::small(seed);
    let storm = storm(seed);
    let cold = cold_texts(&scn, &storm);
    let paths = StorePaths::default();
    for every in [1, 3, 0] {
        let mut store = Spy {
            inner: MemStorage::new(),
            checkpoints: Vec::new(),
        };
        run_stored(&scn, &storm, &mut store, &paths, every).expect("runs");
        assert_cold(
            &store.checkpoints,
            &cold,
            &format!("seed {seed} every {every}"),
        );
        let last = store.checkpoints.last().expect("final checkpoint");
        assert!(
            *last == cold[cold.len() - 1],
            "seed {seed}: final checkpoint"
        );
        if every != 1 {
            continue;
        }

        let journal = store.inner.read(&paths.journal).expect("journal");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA2);
        let torn = &journal[..rng.gen_range(0..journal.len() + 1)];
        let durable = salvage_journal(torn).records.len();
        let planted = [None, Some(rng.gen_range(0..durable + 1))];
        for at in planted {
            let mut crashed = Spy {
                inner: MemStorage::new(),
                checkpoints: Vec::new(),
            };
            crashed.inner.append(&paths.journal, torn).expect("plants");
            if let Some(step) = at {
                let ck = cold[step].as_bytes();
                crashed
                    .inner
                    .write_atomic(&paths.checkpoint, ck)
                    .expect("plants");
            }
            recover_stored(&scn, &storm, &mut crashed, &paths, every).expect("recovers");
            let what = format!("seed {seed} recovery from checkpoint {at:?}");
            assert_cold(&crashed.checkpoints, &cold, &what);
            assert_eq!(crashed.inner.first_difference(&store.inner), None, "{what}");
        }
    }
}

/// The writer under test: the run's own, or a planted fault.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Writer {
    /// `MissionRun::checkpoint_text`.
    Run,
    /// A writer that keeps its cache across a restore.
    KeptOnRestore,
    /// A writer that never sees the newest track entry.
    DropsNewest,
}

/// A separate writer fed the run's state, with its planted fault.
fn planted_encode(writer: Writer, cache: &mut CheckpointWriter, run: &MissionRun) -> String {
    let cp = run.checkpoint();
    let mut mission = cp.mission;
    if writer == Writer::DropsNewest {
        if let Some(track) = mission.tracks.iter_mut().rev().find(|t| !t.is_empty()) {
            track.pop();
        }
    }
    cache.encode(&mission, &cp.world)
}

/// Flies `scn` under `schedule` to step `from`, restores `target`
/// (parsed from its text) and flies on to the end, comparing `writer`'s
/// text with the cold text after every step. Returns how many step
/// boundaries disagreed.
fn restore_mismatches(
    scn: &Scenario,
    schedule: &FaultSchedule,
    from: usize,
    target: &str,
    writer: Writer,
) -> usize {
    let target = Checkpoint::from_text(target).expect("parses");
    let mut run = MissionRun::new(scn, schedule).expect("builds");
    let mut cache = CheckpointWriter::default();
    let mut mismatches = 0;
    let mut check = |run: &mut MissionRun, cache: &mut CheckpointWriter| {
        let text = match writer {
            Writer::Run => run.checkpoint_text(),
            _ => planted_encode(writer, cache, run),
        };
        mismatches += usize::from(text != run.checkpoint().to_text());
    };
    check(&mut run, &mut cache);
    while !run.finished() && run.checkpoint().mission.step < from {
        run.advance();
        check(&mut run, &mut cache);
    }
    run.restore(&target).expect("restores");
    if writer != Writer::KeptOnRestore {
        cache = CheckpointWriter::default();
    }
    check(&mut run, &mut cache);
    while !run.finished() {
        run.advance();
        check(&mut run, &mut cache);
    }
    mismatches
}

/// Restores back into the mission's own past and sideways into a
/// fault-free flight of the same scenario. Returns the mismatches of
/// `writer` over both.
fn check_restores(seed: u64, writer: Writer) -> usize {
    let scn = Scenario::small(seed);
    let storm = storm(seed);
    let own = cold_texts(&scn, &storm);
    let calm = cold_texts(&scn, &FaultSchedule::none());
    let back = restore_mismatches(&scn, &storm, 8, &own[3], writer);
    let sideways = restore_mismatches(&scn, &storm, 4, &calm[6], writer);
    back + sideways
}

const SEEDS: std::ops::RangeInclusive<u64> = 1..=6;

#[test]
fn stored_checkpoints_equal_the_cold_encode() {
    for seed in SEEDS {
        check_stored(seed);
    }
}

#[test]
fn restored_runs_encode_the_cold_text_after_every_step() {
    for seed in SEEDS {
        assert_eq!(check_restores(seed, Writer::Run), 0, "seed {seed}");
    }
}

#[test]
fn planted_control_a_writer_kept_across_a_restore_is_caught() {
    for seed in SEEDS {
        assert!(
            check_restores(seed, Writer::KeptOnRestore) > 0,
            "seed {seed}"
        );
    }
}

#[test]
fn planted_control_a_writer_that_drops_the_newest_entry_is_caught() {
    for seed in SEEDS {
        assert!(check_restores(seed, Writer::DropsNewest) > 0, "seed {seed}");
    }
}

/// The property over 200 more seeds (release: `cargo test --release
/// --offline --test checkpoint_writer -- --ignored`).
#[test]
#[ignore = "wide sweep; scripts/ci.sh runs it in release"]
fn wide_sweep_of_seeds() {
    for seed in 100..300 {
        check_stored(seed);
        assert_eq!(check_restores(seed, Writer::Run), 0, "seed {seed}");
    }
}

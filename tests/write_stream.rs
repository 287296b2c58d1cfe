//! Tier-1 gate on the durable engine's write stream: durable-storm
//! shaped missions must hand storage exactly the committed operations
//! and bytes.
//!
//! Each unit flies `Scenario::small(seed)` under the standard storm,
//! journals every step and checkpoints after every one, then tears the
//! journal at a seeded byte and recovers it with `recover_stored`. A
//! tally wrapped around the storage counts every mutating operation,
//! sums the bytes they carry and folds each operation (kind, path,
//! payload, in order) into an FNV-1a-64 digest. So a change to any
//! encoder's bytes, to how often the engine commits, or to what
//! recovery rewrites moves one of the pinned values. The values were
//! recorded before the checkpoint and journal encoders moved to the
//! direct line writer, and that change left all four unchanged.
//!
//! Two `rfly_obs` work counters are pinned beside them. The mission's
//! checkpoint writer formats only the track and log lines added since
//! its last encode, and `replay.checkpoint_bytes_formatted` counts the
//! bytes it formatted. Its planted control re-encodes every written
//! checkpoint from scratch, which must count every checkpoint byte.
//! `durable.checkpoints_rewritten` counts the checkpoints recovery
//! writes after re-verifying a step whose block was already durable.

use rfly::chaos::{MemStorage, Storage, StorageError};
use rfly::dsp::rng::{Rng, StdRng};
use rfly::faults::FaultSchedule;
use rfly::obs::Recorder;
use rfly::replay::{recover_stored, run_stored, Checkpoint, Scenario, StorePaths};

/// Mission steps the storm schedule spans.
const STORM_STEPS: usize = 12;

/// The write stream's totals over a set of units.
#[derive(Debug, PartialEq, Eq)]
struct Stream {
    /// Mutating storage operations (appends, atomic writes, removals).
    ops: usize,
    /// Payload bytes handed to appends and atomic writes.
    bytes: usize,
    /// FNV-1a-64 over every operation's kind, path and payload.
    digest: u64,
    /// `replay.checkpoint_bytes_formatted`: checkpoint bytes the encoder
    /// formatted, cached text excluded.
    formatted: u64,
    /// `durable.checkpoints_rewritten`.
    rewritten: u64,
}

impl Stream {
    fn new() -> Self {
        Self {
            ops: 0,
            bytes: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            formatted: 0,
            rewritten: 0,
        }
    }

    fn record(&mut self, kind: u8, path: &str, payload: &[u8]) {
        self.ops += 1;
        self.bytes += payload.len();
        for &b in [kind].iter().chain(path.as_bytes()).chain(payload) {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A storage that tallies every mutating operation into a [`Stream`]
/// and keeps every checkpoint it is handed.
struct Tally<'a> {
    inner: MemStorage,
    stream: &'a mut Stream,
    checkpoints: &'a mut Vec<String>,
}

impl Storage for Tally<'_> {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.stream.record(b'a', path, bytes);
        self.inner.append(path, bytes)
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.stream.record(b'w', path, bytes);
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
        self.stream.record(b'r', path, &[]);
        self.inner.remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

/// The value of counter `name` in `rec`.
fn counter(rec: &Recorder, name: &str) -> u64 {
    rec.counters.get(name).copied().unwrap_or(0)
}

/// The write stream of durable-storm units at `seeds`, checkpointing
/// every `checkpoint_every` steps, and the checkpoints written in order.
/// Each torn-tail recovery must rebuild the uncrashed store byte for
/// byte.
fn stream(seeds: std::ops::RangeInclusive<u64>, checkpoint_every: usize) -> (Stream, Vec<String>) {
    let paths = StorePaths::default();
    let mut stream = Stream::new();
    let mut checkpoints = Vec::new();
    rfly::obs::install(Recorder::new("write-stream"));
    for seed in seeds {
        let scn = Scenario::small(seed);
        let storm = FaultSchedule::storm(seed, scn.n_relays, STORM_STEPS);
        let mut store = Tally {
            inner: MemStorage::new(),
            stream: &mut stream,
            checkpoints: &mut checkpoints,
        };
        let run = run_stored(&scn, &storm, &mut store, &paths, checkpoint_every).expect("runs");
        let store = store.inner;

        let journal = store.read(&paths.journal).expect("journal");
        let cut = StdRng::seed_from_u64(seed ^ 0xC0FFEE).gen_range(0..journal.len() + 1);
        let mut torn = MemStorage::new();
        torn.append(&paths.journal, &journal[..cut])
            .expect("plants");
        let mut crashed = Tally {
            inner: torn,
            stream: &mut stream,
            checkpoints: &mut checkpoints,
        };
        let recovered =
            recover_stored(&scn, &storm, &mut crashed, &paths, checkpoint_every).expect("recovers");
        assert_eq!(crashed.inner.first_difference(&store), None, "seed {seed}");
        assert_eq!(recovered.journal, run.journal, "seed {seed}");
    }
    let rec = rfly::obs::take().expect("recorder installed");
    stream.formatted = counter(&rec, "replay.checkpoint_bytes_formatted");
    stream.rewritten = counter(&rec, "durable.checkpoints_rewritten");
    (stream, checkpoints)
}

#[test]
fn durable_storm_units_write_the_committed_stream() {
    assert_eq!(
        stream(1..=4, 1).0,
        Stream {
            ops: 232,
            bytes: 717_122,
            digest: 0xa1a7_dfc2_d368_c20f,
            formatted: 383_614,
            rewritten: 16,
        }
    );
}

/// The planted control of `formatted`: a writer that never reuses text
/// formats every byte of every checkpoint, and the incremental writer
/// must format at most two thirds of that.
#[test]
fn planted_control_a_writer_that_never_reuses_text_formats_every_checkpoint_byte() {
    let (incremental, checkpoints) = stream(1..=4, 1);
    rfly::obs::install(Recorder::new("cold-writer"));
    for text in &checkpoints {
        let cold = Checkpoint::from_text(text).expect("parses").to_text();
        assert_eq!(&cold, text, "the written checkpoint is the cold encode");
    }
    let cold = rfly::obs::take().expect("recorder installed");
    let written: usize = checkpoints.iter().map(String::len).sum();
    assert_eq!(
        counter(&cold, "replay.checkpoint_bytes_formatted"),
        written as u64
    );
    assert!(
        3 * incremental.formatted <= 2 * written as u64,
        "{} of {written} checkpoint bytes formatted",
        incremental.formatted
    );
}

/// The planted control: checkpointing every other step must move the
/// counts, so the gate can see a change in how often the engine
/// commits.
#[test]
fn planted_control_a_sparser_checkpoint_cadence_moves_the_stream() {
    let every_step = stream(1..=4, 1).0;
    let every_other = stream(1..=4, 2).0;
    assert_ne!(every_other.ops, every_step.ops);
    assert_ne!(every_other.bytes, every_step.bytes);
    assert_ne!(every_other.digest, every_step.digest);
}

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

use rfly::chaos::{MemStorage, Storage, StorageError};
use rfly::dsp::rng::{Rng, StdRng};
use rfly::faults::FaultSchedule;
use rfly::replay::{recover_stored, run_stored, Scenario, StorePaths};

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
}

impl Stream {
    fn new() -> Self {
        Self {
            ops: 0,
            bytes: 0,
            digest: 0xcbf2_9ce4_8422_2325,
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

/// A storage that tallies every mutating operation into a [`Stream`].
struct Tally<'a> {
    inner: MemStorage,
    stream: &'a mut Stream,
}

impl Storage for Tally<'_> {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.stream.record(b'a', path, bytes);
        self.inner.append(path, bytes)
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.stream.record(b'w', path, bytes);
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

/// The write stream of durable-storm units at `seeds`, checkpointing
/// every `checkpoint_every` steps. Each torn-tail recovery must rebuild
/// the uncrashed store byte for byte.
fn stream(seeds: std::ops::RangeInclusive<u64>, checkpoint_every: usize) -> Stream {
    let paths = StorePaths::default();
    let mut stream = Stream::new();
    for seed in seeds {
        let scn = Scenario::small(seed);
        let storm = FaultSchedule::storm(seed, scn.n_relays, STORM_STEPS);
        let mut store = Tally {
            inner: MemStorage::new(),
            stream: &mut stream,
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
        };
        let recovered =
            recover_stored(&scn, &storm, &mut crashed, &paths, checkpoint_every).expect("recovers");
        assert_eq!(crashed.inner.first_difference(&store), None, "seed {seed}");
        assert_eq!(recovered.journal, run.journal, "seed {seed}");
    }
    stream
}

#[test]
fn durable_storm_units_write_the_committed_stream() {
    assert_eq!(
        stream(1..=4, 1),
        Stream {
            ops: 232,
            bytes: 717_122,
            digest: 0xa1a7_dfc2_d368_c20f,
        }
    );
}

/// The planted control: checkpointing every other step must move the
/// counts, so the gate can see a change in how often the engine
/// commits.
#[test]
fn planted_control_a_sparser_checkpoint_cadence_moves_the_stream() {
    let every_step = stream(1..=4, 1);
    let every_other = stream(1..=4, 2);
    assert_ne!(every_other.ops, every_step.ops);
    assert_ne!(every_other.bytes, every_step.bytes);
    assert_ne!(every_other.digest, every_step.digest);
}

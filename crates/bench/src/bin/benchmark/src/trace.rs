//! Per-layer tracing from outside the library.
//!
//! Nothing here is compiled into the library: spans are taken around
//! calls into each layer's public functions, a [`TimedLayer`] sits on
//! the medium stack around `transact`, and a [`TimedStorage`] wraps the
//! storage seam. Work counters come from the library's own `rfly_obs`
//! counters, installed only around the instrumented inventory stops.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rfly_chaos::{Storage, StorageError};
use rfly_protocol::commands::Command;
use rfly_reader::inventory::{InventoryController, Medium, Observation, TagRead};
use rfly_reader::medium::{MediumExt, MediumLayer};

/// The reader's per-round slot guard (`MAX_SLOTS_PER_ROUND` in
/// `rfly_reader::inventory::run_round`): a round that walks this many
/// slots was cut off by the guard, not by the Q algorithm.
pub const SLOT_GUARD: usize = 8192;

/// Per-layer sums for one process (`*_ms` keys hold milliseconds,
/// every other key a count), plus per-unit samples whose order
/// statistics are reported.
#[derive(Debug, Default)]
pub struct Trace {
    pub sums: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    pub fn add_time(&mut self, key: &'static str, d: Duration) {
        self.add(key, ms(d));
    }

    /// Runs `f`, charging its wall time to `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add_time(key, t.elapsed());
        out
    }

    pub fn merge(&mut self, other: &Trace) {
        for (k, v) in &other.sums {
            self.add(k, *v);
        }
        for (k, v) in &other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` into `tr` when tracing, runs it bare otherwise.
pub fn span<T>(tr: &mut Option<&mut Trace>, key: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.time(key, f),
        None => f(),
    }
}

/// A transparent medium layer that times every transaction.
#[derive(Debug, Default)]
pub struct TimedLayer {
    busy: Duration,
    calls: u64,
}

impl MediumLayer for TimedLayer {
    fn process(&mut self, cmd: &Command, inner: &mut dyn Medium) -> Vec<Observation> {
        let t = Instant::now();
        let obs = inner.transact(cmd);
        self.busy += t.elapsed();
        self.calls += 1;
        obs
    }
}

/// One inventory stop: `controller.run_until_quiet(medium, max_rounds)`.
///
/// Traced, the stop is replicated round by round from the public
/// `run_round` (so a round cut off by [`SLOT_GUARD`] is visible), with
/// a [`TimedLayer`] around `transact` and an `rfly_obs` recorder
/// installed for the stop's duration. `tags` is the tag count the
/// medium serves, for the per-tag transaction cost.
pub fn inventory_stop(
    tr: &mut Option<&mut Trace>,
    controller: &mut InventoryController,
    medium: impl Medium,
    max_rounds: usize,
    tags: usize,
) -> Vec<TagRead> {
    let Some(tr) = tr else {
        let mut medium = medium;
        return controller.run_until_quiet(&mut medium, max_rounds);
    };
    let mut stack = medium.layer(TimedLayer::default());
    rfly_obs::install(rfly_obs::Recorder::new("benchmark"));
    let t = Instant::now();
    let mut reads = Vec::new();
    let mut capped = false;
    for _ in 0..max_rounds {
        let round = controller.run_round(&mut stack);
        capped |= round.empty + round.singles + round.collisions >= SLOT_GUARD;
        let activity = round.singles + round.collisions;
        reads.extend(round.reads);
        if activity == 0 {
            break;
        }
    }
    let total = t.elapsed();
    let counters = rfly_obs::take().map(|r| r.counters).unwrap_or_default();
    let layer = stack.layer_ref();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("sim.transactions"),
        layer.calls,
        "the timing layer must see every transaction the medium counts"
    );
    tr.add_time("sim.transact_ms", layer.busy);
    tr.add_time("reader.self_ms", total.saturating_sub(layer.busy));
    tr.add("sim.transactions", layer.calls as f64);
    tr.add("sim.tag_transactions", (layer.calls * tags as u64) as f64);
    tr.add("reader.reads", reads.len() as f64);
    tr.add("reader.capped_servings", f64::from(u8::from(capped)));
    tr.add("reader.slots_empty", counter("reader.slots.empty") as f64);
    tr.add("reader.slots_single", counter("reader.slots.single") as f64);
    tr.add(
        "reader.slots_collision",
        counter("reader.slots.collision") as f64,
    );
    reads
}

/// A storage wrapper that times every mutating call and counts bytes
/// written, into its own [`Trace`].
#[derive(Debug)]
pub struct TimedStorage<S: Storage> {
    pub inner: S,
    pub trace: Trace,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            trace: Trace::default(),
        }
    }

    fn call<T>(&mut self, written: usize, f: impl FnOnce(&mut S) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.trace.add_time("chaos.storage_ms", t.elapsed());
        self.trace.add("chaos.storage_calls", 1.0);
        self.trace.add("chaos.bytes_written", written as f64);
        out
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.call(bytes.len(), |s| s.append(path, bytes))
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.call(bytes.len(), |s| s.write_atomic(path, bytes))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        // Reads take `&self`; they count toward the caller's span.
        self.inner.read(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.call(0, |s| s.remove(path))
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

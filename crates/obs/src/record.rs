//! The recorder: a deterministic, ordered event sink.
//!
//! All state lives in a thread-local `Option<Recorder>`. Probes are
//! free functions ([`counter_add`], [`observe_db`], [`event`],
//! [`span`]) that no-op when nothing is installed; ordering is a
//! monotonic logical sequence number bumped once per recorded item, so
//! two identical mission executions produce identical record streams.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rfly_dsp::decimal::Shortest;
use rfly_dsp::units::Db;

/// One structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned count or index.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rendered in shortest round-trip form).
    F64(f64),
    /// A short label.
    Text(String),
}

impl Value {
    /// Renders the value for the text report.
    pub fn render(&self) -> String {
        match self {
            Value::U64(v) => format!("{v}"),
            Value::I64(v) => format!("{v}"),
            Value::F64(v) => Shortest(*v).to_string(),
            Value::Text(v) => v.clone(),
        }
    }
}

/// One recorded structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical sequence number (global across events, unique).
    pub seq: u64,
    /// The span path active when the event fired, `/`-joined.
    pub span: String,
    /// Event name (`dotted.lowercase` by convention).
    pub name: &'static str,
    /// Ordered structured fields.
    pub fields: Vec<(&'static str, Value)>,
}

/// Running statistics of one unit-typed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Unit tag (`dB`, `m`, `s`, or empty).
    pub unit: &'static str,
    /// Samples observed.
    pub count: u64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Sum of samples (mean = sum / count).
    pub sum: f64,
}

impl Histogram {
    fn new(unit: &'static str) -> Self {
        Self {
            unit,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
    }

    /// The mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The per-thread instrumentation sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    /// The mission/run label the report is filed under.
    pub mission: String,
    /// Next logical sequence number.
    seq: u64,
    /// The active span stack.
    stack: Vec<&'static str>,
    /// Every recorded event, in order.
    pub events: Vec<Event>,
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Unit-typed histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Child mode ([`fork`]): histogram samples are journaled verbatim
    /// instead of folded, so [`Recorder::absorb`] can replay them into
    /// the parent in the exact order a serial run would have observed
    /// them — folding per-child partial sums first would reassociate
    /// the f64 additions and break bit-identity of the obs report.
    child: bool,
    /// The verbatim `(name, unit, sample)` journal of a child.
    samples: Vec<(&'static str, &'static str, f64)>,
}

impl Recorder {
    /// A fresh recorder labelled `mission`.
    pub fn new(mission: &str) -> Self {
        Self {
            mission: mission.to_string(),
            seq: 0,
            stack: Vec::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            child: false,
            samples: Vec::new(),
        }
    }

    /// A child recorder for one pool task: inherits the mission label
    /// and the current span path so worker-side records land exactly
    /// where inline records would, but journals its samples for
    /// order-preserving [`Self::absorb`].
    fn fork_child(&self) -> Self {
        let mut c = Self::new(&self.mission);
        c.stack = self.stack.clone();
        c.child = true;
        c
    }

    /// Folds a child recorder (from [`fork`]) into this one, in call
    /// order: events are re-sequenced onto this recorder's stream,
    /// counters add, and the child's journaled histogram samples are
    /// replayed one by one. Absorbing children in task-index order
    /// reproduces the serial record stream byte-for-byte — merge order
    /// is what pins determinism.
    pub fn absorb(&mut self, chd: Recorder) {
        for e in chd.events {
            let seq = self.next_seq();
            self.events.push(Event { seq, ..e });
        }
        for (name, delta) in chd.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, unit, v) in chd.samples {
            self.observe(name, unit, v);
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn span_path(&self) -> String {
        self.stack.join("/")
    }

    fn record_event(&mut self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let seq = self.next_seq();
        let span = self.span_path();
        self.events.push(Event {
            seq,
            span,
            name,
            fields,
        });
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&mut self, name: &'static str, unit: &'static str, v: f64) {
        if self.child {
            self.samples.push((name, unit, v));
            return;
        }
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(unit))
            .observe(v);
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs `rec` as this thread's sink, replacing (and discarding) any
/// previous one.
pub fn install(rec: Recorder) {
    RECORDER.with(|r| *r.borrow_mut() = Some(rec));
}

/// Removes and returns this thread's sink, disabling instrumentation.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Whether a recorder is installed on this thread.
pub fn is_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// A child recorder for one pool task, inheriting this thread's
/// mission label and span path — `None` when no recorder is installed
/// (workers then run uninstrumented, exactly like the calling thread).
/// Install it on the worker, run the task, [`take`] it back, and
/// [`Recorder::absorb`] the children in task-index order.
pub fn fork() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow().as_ref().map(Recorder::fork_child))
}

/// Folds a child recorder (from [`fork`]) into this thread's sink.
/// No-op (the child is discarded) when nothing is installed.
pub fn absorb(chd: Recorder) {
    with(|r| r.absorb(chd));
}

fn with(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Bumps the monotonic counter `name` by `delta`. No-op when inactive.
pub fn counter_add(name: &'static str, delta: u64) {
    with(|r| r.add(name, delta));
}

/// Observes a dB sample into histogram `name`.
pub fn observe_db(name: &'static str, v: Db) {
    with(|r| r.observe(name, "dB", v.value()));
}

/// Records a structured event with ordered fields.
pub fn event(name: &'static str, fields: Vec<(&'static str, Value)>) {
    with(|r| r.record_event(name, fields));
}

/// Opens a span: subsequent records carry its path until the returned
/// guard drops. Enter/exit are themselves sequenced events.
pub fn span(name: &'static str) -> SpanGuard {
    with(|r| {
        r.record_event("span.enter", vec![("span", Value::Text(name.to_string()))]);
        r.stack.push(name);
    });
    SpanGuard { name }
}

/// Closes its span on drop (recording `span.exit`).
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        with(|r| {
            if r.stack.last() == Some(&self.name) {
                r.stack.pop();
            }
            r.record_event(
                "span.exit",
                vec![("span", Value::Text(self.name.to_string()))],
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_noops_without_a_recorder() {
        assert!(take().is_none());
        counter_add("x", 1);
        observe_db("y", Db::new(1.0));
        event("z", vec![]);
        let _g = span("s");
        assert!(!is_active());
    }

    #[test]
    fn identical_sequences_record_identically() {
        let run = || {
            install(Recorder::new("t"));
            let g = span("step");
            counter_add("reads", 3);
            observe_db("snr_db", Db::new(20.0));
            observe_db("snr_db", Db::new(10.0));
            event("fault", vec![("relay", Value::U64(1))]);
            drop(g);
            take().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.counters["reads"], 3);
        let h = &a.histograms["snr_db"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 20.0);
        assert!((h.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_stamp_events() {
        install(Recorder::new("t"));
        {
            let _a = span("mission");
            let _b = span("stop");
            event("probe", vec![]);
        }
        let rec = take().unwrap();
        let probe = rec.events.iter().find(|e| e.name == "probe").unwrap();
        assert_eq!(probe.span, "mission/stop");
        // enter, enter, probe, exit, exit — sequenced.
        let seqs: Vec<u64> = rec.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}

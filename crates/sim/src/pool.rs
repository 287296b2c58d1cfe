//! The deterministic scoped-thread work pool behind every parallel
//! path in the workspace.
//!
//! Parallelism in a bit-identical simulator has one safe shape:
//! **independent indexed tasks, merged in index order**. A [`Pool`]
//! runs `n` tasks (each a pure function of its index) on a fixed
//! number of scoped worker threads; workers *self-schedule* by pulling
//! the next unclaimed index from an atomic counter, but every result
//! is keyed by its task index and the merged `Vec` is always in
//! submission order — which worker computed what, and in which
//! interleaving, is unobservable. That is the whole determinism
//! contract: **the output of [`Pool::run`] is byte-identical at any
//! worker count**, including 1, so journals, checkpoints, goldens, and
//! replay fixtures never depend on `RFLY_THREADS`.
//!
//! Worker panics are never swallowed: [`Pool::run`] reports them as
//! [`PoolError`] (the bench harness turns these into `Err` rows), and
//! [`Pool::map`] re-raises the original payload so a panic propagates
//! exactly as it would have on the serial path.
//!
//! The worker count resolves, in order: an explicit [`Pool::new`]
//! argument, the `RFLY_THREADS` environment override, a process-wide
//! [`set_global_workers`] (tests/benches), or the machine's available
//! parallelism clamped to [`MAX_WORKERS`]. Because of the contract
//! above, any value is safe — only wall-clock changes.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper clamp on the resolved worker count: beyond this, spawn and
/// merge overhead outweighs any propagation win on the workloads the
/// simulator runs.
pub const MAX_WORKERS: usize = 64;

/// Process-wide worker-count override; 0 = unset (resolve from the
/// environment). Stored atomically so tests and benches can flip it —
/// safely, because results are worker-count-invariant by contract.
static GLOBAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Serializes tests that assert on the process-global width (results
/// never race — see the contract — but read-back assertions would).
#[cfg(test)]
pub(crate) static TEST_WIDTH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Clears the override back to environment resolution (tests only).
#[cfg(test)]
pub(crate) fn reset_global_workers() {
    GLOBAL_WORKERS.store(0, Ordering::Relaxed);
}

/// Resolves the default worker count: `RFLY_THREADS` if set and ≥ 1
/// (clamped to [`MAX_WORKERS`]), else the machine's available
/// parallelism, clamped. Results are identical at any value — the
/// override tunes wall-clock only.
fn env_workers() -> usize {
    let from_env = std::env::var("RFLY_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let n = from_env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    n.clamp(1, MAX_WORKERS)
}

/// Overrides the process-wide default worker count (clamped to
/// `1..=`[`MAX_WORKERS`]). Safe to call from tests running in
/// parallel: every [`Pool`] yields byte-identical results at any
/// worker count, so a mid-flight change can only alter timing.
pub fn set_global_workers(n: usize) {
    GLOBAL_WORKERS.store(n.clamp(1, MAX_WORKERS), Ordering::Relaxed);
}

/// The process-wide default worker count: [`set_global_workers`] if
/// called, else the `RFLY_THREADS`/available-parallelism resolution.
pub fn global_workers() -> usize {
    match GLOBAL_WORKERS.load(Ordering::Relaxed) {
        0 => env_workers(),
        n => n,
    }
}

/// Why a pool run failed: some worker panicked.
#[derive(Debug)]
pub struct PoolError {
    /// The panic payload of the first panicking worker, rendered.
    pub message: String,
    /// How many workers panicked.
    pub panicked_workers: usize,
    /// The original payload of the first panic, for re-raising.
    payload: Box<dyn std::any::Any + Send + 'static>,
}

impl PoolError {
    /// Re-raises the first worker's original panic payload, exactly as
    /// the serial path would have panicked.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pool worker(s) panicked: {}",
            self.panicked_workers, self.message
        )
    }
}

/// Renders a panic payload for [`PoolError::message`].
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "opaque panic payload".to_string(),
        }
    }
}

/// A fixed-width scoped-thread work pool. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with an explicit worker count (clamped to
    /// `1..=`[`MAX_WORKERS`]).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.clamp(1, MAX_WORKERS),
        }
    }

    /// A pool at the process-wide default width ([`global_workers`]).
    pub fn global() -> Self {
        Self::new(global_workers())
    }

    /// A single-worker pool: every `run`/`map` stays inline on the
    /// calling thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Runs tasks `0..n_tasks` and merges their results **in task
    /// order**. `task` must be a pure function of its index (it runs
    /// once per index, on an unspecified worker). With one worker, or
    /// one task, everything runs inline on the calling thread — by the
    /// determinism contract the result is byte-identical either way.
    ///
    /// A panicking task fails the whole run: every already-claimed
    /// task still completes, then the first panic is reported as
    /// [`PoolError`].
    pub fn run<T, F>(&self, n_tasks: usize, task: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let width = self.workers.min(n_tasks);
        if width <= 1 {
            return Ok((0..n_tasks).map(task).collect());
        }

        let next = AtomicUsize::new(0);
        let task_ref = &task;
        let next_ref = &next;
        // When the calling thread is instrumented, each task records
        // into its own child recorder; absorbing children in task
        // order below reproduces the serial record stream exactly.
        let obs_template = rfly_obs::fork();
        let obs_ref = &obs_template;
        let mut per_worker: Vec<Vec<(usize, T, Option<rfly_obs::Recorder>)>> =
            Vec::with_capacity(width);
        let mut first_panic: Option<Box<dyn std::any::Any + Send + 'static>> = None;
        let mut panicked = 0usize;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..width)
                .map(|_| {
                    s.spawn(move || {
                        let mut mine: Vec<(usize, T, Option<rfly_obs::Recorder>)> = Vec::new();
                        loop {
                            let i = next_ref.fetch_add(1, Ordering::Relaxed);
                            if i >= n_tasks {
                                break;
                            }
                            let entry = match obs_ref {
                                Some(template) => {
                                    rfly_obs::install(template.clone());
                                    let out = task_ref(i);
                                    (i, out, rfly_obs::take())
                                }
                                None => (i, task_ref(i), None),
                            };
                            mine.push(entry);
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(results) => per_worker.push(results),
                    Err(payload) => {
                        panicked += 1;
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
        });
        if let Some(payload) = first_panic {
            return Err(PoolError {
                message: panic_text(payload.as_ref()),
                panicked_workers: panicked,
                payload,
            });
        }

        // Ordered merge: place every (index, result) pair into its
        // submission slot. Which worker produced it is forgotten here.
        let mut slots: Vec<Option<(T, Option<rfly_obs::Recorder>)>> =
            (0..n_tasks).map(|_| None).collect();
        for (i, v, rec) in per_worker.into_iter().flatten() {
            slots[i] = Some((v, rec));
        }
        let merged: Option<Vec<(T, Option<rfly_obs::Recorder>)>> = slots.into_iter().collect();
        match merged {
            Some(pairs) => {
                let mut out = Vec::with_capacity(n_tasks);
                for (v, rec) in pairs {
                    if let Some(rec) = rec {
                        rfly_obs::absorb(rec);
                    }
                    out.push(v);
                }
                Ok(out)
            }
            // Unreachable: no worker panicked, so every index in
            // 0..n_tasks was claimed exactly once and filled its slot.
            None => Err(PoolError {
                message: "pool lost a task result".to_string(),
                panicked_workers: 0,
                payload: Box::new("pool lost a task result"),
            }),
        }
    }

    /// [`Self::run`], but a worker panic re-raises on the calling
    /// thread with the original payload — for physics paths where a
    /// panic must propagate exactly as the serial loop would have.
    pub fn map<T, F>(&self, n_tasks: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.run(n_tasks, task) {
            Ok(v) => v,
            Err(e) => e.resume(),
        }
    }

    /// Splits `0..n_items` into contiguous chunks of at most
    /// `chunk` items, evaluates each chunk as one task (so per-item
    /// work amortizes spawn/merge overhead), and flattens the chunk
    /// results back into item order. Panics propagate like
    /// [`Self::map`].
    pub fn map_chunked<T, F>(&self, n_items: usize, chunk: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = n_items.div_ceil(chunk);
        let nested = self.map(n_chunks, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n_items);
            task(lo..hi)
        });
        let mut out = Vec::with_capacity(n_items);
        for v in nested {
            out.extend(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_merge_in_task_order_at_any_width() {
        let reference: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = Pool::new(workers);
            let got = pool
                .run(97, |i| (i as u64) * 3 + 1)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(got, reference, "width {workers}");
        }
    }

    #[test]
    fn empty_task_set_yields_empty_vec() {
        let pool = Pool::new(8);
        let got = pool.run(0, |_| 0u8).unwrap_or_else(|e| panic!("{e}"));
        assert!(got.is_empty());
    }

    #[test]
    fn single_task_runs_inline() {
        // One task on a wide pool must not spawn (width clamps to the
        // task count); observable via thread identity.
        let caller = std::thread::current().id();
        let pool = Pool::new(16);
        let got = pool
            .run(1, |_| std::thread::current().id())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(got, vec![caller]);
    }

    #[test]
    fn worker_panic_surfaces_as_pool_error() {
        let pool = Pool::new(4);
        let r = pool.run(16, |i| {
            if i == 7 {
                panic!("task 7 exploded");
            }
            i
        });
        match r {
            Ok(_) => panic!("panic was swallowed"),
            Err(e) => {
                assert!(e.message.contains("task 7 exploded"), "{}", e.message);
                assert!(e.panicked_workers >= 1);
            }
        }
    }

    #[test]
    fn map_reraises_the_original_payload() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(4).map(8, |i| {
                if i == 3 {
                    panic!("boom {i}");
                }
                i
            })
        });
        let payload = match caught {
            Ok(_) => panic!("panic was swallowed"),
            Err(p) => p,
        };
        assert_eq!(panic_text(payload.as_ref()), "boom 3");
    }

    #[test]
    fn chunked_map_flattens_in_item_order() {
        let reference: Vec<usize> = (0..50).map(|i| i * i).collect();
        for (workers, chunk) in [(1, 7), (4, 7), (8, 1), (3, 64)] {
            let got = Pool::new(workers).map_chunked(50, chunk, |r| r.map(|i| i * i).collect());
            assert_eq!(got, reference, "width {workers} chunk {chunk}");
        }
    }

    #[test]
    fn obs_streams_are_identical_at_any_width() {
        use rfly_dsp::units::Db;
        let fly = |workers: usize| {
            rfly_obs::install(rfly_obs::Recorder::new("pool-obs"));
            let got = Pool::new(workers)
                .run(9, |i| {
                    rfly_obs::counter_add("pool.tasks", 1);
                    rfly_obs::observe_db("pool.metric", Db::new(1.0 + i as f64 / 3.0));
                    i
                })
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(got, (0..9).collect::<Vec<_>>());
            match rfly_obs::take() {
                Some(rec) => rec,
                None => panic!("recorder vanished"),
            }
        };
        let serial = fly(1);
        assert_eq!(serial.counters["pool.tasks"], 9);
        for workers in [2, 4, 8] {
            let parallel = fly(workers);
            assert_eq!(serial, parallel, "width {workers}");
        }
    }

    #[test]
    fn global_width_clamps_and_overrides() {
        let _guard = TEST_WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = global_workers();
        assert!((1..=MAX_WORKERS).contains(&before));
        set_global_workers(3);
        assert_eq!(global_workers(), 3);
        set_global_workers(0);
        assert_eq!(global_workers(), 1, "0 clamps to 1");
        set_global_workers(10_000);
        assert_eq!(global_workers(), MAX_WORKERS);
        // Restore the environment resolution for other tests (any
        // value is correct by contract; this keeps timing realistic).
        reset_global_workers();
    }
}

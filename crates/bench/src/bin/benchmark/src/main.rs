//! The RFly benchmark: end-to-end host time of four workloads, a
//! per-layer trace taken from outside the library, and bit-exact
//! output fingerprints. See README.md beside this package.
//!
//! ```text
//! benchmark [--seed N] [--trace] [--json PATH]            all four workloads, interleaved
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! benchmark --compare A.json B.json                       two sets of --json runs
//! ```
//!
//! Load shape: a closed loop. One caller runs units back to back; each
//! round of a workload is split into slices, and every slice runs in a
//! fresh child process of this binary, one child at a time.

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use stats::{median, quantile, quote, Fnv, Json, Verdict};
use trace::{ms, Trace};
use workloads::{run_unit, setup, Workload, DEFAULT_SEED, SLICES};

/// Default measuring time of one `--workload` run, seconds
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 28.0;

/// Set-ups per child process; the median is reported.
const SETUP_REPEATS: usize = 5;

/// The per-layer metrics of a `--trace` run, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.rf_plan_ms", "ms"),
    ("sim.medium_build_ms", "ms"),
    ("sim.transact_ms", "ms"),
    ("sim.transactions", "count"),
    ("sim.ns_per_tag_tx", "ns"),
    ("reader.self_ms", "ms"),
    ("reader.reads_per_ktx", "1/ktx"),
    ("reader.capped_servings", "count"),
    ("reader.slots_empty", "count"),
    ("reader.slots_single", "count"),
    ("reader.slots_collision", "count"),
    ("fleet.merge_ms", "ms"),
    ("faults.advance_ms", "ms"),
    ("faults.outcome_ms", "ms"),
    ("faults.recoveries", "count"),
    ("scenario.compile_ms", "ms"),
    ("channel.reader_search_ms", "ms"),
    ("loc.disentangle_ms", "ms"),
    ("loc.sar_ms", "ms"),
    ("loc.sar_cells", "count"),
    ("loc.rssi_ms", "ms"),
    ("loc.sar_err_p50_m", "m"),
    ("replay.build_ms", "ms"),
    ("replay.journal_encode_ms", "ms"),
    ("replay.checkpoint_encode_ms", "ms"),
    ("replay.salvage_ms", "ms"),
    ("replay.recover_ms", "ms"),
    ("chaos.storage_ms", "ms"),
    ("chaos.storage_calls", "count"),
    ("chaos.bytes_written", "bytes"),
    ("tracing_overhead_pct", "%"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--child") => child(&args),
        Some("--compare") => compare(&args),
        _ => parent(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// The value following `flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
        .transpose()
}

/// Pins the work-pool width to `min(2, nproc)` so every commit runs at
/// the same width; `RFLY_THREADS` is overridden.
fn pin_workers() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    rfly_sim::pool::set_global_workers(workers);
    (workers, nproc)
}

// ---- child: one slice of one workload.

fn child(args: &[String]) -> Result<ExitCode, String> {
    let w = flag(args, "--child")
        .and_then(Workload::parse)
        .ok_or("--child needs a workload")?;
    let seed: u64 = parse(args, "--seed")?.ok_or("--seed required")?;
    let slice: usize = parse(args, "--slice")?.ok_or("--slice required")?;
    let traced = flag(args, "--trace") == Some("1");
    let fold = flag(args, "--fold")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("--fold required")?;
    pin_workers();

    // Set up several times and keep the median; only the last set-up's
    // spans enter the trace.
    let units = w.slice(slice);
    let mut tr = Trace::default();
    let mut setup_times = Vec::new();
    let built = loop {
        let last = setup_times.len() + 1 == SETUP_REPEATS;
        let t = Instant::now();
        let built = setup(
            w,
            seed,
            units.clone(),
            &mut (traced && last).then_some(&mut tr),
        )?;
        setup_times.push(t.elapsed().as_secs_f64());
        if last {
            break built;
        }
    };
    let setup_s = median(&setup_times);

    let mut fnv = Fnv(fold);
    let (mut times, mut traced_times) = (Vec::new(), Vec::new());
    let mut failed = 0usize;
    for u in units.clone() {
        let t = Instant::now();
        let lib = catch_unwind(AssertUnwindSafe(|| run_unit(&built, u, None)));
        times.push(ms(t.elapsed()));
        let mut result = lib.unwrap_or_else(|_| Err("panicked".to_string()));
        if traced {
            let mut unit_tr = Trace::default();
            let t = Instant::now();
            let rep = catch_unwind(AssertUnwindSafe(|| run_unit(&built, u, Some(&mut unit_tr))));
            traced_times.push(ms(t.elapsed()));
            tr.merge(&unit_tr);
            let rep = rep.unwrap_or_else(|_| Err("traced replica panicked".to_string()));
            result = match (result, rep) {
                (Ok(a), Ok(b)) if a == b => Ok(a),
                (Ok(_), Ok(_)) => Err("traced replica diverged from the library call".into()),
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
        }
        match result {
            Ok(out) => fnv.fold(&out.0),
            Err(e) => {
                eprintln!("{} unit {u}: {e}", w.name());
                failed += 1;
                fnv.fold(b"failed");
            }
        }
    }

    let list = |v: &[f64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut line = format!(
        "slice setup_s={setup_s} fold={:016x} attempted={} failed={failed} rss_kb={} times={}",
        fnv.0,
        units.len(),
        peak_rss_kb(),
        list(&times)
    );
    if traced {
        line.push_str(&format!(" traced={}", list(&traced_times)));
        for (k, v) in &tr.sums {
            line.push_str(&format!(" sum.{k}={v}"));
        }
        for (k, v) in &tr.samples {
            line.push_str(&format!(" sample.{k}={}", list(v)));
        }
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// The process's peak resident set (`VmHWM`), kB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// What one child reported.
#[derive(Debug, Default)]
struct Slice {
    setup_s: f64,
    fold: u64,
    attempted: usize,
    failed: usize,
    rss_kb: u64,
    times: Vec<f64>,
    traced: Vec<f64>,
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

fn parse_slice(line: &str) -> Result<Slice, String> {
    let mut s = Slice::default();
    let list = |v: &str| -> Result<Vec<f64>, String> {
        v.split(',')
            .filter(|x| !x.is_empty())
            .map(|x| x.parse().map_err(|_| format!("bad number {x:?}")))
            .collect()
    };
    let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad number {v:?}"));
    let mut fields = line.split_whitespace();
    if fields.next() != Some("slice") {
        return Err(format!("child printed no result: {line:?}"));
    }
    for field in fields {
        let (k, v) = field
            .split_once('=')
            .ok_or(format!("bad field {field:?}"))?;
        match k {
            "setup_s" => s.setup_s = num(v)?,
            "fold" => s.fold = u64::from_str_radix(v, 16).map_err(|e| e.to_string())?,
            "attempted" => s.attempted = num(v)? as usize,
            "failed" => s.failed = num(v)? as usize,
            "rss_kb" => s.rss_kb = num(v)? as u64,
            "times" => s.times = list(v)?,
            "traced" => s.traced = list(v)?,
            _ => {
                if let Some(key) = k.strip_prefix("sum.") {
                    s.sums.insert(key.to_string(), num(v)?);
                } else if let Some(key) = k.strip_prefix("sample.") {
                    s.samples.insert(key.to_string(), list(v)?);
                }
            }
        }
    }
    Ok(s)
}

/// Runs slice `i` of `w` in a fresh child process and waits for it.
fn run_slice(w: Workload, seed: u64, i: usize, traced: bool, fold: u64) -> Result<Slice, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--child", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--slice", &i.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--fold", &format!("{fold:016x}")])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} slice {i}: child exited with {}",
            w.name(),
            out.status
        ));
    }
    parse_slice(stdout.lines().last().unwrap_or(""))
}

// ---- parent: rounds of slices, then metrics.

/// Everything measured for one workload in one run.
#[derive(Debug)]
struct WorkloadRun {
    w: Workload,
    traced: bool,
    slices: Vec<Slice>,
    /// Fingerprint of each completed round.
    rounds: Vec<u64>,
    fold: Fnv,
}

impl WorkloadRun {
    fn new(w: Workload, traced: bool) -> Self {
        Self {
            w,
            traced,
            slices: Vec::new(),
            rounds: Vec::new(),
            fold: Fnv::default(),
        }
    }

    /// Runs slice `i`, chaining the fingerprint through the round.
    fn step(&mut self, seed: u64, i: usize) -> Result<(), String> {
        let s = run_slice(self.w, seed, i, self.traced, self.fold.0)?;
        self.fold = Fnv(s.fold);
        self.slices.push(s);
        if i + 1 == SLICES {
            self.rounds.push(self.fold.0);
            self.fold = Fnv::default();
        }
        Ok(())
    }

    fn attempted(&self) -> usize {
        self.slices.iter().map(|s| s.attempted).sum()
    }

    fn failed(&self) -> usize {
        self.slices.iter().map(|s| s.failed).sum()
    }

    /// Per-unit host times across all rounds, tagged with the unit.
    fn unit_times(&self, traced: bool) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for (k, s) in self.slices.iter().enumerate() {
            let units = self.w.slice(k % SLICES);
            let times = if traced { &s.traced } else { &s.times };
            out.extend(units.zip(times.iter().copied()));
        }
        out
    }

    /// The gated statistic: the median unit, or for corpus the pass
    /// time, the sum over files of each file's median flight.
    fn p50(&self, traced: bool) -> (f64, usize) {
        let times = self.unit_times(traced);
        let n = times.len();
        if times.is_empty() {
            return (f64::NAN, 0);
        }
        if self.w == Workload::Corpus {
            let mut per_file: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for (u, t) in times {
                per_file
                    .entry(u % workloads::CORPUS_FILES)
                    .or_default()
                    .push(t);
            }
            (per_file.values().map(|v| median(v)).sum(), n)
        } else {
            let v: Vec<f64> = times.into_iter().map(|(_, t)| t).collect();
            (median(&v), n)
        }
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let setups: Vec<f64> = self.slices.iter().map(|s| s.setup_s).collect();
        let rss = self.slices.iter().map(|s| s.rss_kb).max().unwrap_or(0);
        vec![
            ("unit_p50_ms", self.p50(false).0, "ms"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", rss as f64 / 1024.0, "MB"),
        ]
    }

    fn fail_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The untraced tail, for workloads with at least 100 samples.
    fn p90(&self) -> Option<(f64, usize)> {
        let v: Vec<f64> = self.unit_times(false).into_iter().map(|(_, t)| t).collect();
        (v.len() >= 100 && self.w != Workload::Corpus).then(|| (quantile(&v, 0.9), v.len()))
    }

    /// Every per-layer metric this workload measured: `*_ms` sums as
    /// ms per unit, counts as totals over the round.
    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.slices {
            for (k, v) in &s.sums {
                *sums.entry(k.clone()).or_insert(0.0) += v;
            }
            for (k, v) in &s.samples {
                samples.entry(k.clone()).or_default().extend(v);
            }
        }
        let units = self.attempted().max(1) as f64;
        let sum = |k: &str| sums.get(k).copied();
        let mut out = BTreeMap::new();
        for &(name, _) in PER_LAYER {
            let value = match name {
                // Corpus compiles once per process, not per unit.
                "scenario.compile_ms" => sum(name).map(|v| v / self.slices.len().max(1) as f64),
                "sim.ns_per_tag_tx" => sum("sim.tag_transactions")
                    .filter(|&n| n > 0.0)
                    .and_then(|n| Some(sum("sim.transact_ms")? * 1e6 / n)),
                "reader.reads_per_ktx" => sum("sim.transactions")
                    .filter(|&n| n > 0.0)
                    .and_then(|n| Some(sum("reader.reads")? * 1e3 / n)),
                "loc.sar_err_p50_m" => samples.get("loc.sar_err_m").map(|v| median(v)),
                "tracing_overhead_pct" => {
                    Some((self.p50(true).0 / self.p50(false).0 - 1.0) * 100.0)
                }
                _ if name.ends_with("_ms") => sum(name).map(|v| v / units),
                _ => sum(name),
            };
            if let Some(v) = value {
                out.insert(name, v);
            }
        }
        out
    }
}

/// How a round's fingerprint compares with the committed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FpStatus {
    Matches,
    Mismatch {
        expected: u64,
    },
    /// Rounds of one run disagreed: the simulation is not deterministic.
    Unstable,
    /// No committed value for this seed.
    Unchecked,
}

impl FpStatus {
    fn of(w: Workload, seed: u64, rounds: &[u64]) -> Self {
        if rounds.windows(2).any(|p| p[0] != p[1]) {
            return FpStatus::Unstable;
        }
        let expected = w.committed_fingerprint();
        match rounds.first() {
            Some(_) if seed != DEFAULT_SEED => FpStatus::Unchecked,
            Some(&fp) if fp == expected => FpStatus::Matches,
            _ => FpStatus::Mismatch { expected },
        }
    }

    /// Exit code 2 flags outputs that are not bit-exact.
    fn exit_code(self) -> u8 {
        match self {
            FpStatus::Matches | FpStatus::Unchecked => 0,
            FpStatus::Mismatch { .. } | FpStatus::Unstable => 2,
        }
    }
}

fn parent(args: &[String]) -> Result<ExitCode, String> {
    let workload = match flag(args, "--workload") {
        Some(name) => Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?),
        None => None,
    };
    let seed: u64 = parse(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = parse(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let traced = match flag(args, "--trace") {
        Some("1") => true,
        Some("0") => false,
        _ => args.iter().any(|a| a == "--trace"),
    };
    let json = flag(args, "--json");
    let (workers, nproc) = pin_workers();
    println!(
        "benchmark: seed {seed}, {workers} pool worker(s) (nproc {nproc}), tracing {}",
        if traced { "on" } else { "off" }
    );

    let t0 = Instant::now();
    let runs = match workload {
        // One workload, whole rounds while another fits in `seconds`.
        Some(w) => {
            let mut run = WorkloadRun::new(w, traced);
            loop {
                let round = Instant::now();
                for i in 0..SLICES {
                    run.step(seed, i)?;
                }
                let left = seconds - t0.elapsed().as_secs_f64();
                if traced || round.elapsed().as_secs_f64() > left {
                    break;
                }
            }
            vec![run]
        }
        // All four, one round each, slices interleaved round-robin so a
        // slow phase of the machine spreads over every workload.
        None => {
            let mut runs: Vec<WorkloadRun> = Workload::ALL
                .iter()
                .map(|&w| WorkloadRun::new(w, traced))
                .collect();
            for i in 0..SLICES {
                for run in &mut runs {
                    run.step(seed, i)?;
                }
            }
            runs
        }
    };

    let prefix = |w: Workload, name: &str| match workload {
        Some(_) => name.to_string(),
        None => format!("{}.{name}", w.name()),
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut record: Vec<(String, f64)> = Vec::new();
    let mut fingerprints = Vec::new();
    let mut code = 0u8;
    for run in &runs {
        let w = run.w;
        let name = w.name();
        for (m, v, unit) in run.end_to_end() {
            let n = if m == "unit_p50_ms" {
                run.p50(false).1
            } else {
                run.slices.len()
            };
            println!("{name}.{m} {v} {unit} n={n}");
            record.push((format!("{name}.{m}"), v));
            if !traced {
                metrics.push((prefix(w, m), v, unit));
            }
        }
        if let Some((p90, n)) = run.p90() {
            println!("{name}.unit_p90_ms {p90} ms n={n} (not gated)");
            record.push((format!("{name}.unit_p90_ms"), p90));
        }
        let fail_rate = run.fail_rate();
        println!(
            "{name}.fail_rate {fail_rate} ratio ({}/{})",
            run.failed(),
            run.attempted()
        );
        record.push((format!("{name}.fail_rate"), fail_rate));
        if traced {
            let layers = run.per_layer();
            for &(m, unit) in PER_LAYER {
                match layers.get(m) {
                    Some(&v) => {
                        let paper = if m == "loc.sar_err_p50_m" {
                            " (paper: 0.19 m)"
                        } else {
                            ""
                        };
                        println!("{name}.{m} {v} {unit}{paper}");
                        record.push((format!("{name}.{m}"), v));
                        metrics.push((prefix(w, m), v, unit));
                    }
                    // The contract run reports every layer metric.
                    None if workload.is_some() => metrics.push((m.to_string(), 0.0, unit)),
                    None => {}
                }
            }
        }
        let fp = run.rounds.first().copied().unwrap_or(0);
        let status = FpStatus::of(w, seed, &run.rounds);
        let note = match status {
            FpStatus::Matches => "matches the committed value".to_string(),
            FpStatus::Mismatch { expected } => format!("MISMATCH: committed {expected:016x}"),
            FpStatus::Unstable => format!("UNSTABLE across rounds: {:016x?}", run.rounds),
            FpStatus::Unchecked => format!("seed {seed}: no committed value"),
        };
        println!(
            "{name}.fingerprint {fp:016x} ({note}; {} round(s))",
            run.rounds.len()
        );
        fingerprints.push((name, fp));
        code = code.max(status.exit_code());
    }
    println!("wall {:.1} s", t0.elapsed().as_secs_f64());

    let attempted: usize = runs.iter().map(WorkloadRun::attempted).sum();
    let failed: usize = runs.iter().map(WorkloadRun::failed).sum();
    if code == 0 && failed > 0 {
        code = 1;
    }
    if let Some(path) = json {
        append_record(path, seed, traced, workers, &record, &fingerprints)?;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(k),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        code == 0,
        body.join(", ")
    );
    Ok(ExitCode::from(code))
}

/// Appends one run as a JSON line to `path`: the input of `--compare`.
fn append_record(
    path: &str,
    seed: u64,
    traced: bool,
    workers: usize,
    record: &[(String, f64)],
    fingerprints: &[(&str, u64)],
) -> Result<(), String> {
    let metrics: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    let fps: Vec<String> = fingerprints
        .iter()
        .map(|(w, fp)| format!("{}: \"{fp:016x}\"", quote(w)))
        .collect();
    let line = format!(
        "{{\"seed\": {seed}, \"trace\": {traced}, \"workers\": {workers}, \"metrics\": {{{}}}, \"fingerprints\": {{{}}}}}\n",
        metrics.join(", "),
        fps.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

// ---- --compare A.json B.json

fn read_runs(path: &str) -> Result<Vec<Json>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
        return Err("usage: --compare A.json B.json".to_string());
    };
    let bounds_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let bounds = stats::bounds(&bounds_text)?;
    let (ra, rb) = (read_runs(a)?, read_runs(b)?);
    println!("A = {a} ({} runs), B = {b} ({} runs)", ra.len(), rb.len());
    println!(
        "{:<28} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload.metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound"
    );
    let rows = stats::compare(&ra, &rb, &bounds);
    // Four significant digits, so set-up seconds and pass times both read.
    let sig = |v: f64| {
        let digits = if v == 0.0 {
            0.0
        } else {
            v.abs().log10().floor()
        };
        format!("{v:.*}", (3.0 - digits).max(0.0) as usize)
    };
    let side =
        |s: &stats::Summary| format!("{} [{}, {}] n={}", sig(s.median), sig(s.q1), sig(s.q3), s.n);
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved (spread exceeds the bound)",
        };
        let bound = if r.key.ends_with(".fail_rate") {
            "any".to_string()
        } else {
            format!("{:.0}%", r.bound * 100.0)
        };
        println!(
            "{:<28} {:>38} {:>38} {:>+7.1}% {:>6}  {verdict}",
            r.key,
            side(&r.a),
            side(&r.b),
            r.worse * 100.0,
            bound
        );
    }
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(ExitCode::from(u8::from(regressed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipping_one_output_bit_changes_the_fingerprint_and_exits_2() {
        let w = Workload::DurableStorm;
        let committed = w.committed_fingerprint();
        assert_eq!(
            FpStatus::of(w, DEFAULT_SEED, &[committed]),
            FpStatus::Matches
        );

        let output = b"journal bytes of one unit".to_vec();
        let mut flipped = output.clone();
        flipped[3] ^= 0x01;
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.fold(&output);
        b.fold(&flipped);
        assert_ne!(a, b, "one flipped bit must change the fingerprint");

        let status = FpStatus::of(w, DEFAULT_SEED, &[committed ^ (a.0 ^ b.0)]);
        assert_eq!(
            status,
            FpStatus::Mismatch {
                expected: committed
            }
        );
        assert_eq!(status.exit_code(), 2);
        // Rounds of one run that disagree are flagged on any seed.
        assert_eq!(FpStatus::of(w, 5, &[a.0, b.0]).exit_code(), 2);
        assert_eq!(FpStatus::of(w, 5, &[a.0, a.0]), FpStatus::Unchecked);
    }

    #[test]
    fn child_lines_parse() {
        let s = parse_slice(
            "slice setup_s=0.0005 fold=00000000000000ff attempted=3 failed=1 rss_kb=4096 \
             times=1.5,2.5 traced=1.6,2.6 sum.sim.transact_ms=3.25 sample.loc.sar_err_m=0.2,0.3",
        )
        .expect("parses");
        assert_eq!((s.fold, s.attempted, s.failed, s.rss_kb), (255, 3, 1, 4096));
        assert_eq!(s.times, [1.5, 2.5]);
        assert_eq!(s.traced, [1.6, 2.6]);
        assert_eq!(s.sums["sim.transact_ms"], 3.25);
        assert_eq!(s.samples["loc.sar_err_m"], [0.2, 0.3]);
        assert!(parse_slice("thread 'main' panicked").is_err());
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../../../../../BENCHMARK.json")).expect("parses");
        let listed: Vec<(&str, &str)> = doc
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name"),
                    m.get("unit").and_then(Json::as_str).expect("unit"),
                )
            })
            .collect();
        assert_eq!(listed, PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}

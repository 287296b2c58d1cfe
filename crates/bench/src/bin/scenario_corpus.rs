//! Scenario corpus smoke-run with golden-metric gating.
//!
//! Compiles and flies **every** scenario in `scenarios/` (faulted
//! scenarios fly supervised, belt scenarios fly with tag motion) and
//! records per-scenario metrics — unique tags, read rate, mission
//! steps, handoffs — into `results/bench/scenario_corpus.json`.
//!
//! The recorded metrics are *golden*: every run recomputes them and
//! compares against the committed file. Any drift (a scenario reading
//! a different tag count than last time) fails the run with exit
//! code 2 and a per-metric diff, without touching the report. Missions
//! are pure functions of their scenario files, so drift means a real
//! behavior change — rerun with `--update` to bless it. A golden file
//! that cannot be read (deleted, or the run started outside the repo
//! root) also exits 2; only `--update` may write a first golden.
//!
//! Run with: `cargo run --release -p rfly-bench --bin scenario_corpus [--update]`

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rfly_bench::prelude::*;
use rfly_faults::supervisor::run_supervised;
use rfly_faults::SupervisorConfig;
use rfly_fleet::inventory::run_mission_with_motion;
use rfly_scenario::{compile, load};
use rfly_sim::pool::Pool;

const BENCH_NAME: &str = "scenario_corpus";

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The four golden numbers for one scenario.
struct Outcome {
    unique_tags: usize,
    read_rate: f64,
    steps: usize,
    handoffs: usize,
}

fn fly(path: &Path) -> (String, Outcome) {
    let spec = load(path).unwrap_or_else(|e| panic!("{e}"));
    let compiled = compile(&spec).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut world = compiled.world();
    let n_tags = compiled.n_tags();
    let outcome = if compiled.spec.faults.any() {
        let r = run_supervised(
            &mut world,
            &compiled.plan,
            &compiled.partition,
            &compiled.mission_env(),
            &compiled.mission,
            &compiled.faults,
            &SupervisorConfig,
        );
        Outcome {
            unique_tags: r.inventory.unique_tags(),
            read_rate: r.inventory.read_rate(n_tags),
            steps: r.steps,
            handoffs: r.inventory.handoffs(),
        }
    } else {
        let r = run_mission_with_motion(
            &mut world,
            &compiled.plan,
            &compiled.partition,
            &compiled.budget,
            &compiled.mission,
            &compiled.motion,
        );
        Outcome {
            unique_tags: r.inventory.unique_tags(),
            read_rate: r.inventory.read_rate(n_tags),
            steps: r.steps,
            handoffs: r.inventory.handoffs(),
        }
    };
    (compiled.spec.name.clone(), outcome)
}

/// Reads the committed golden metrics back out of the per-bench JSON —
/// the `"metrics": { ... }` block of the shape `render_json` writes.
fn golden_metrics(path: &Path) -> Option<BTreeMap<String, f64>> {
    let body = std::fs::read_to_string(path).ok()?;
    let mut out = BTreeMap::new();
    let mut in_metrics = false;
    for line in body.lines() {
        let line = line.trim();
        if line.starts_with("\"metrics\"") {
            in_metrics = true;
            continue;
        }
        if in_metrics {
            if line.starts_with('}') {
                break;
            }
            let line = line.trim_end_matches(',');
            let Some((key, value)) = line.split_once(": ") else {
                continue;
            };
            let key = key.trim_matches('"');
            if let Ok(v) = value.parse::<f64>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    Some(out)
}

/// Every difference between the golden metrics and a fresh run, one
/// line per key: a changed value, a key the golden file lacks, or a
/// golden key this run did not produce. Empty means no drift.
fn drift(golden: &BTreeMap<String, f64>, fresh: &BTreeMap<String, f64>) -> Vec<String> {
    let mut lines = Vec::new();
    for (key, &value) in fresh {
        match golden.get(key) {
            Some(&g) if g == value => {}
            Some(&g) => lines.push(format!("  {key}: golden {g}, got {value}")),
            None => lines.push(format!("  {key}: new metric (golden file predates it)")),
        }
    }
    for key in golden.keys() {
        if !fresh.contains_key(key) {
            lines.push(format!("  {key}: present in golden, missing from this run"));
        }
    }
    lines
}

fn main() {
    let update = std::env::args().any(|a| a == "--update");
    let mut bench = Bench::new(BENCH_NAME, 0);

    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 8,
        "corpus must hold at least 8 scenarios, found {}",
        files.len()
    );

    let mut table = Table::new(
        "scenario corpus — per-scenario golden metrics",
        &[
            "scenario",
            "tags read",
            "read rate (%)",
            "steps",
            "handoffs",
        ],
    );
    // Every scenario compiles its own world from its own file, so the
    // corpus is the pool's indexed-task shape: fan the flights out,
    // merge in file order — golden metrics are byte-identical at any
    // worker count.
    let flown: Vec<(String, Outcome)> = Pool::global().map(files.len(), |i| fly(&files[i]));

    let mut fresh: BTreeMap<String, f64> = BTreeMap::new();
    for (name, o) in flown {
        table.row(&[
            name.clone(),
            o.unique_tags.to_string(),
            format!("{:.1}", 100.0 * o.read_rate),
            o.steps.to_string(),
            o.handoffs.to_string(),
        ]);
        fresh.insert(format!("{name}.unique_tags"), o.unique_tags as f64);
        fresh.insert(format!("{name}.read_rate"), o.read_rate);
        fresh.insert(format!("{name}.steps"), o.steps as f64);
        fresh.insert(format!("{name}.handoffs"), o.handoffs as f64);
    }

    fresh.insert("scenarios".to_string(), files.len() as f64);

    // Gate against the committed golden file before writing anything.
    let golden_path = PathBuf::from("results/bench").join(format!("{BENCH_NAME}.json"));
    if update {
        println!("--update: blessing current metrics as golden\n");
    } else {
        let Some(golden) = golden_metrics(&golden_path) else {
            eprintln!(
                "cannot read the golden file {} (run from the repo root; \
                 bless a first run with --update)",
                golden_path.display()
            );
            std::process::exit(2);
        };
        let drift = drift(&golden, &fresh);
        if !drift.is_empty() {
            table.print(false);
            eprintln!(
                "\nscenario corpus DRIFTED from {} ({} metric(s)):",
                golden_path.display(),
                drift.len()
            );
            for line in &drift {
                eprintln!("{line}");
            }
            eprintln!("\nif the change is intended, bless it with: --update");
            std::process::exit(2);
        }
        println!(
            "all {} scenarios match the committed golden metrics\n",
            files.len()
        );
    }

    bench.table("corpus", table, true);
    for (key, value) in &fresh {
        bench.metric(key, *value);
    }
    bench.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn identical_maps_do_not_drift() {
        let golden = metrics(&[
            ("a.unique_tags", 12.0),
            ("a.read_rate", 0.5),
            ("scenarios", 1.0),
        ]);
        assert!(drift(&golden, &golden.clone()).is_empty());
    }

    #[test]
    fn each_planted_difference_is_one_drift_line() {
        let golden = metrics(&[
            ("a.unique_tags", 12.0),
            ("a.read_rate", 0.5),
            ("scenarios", 1.0),
        ]);

        let mut perturbed = golden.clone();
        perturbed.insert("a.read_rate".to_string(), 0.5 + 1e-12);
        let lines = drift(&golden, &perturbed);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("a.read_rate"));

        let mut missing = golden.clone();
        missing.remove("a.unique_tags");
        let lines = drift(&golden, &missing);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("a.unique_tags") && lines[0].contains("missing"));

        let mut extra = golden.clone();
        extra.insert("b.steps".to_string(), 3.0);
        let lines = drift(&golden, &extra);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("b.steps") && lines[0].contains("new metric"));
    }

    #[test]
    fn unreadable_golden_is_none() {
        assert!(golden_metrics(Path::new("no/such/dir/scenario_corpus.json")).is_none());
    }
}

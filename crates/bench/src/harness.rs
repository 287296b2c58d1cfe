//! The shared bench-binary harness.
//!
//! Every binary in `src/bin/` used to carry its own copy of the same
//! boilerplate: the Fig. 9 isolation budget, shelf-item placement, seed
//! parsing, and ad-hoc table printing. This module centralizes it and
//! adds the machine-readable report: each binary funnels its tables and
//! headline metrics through a [`Bench`], which prints them exactly as
//! before **and** writes `results/bench/<name>.json`, then regenerates
//! the aggregate `results/bench/BENCH_report.json` over every bench
//! that has run.
//!
//! The committed report holds deterministic values only, so a rerun at
//! the same seed leaves it byte-identical. Wall time (durations,
//! speedups, the worker count they were measured at) goes to
//! [`Bench::telemetry`] instead, a side channel written under the
//! untracked `target/bench-telemetry/`.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::PathBuf;

use rfly_channel::geometry::Point2;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::Meters;
use rfly_obs::report::{json_f64, json_str};
use rfly_sim::experiment::seed_from_args;
use rfly_sim::report::Table;
use rfly_sim::scene::Scene;
use rfly_tag::population::TagPopulation;

/// Tagged items on random shelf spots with ±0.8 m lateral scatter and
/// optional rack-depth scatter (`depth` draws `0.0..depth` below the
/// shelf line). The draw order is one `gen_range` for the spot, one for
/// x, and one for y only when `depth` is set — matching the historic
/// per-binary copies seed-for-seed.
pub fn shelf_items(scene: &Scene, n: usize, seed: u64, depth: Option<Meters>) -> TagPopulation {
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..n)
        .map(|_| {
            let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
            let x = spot.x + rng.gen_range(-0.8..0.8);
            let y = match depth {
                Some(d) => spot.y - rng.gen_range(0.0..d.value()),
                None => spot.y,
            };
            Point2::new(x, y)
        })
        .collect();
    TagPopulation::generate(n, &positions, seed ^ 0xF1EE7)
}

/// Runs `f` and returns its value with the wall seconds it took. The
/// bench crate's one clock: what it returns is telemetry only.
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock timing is telemetry, outside the seeded contract"
)]
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The first quartile, median and third quartile of a non-empty sample
/// set, interpolating linearly between order statistics. Sorts
/// `samples` in place.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    let last = samples.len() - 1;
    let at = |q: f64| {
        let pos = q * last as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(last);
        samples[lo] + pos.fract() * (samples[hi] - samples[lo])
    };
    (at(0.25), at(0.5), at(0.75))
}

/// One bench binary's run: tables and metrics accumulated for stdout
/// and the JSON report.
#[derive(Debug)]
pub struct Bench {
    name: String,
    seed: u64,
    tables: Vec<(String, Table)>,
    metrics: BTreeMap<String, f64>,
    telemetry: BTreeMap<String, f64>,
    out_dir: PathBuf,
    telemetry_dir: PathBuf,
}

impl Bench {
    /// A harness for the binary `name` seeded explicitly.
    pub fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            tables: Vec::new(),
            metrics: BTreeMap::new(),
            telemetry: BTreeMap::new(),
            out_dir: PathBuf::from("results/bench"),
            telemetry_dir: PathBuf::from("target/bench-telemetry"),
        }
    }

    /// A harness seeded from a `--seed N` argument (falling back to
    /// `default_seed` when there is none). A malformed seed exits the
    /// process with status 1 and names the bad value, so no results
    /// file is rewritten at a seed that was not asked for.
    pub fn from_args(name: &str, default_seed: u64) -> Self {
        let args: Vec<String> = std::env::args().collect();
        match seed_from_args(&args, default_seed) {
            Ok(seed) => Self::new(name, seed),
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// The run's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Prints `table` (with trailing CSV when `with_csv`, exactly as
    /// `Table::print` always has) and records it for the JSON report
    /// under `slug`.
    pub fn table(&mut self, slug: &str, table: Table, with_csv: bool) {
        table.print(with_csv);
        self.tables.push((slug.to_string(), table));
    }

    /// Records a headline metric (a gate value, a count, a rate) for
    /// the JSON report. It must be deterministic: wall time goes to
    /// [`Self::telemetry`].
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// Records a wall-time value (a duration, a speedup, the worker
    /// count it was measured at) for `target/bench-telemetry/<name>.json`,
    /// which git does not track. It never enters the committed report.
    pub fn telemetry(&mut self, key: &str, value: f64) {
        self.telemetry.insert(key.to_string(), value);
    }

    /// The per-bench report as a JSON object.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"bench\": {},\n  \"seed\": {},\n  \"metrics\": ",
            json_str(&self.name),
            self.seed
        );
        write_json_map(&mut s, &self.metrics);
        s.push_str(",\n  \"tables\": {");
        for (k, (slug, t)) in self.tables.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {}: {{\"title\": {}, \"headers\": [",
                json_str(slug),
                json_str(t.title()),
            );
            write_json_strs(&mut s, t.headers());
            s.push_str("], \"rows\": [");
            for (j, r) in t.rows().iter().enumerate() {
                s.push_str(if j == 0 { "[" } else { ", [" });
                write_json_strs(&mut s, r);
                s.push(']');
            }
            s.push_str("]}");
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Writes `results/bench/<name>.json`, regenerates the aggregate
    /// `results/bench/BENCH_report.json` over every per-bench file
    /// present, and writes the telemetry side file when there is any.
    /// Report I/O failure is reported but never fails the bench itself
    /// (CI sandboxes may be read-only).
    pub fn finish(self) {
        let json = self.render_json();
        if let Err(e) = self.write_reports(&json) {
            eprintln!("bench report not written: {e}");
        }
        if !self.telemetry.is_empty() {
            let mut side = format!(
                "{{\n  \"bench\": {},\n  \"seed\": {},\n  \"telemetry\": ",
                json_str(&self.name),
                self.seed
            );
            write_json_map(&mut side, &self.telemetry);
            side.push_str("\n}\n");
            let path = self.telemetry_dir.join(format!("{}.json", self.name));
            let written = std::fs::create_dir_all(&self.telemetry_dir)
                .and_then(|()| std::fs::write(path, side));
            if let Err(e) = written {
                eprintln!("bench telemetry not written: {e}");
            }
        }
    }

    fn write_reports(&self, json: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        std::fs::write(self.out_dir.join(format!("{}.json", self.name)), json)?;

        // Aggregate: every per-bench object, keyed by file stem, in
        // sorted order — deterministic no matter which bench ran last.
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        for entry in std::fs::read_dir(&self.out_dir)? {
            let path = entry?.path();
            let (Some(stem), Some(ext)) = (
                path.file_stem().and_then(|s| s.to_str()),
                path.extension().and_then(|s| s.to_str()),
            ) else {
                continue;
            };
            if ext != "json" || stem == "BENCH_report" {
                continue;
            }
            entries.insert(stem.to_string(), std::fs::read_to_string(&path)?);
        }
        let mut agg = String::from("{\n  \"benches\": {");
        for (k, (stem, body)) in entries.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            // Indent the embedded object to keep the aggregate readable.
            let indented = body.trim_end().replace('\n', "\n    ");
            let _ = write!(agg, "{sep}\n    {}: {indented}", json_str(stem));
        }
        agg.push_str("\n  }\n}\n");
        std::fs::write(self.out_dir.join("BENCH_report.json"), agg)
    }
}

/// Appends `map` as a JSON object, one `"key": value` per line.
fn write_json_map(s: &mut String, map: &BTreeMap<String, f64>) {
    s.push('{');
    for (k, (key, v)) in map.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n    {}: {}", json_str(key), json_f64(*v));
    }
    s.push_str("\n  }");
}

/// Appends `items` as comma-separated JSON strings.
fn write_json_strs(s: &mut String, items: &[String]) {
    for (k, item) in items.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{}", json_str(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shelf_items_draw_order_is_stable() {
        let scene = Scene::warehouse(20.0, 16.0, 3);
        let flat = shelf_items(&scene, 10, 42, None);
        let deep = shelf_items(&scene, 10, 42, Some(Meters::new(0.5)));
        // Same seed, same spots/x-scatter; only y differs (extra draw).
        assert_eq!(flat.tags().len(), 10);
        assert_eq!(deep.tags().len(), 10);
        let again = shelf_items(&scene, 10, 42, None);
        let pos_a: Vec<_> = flat.tags().iter().map(|t| t.position()).collect();
        let pos_b: Vec<_> = again.tags().iter().map(|t| t.position()).collect();
        assert_eq!(pos_a, pos_b, "placement must be a pure function of seed");
    }

    #[test]
    fn report_json_and_aggregate_round_trip() {
        let dir = std::env::temp_dir().join(format!("rfly-bench-harness-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = Bench::new("unit_test_bench", 7);
        b.out_dir = dir.clone();
        b.telemetry_dir = dir.join("telemetry");
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".to_string(), "x,y".to_string()]);
        b.tables.push(("main".to_string(), t));
        b.metric("cells", 2.5);
        b.telemetry("wall_s", 0.125);
        let json = b.render_json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"unit_test_bench\",\n  \"seed\": 7,\n  \"metrics\": {\n    \
             \"cells\": 2.5\n  },\n  \"tables\": {\n    \"main\": {\"title\": \"t\", \
             \"headers\": [\"a\", \"b\"], \"rows\": [[\"1\", \"x,y\"]]}\n  }\n}\n"
        );
        b.finish();
        let agg = std::fs::read_to_string(dir.join("BENCH_report.json")).unwrap();
        assert!(agg.contains("\"unit_test_bench\""));
        assert!(agg.contains("\"cells\": 2.5"));
        assert!(!agg.contains("wall_s"), "telemetry stays out of the report");
        let side = std::fs::read_to_string(dir.join("telemetry/unit_test_bench.json")).unwrap();
        assert!(side.contains("\"wall_s\": 0.125"), "{side}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let mut xs = [7.0, 1.0, 3.0, 5.0, 9.0];
        assert_eq!(quartiles(&mut xs), (3.0, 5.0, 7.0));
        let mut ys = [4.0, 1.0, 2.0, 3.0];
        assert_eq!(quartiles(&mut ys), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&mut [2.0]), (2.0, 2.0, 2.0));
    }
}

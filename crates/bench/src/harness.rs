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

use std::collections::BTreeMap;
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
    out_dir: PathBuf,
}

impl Bench {
    /// A harness for the binary `name` seeded explicitly.
    pub fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            tables: Vec::new(),
            metrics: BTreeMap::new(),
            out_dir: PathBuf::from("results/bench"),
        }
    }

    /// A harness seeded from `argv[1]` (falling back to `default_seed`)
    /// — the `seed_from_args` pattern every sweep binary used inline.
    pub fn from_args(name: &str, default_seed: u64) -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::new(name, seed_from_args(&args, default_seed))
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

    /// Records a headline metric (a gate value, a speedup, a rate) for
    /// the JSON report.
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// The per-bench report as a JSON object.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"bench\": {},\n", json_str(&self.name)));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"metrics\": {");
        let mut first = true;
        for (k, v) in &self.metrics {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    {}: {}", json_str(k), json_f64(*v)));
        }
        s.push_str("\n  },\n");
        s.push_str("  \"tables\": {");
        first = true;
        for (slug, t) in &self.tables {
            if !first {
                s.push(',');
            }
            first = false;
            let headers: Vec<String> = t.headers().iter().map(|h| json_str(h)).collect();
            let rows: Vec<String> = t
                .rows()
                .iter()
                .map(|r| {
                    let cells: Vec<String> = r.iter().map(|c| json_str(c)).collect();
                    format!("[{}]", cells.join(", "))
                })
                .collect();
            s.push_str(&format!(
                "\n    {}: {{\"title\": {}, \"headers\": [{}], \"rows\": [{}]}}",
                json_str(slug),
                json_str(t.title()),
                headers.join(", "),
                rows.join(", "),
            ));
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Writes `results/bench/<name>.json` and regenerates the aggregate
    /// `results/bench/BENCH_report.json` over every per-bench file
    /// present. Report I/O failure is reported but never fails the
    /// bench itself (CI sandboxes may be read-only).
    pub fn finish(self) {
        let json = self.render_json();
        if let Err(e) = self.write_reports(&json) {
            eprintln!("bench report not written: {e}");
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
        let mut first = true;
        for (stem, body) in &entries {
            if !first {
                agg.push(',');
            }
            first = false;
            // Indent the embedded object to keep the aggregate readable.
            let indented = body.trim_end().replace('\n', "\n    ");
            agg.push_str(&format!("\n    {}: {}", json_str(stem), indented));
        }
        agg.push_str("\n  }\n}\n");
        std::fs::write(self.out_dir.join("BENCH_report.json"), agg)
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
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".to_string(), "x,y".to_string()]);
        b.tables.push(("main".to_string(), t));
        b.metric("speedup", 2.5);
        let json = b.render_json();
        assert!(json.contains("\"bench\": \"unit_test_bench\""));
        assert!(json.contains("\"speedup\": 2.5"));
        assert!(json.contains("\"rows\": [[\"1\", \"x,y\"]]"));
        b.finish();
        let agg = std::fs::read_to_string(dir.join("BENCH_report.json")).unwrap();
        assert!(agg.contains("\"unit_test_bench\""));
        assert!(agg.contains("\"speedup\": 2.5"));
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

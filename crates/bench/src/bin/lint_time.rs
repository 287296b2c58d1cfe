//! Extension — rfly-lint wall-time budget: the analyzer (parse →
//! workspace index → whole-program rules) must stay cheap enough to
//! gate every CI run.
//!
//! Times `TRIALS` full-workspace passes, records the median and the
//! quartiles as telemetry (`target/bench-telemetry/lint_time.json`, not
//! the committed report), and fails when the median exceeds its budget. The budget is a deliberately loose
//! multiple of the measured time (~0.15 s in release on a 2-vCPU VM):
//! it catches an accidental O(n²) in the call-graph BFS, not normal
//! machine-to-machine jitter.
//!
//! Run with: `cargo run --release --bin lint_time`

#![allow(
    clippy::disallowed_types,
    reason = "wall-clock timing is the measurement"
)]

use std::path::Path;
use std::time::Instant;

use rfly_bench::prelude::*;

/// Budget for the median full-workspace pass, seconds.
const BUDGET_S: f64 = 10.0;
const TRIALS: usize = 7;

fn main() {
    let mut bench = Bench::from_args("lint_time", 42);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();

    let mut samples = Vec::with_capacity(TRIALS);
    let mut files = 0usize;
    let mut fns = 0usize;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let run = rfly_lint::lint_workspace(&root).expect("lint workspace");
        samples.push(t0.elapsed().as_secs_f64());
        files = run.files;
        fns = run.fns_indexed;
        // A dirty tree would make the timing meaningless.
        assert!(
            run.findings.is_empty(),
            "workspace must lint clean before timing"
        );
    }
    let (q1, median, q3) = verdict(&mut samples, BUDGET_S).unwrap_or_else(|e| panic!("{e}"));

    let mut t = Table::new(
        "rfly-lint wall-time gate (full workspace)",
        &["runs", "budget s", "files", "fns"],
    );
    t.row(&[
        TRIALS.to_string(),
        format!("{BUDGET_S:.1}"),
        files.to_string(),
        fns.to_string(),
    ]);
    bench.table("main", t, false);

    bench.telemetry("median_s", median);
    bench.telemetry("q1_s", q1);
    bench.telemetry("q3_s", q3);
    bench.metric("budget_s", BUDGET_S);
    bench.metric("files", files as f64);
    bench.metric("fns_indexed", fns as f64);

    println!(
        "lint time gate passed (median {median:.3}s, IQR {q1:.3}-{q3:.3}s over {TRIALS} runs)"
    );
    bench.finish();
}

/// The gate: the samples' quartiles `(q1, median, q3)` when the median
/// pass fits `budget_s`, else the failure message.
fn verdict(samples: &mut [f64], budget_s: f64) -> Result<(f64, f64, f64), String> {
    let (q1, median, q3) = quartiles(samples);
    if median <= budget_s {
        Ok((q1, median, q3))
    } else {
        Err(format!(
            "median lint pass {median:.3}s blew its {budget_s:.1}s budget \
             (IQR {q1:.3}-{q3:.3}s)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_budget_samples_pass_with_their_quartiles() {
        let mut samples = [0.19, 0.17, 0.18, 0.21, 0.16, 0.18, 0.20];
        let (q1, median, q3) = verdict(&mut samples, BUDGET_S).expect("in budget");
        assert!(q1 <= median && median <= q3);
        assert_eq!(median, 0.18);
    }

    #[test]
    fn planted_over_budget_median_fails() {
        // Four of seven passes over budget: the median is over too.
        let mut samples = [0.2, 0.2, 0.2, 10.5, 11.0, 12.0, 13.0];
        let err = verdict(&mut samples, BUDGET_S).expect_err("over budget");
        assert!(err.contains("10.500s blew its 10.0s budget"), "{err}");
        // One slow outlier does not move the median over.
        let mut samples = [0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 60.0];
        assert!(verdict(&mut samples, BUDGET_S).is_ok());
    }
}

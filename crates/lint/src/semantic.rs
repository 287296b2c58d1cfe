//! Whole-program rule assembly — the final stage of the v2 analyzer.
//!
//! [`crate::fnpass`] produces per-function summaries; [`crate::index`]
//! links them for name resolution. This module turns the linked
//! picture into findings:
//!
//! * **R11 `determinism-taint`** — a nondeterministic value (wall-clock
//!   reading, unordered-container iteration result, NaN-unsafe compare,
//!   channel arrival order) flowing into a replay-critical sink: journal
//!   writes, `Bench` metrics, report rendering, checkpoint text. Local
//!   taints come straight from the function pass; call-derived taints
//!   use the index's `det_return_closure` fixpoint, so
//!   `bench.metric("t", stamp())` is caught even when `stamp()` hides
//!   its `Instant::now()` two calls deep.
//!
//! R3, R10 and R12 are intra-procedural and emitted by `fnpass`
//! directly; everything lands in the same allow gate afterwards.

use crate::index::WorkspaceIndex;
use crate::rules::Finding;

/// Emits the whole-program findings (inter-procedural R11) for a
/// fully-built index. Findings are pre-allow: the caller routes them
/// through the same per-file allow filtering as the per-fn findings.
pub fn whole_program_findings(idx: &WorkspaceIndex) -> Vec<Finding> {
    let mut findings = Vec::new();

    // R11: determinism taint reaching replay-critical sinks.
    let det = idx.det_return_closure();
    for (id, f) in idx.fns.iter().enumerate() {
        for s in &f.sink_sites {
            let mut reasons: Vec<String> = s.local_taints.clone();
            for c in &s.call_args {
                if let Some(callee) = idx.resolve(c, id) {
                    if det[callee] {
                        reasons.push(format!("value returned by `{}`", idx.fns[callee].qual));
                    }
                }
            }
            reasons.sort();
            reasons.dedup();
            if !reasons.is_empty() {
                findings.push(Finding {
                    rule: "determinism-taint",
                    file: f.file.clone(),
                    line: s.line,
                    message: format!(
                        "nondeterministic value flows into {}: {} — replay and CI diffing \
                         need byte-identical output",
                        s.sink,
                        reasons.join(", ")
                    ),
                    line_text: s.text.clone(),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnpass::analyze_file;
    use crate::parser::parse_file;

    /// Full three-stage run over synthetic files.
    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut summaries = Vec::new();
        for (path, src) in files {
            let ast = parse_file(src);
            summaries.extend(analyze_file(path, src, &ast).summaries);
        }
        let idx = WorkspaceIndex::build(summaries);
        whole_program_findings(&idx)
    }

    #[test]
    fn wallclock_metric_is_reported_locally() {
        let findings = run(&[(
            "crates/bench/src/harness.rs",
            "pub fn run(bench: &mut Bench) {\n\
                 let t0 = Instant::now();\n\
                 let dt = t0.elapsed().as_secs_f64();\n\
                 bench.metric(\"wall_s\", dt);\n\
             }\n",
        )]);
        let r11: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "determinism-taint")
            .collect();
        assert_eq!(r11.len(), 1, "{findings:?}");
        assert!(r11[0].message.contains("wall-clock"), "{}", r11[0].message);
    }

    #[test]
    fn taint_through_a_returning_call_is_reported() {
        let findings = run(&[(
            "crates/bench/src/harness.rs",
            "fn stamp() -> f64 {\n\
                 Instant::now().elapsed().as_secs_f64()\n\
             }\n\
             pub fn run(bench: &mut Bench) {\n\
                 bench.metric(\"wall_s\", stamp());\n\
             }\n",
        )]);
        let r11: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "determinism-taint")
            .collect();
        assert_eq!(r11.len(), 1, "{findings:?}");
        assert!(
            r11[0].message.contains("stamp"),
            "message should name the tainted callee: {}",
            r11[0].message
        );
    }

    #[test]
    fn clean_metric_produces_no_findings() {
        let findings = run(&[(
            "crates/bench/src/harness.rs",
            "pub fn run(bench: &mut Bench, samples: &[f64]) {\n\
                 let total: f64 = samples.iter().sum();\n\
                 bench.metric(\"total\", total);\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}

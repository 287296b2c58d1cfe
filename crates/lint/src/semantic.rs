//! Whole-program rule assembly — the final stage of the v2 analyzer.
//!
//! [`crate::fnpass`] produces per-function summaries; [`crate::index`]
//! links them into a call graph. This module turns the linked picture
//! into findings:
//!
//! * **R9 `transitive-panic`** — a `panic!`/`unwrap()`/`expect()` in any
//!   function reachable from the public API of a supervised crate
//!   ([`crate::index::ENTRY_CRATES`]). Clippy's R1 levels already keep
//!   the entry crates locally free of `unwrap`/`expect`; R9 extends the
//!   guarantee through everything they call, across crate boundaries. Direct
//!   slice/array indexing in a public entry function is reported as an
//!   advisory [`Severity::Warning`] (bounds are usually provable there,
//!   but the panic edge exists).
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

use crate::index::{PanicKind, WorkspaceIndex};
use crate::rules::{Finding, Severity};

/// Emits the whole-program findings (R9, inter-procedural R11) for a
/// fully-built index. Findings are pre-allow: the caller routes them
/// through the same per-file allow filtering as the per-fn findings.
pub fn whole_program_findings(idx: &WorkspaceIndex) -> Vec<Finding> {
    let mut findings = Vec::new();

    // R9: hard panics reachable from public entry APIs.
    for r in idx.transitive_panics() {
        let target = &idx.fns[*r.path.last().expect("path is never empty")];
        let entry = &idx.fns[r.entry];
        findings.push(Finding {
            rule: "transitive-panic",
            file: target.file.clone(),
            line: r.site.line,
            message: format!(
                "`{}()` here is reachable from public `{}` ({}) — return an error instead",
                r.site.what,
                entry.qual,
                idx.render_path(&r.path),
            ),
            severity: Severity::Error,
            line_text: r.site.text.clone(),
        });
    }

    // R9 advisory: direct indexing in a public entry-crate fn. Slice
    // indexing with locally-proven bounds is idiomatic all over the DSP
    // and supervisor code, so this aggregates to one advisory per
    // function (anchored at the first site) instead of one per site —
    // it is a nudge toward get()/chunked APIs, not a gate.
    for f in idx.entry_fns() {
        let sites: Vec<_> = f
            .panics
            .iter()
            .filter(|p| p.kind == PanicKind::Index)
            .collect();
        if let Some(first) = sites.first() {
            findings.push(Finding {
                rule: "transitive-panic",
                file: f.file.clone(),
                line: first.line,
                message: format!(
                    "public `{}` has {} direct indexing site(s) that can panic out-of-bounds",
                    f.qual,
                    sites.len()
                ),
                severity: Severity::Warning,
                line_text: first.text.clone(),
            });
        }
    }

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
                    severity: Severity::Error,
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
    fn cross_crate_unwrap_is_reported_at_the_panic_site() {
        let findings = run(&[
            (
                "crates/core/src/lib.rs",
                "pub fn api(x: Option<u32>) -> u32 {\n\
                     deep_helper(x)\n\
                 }\n",
            ),
            (
                "crates/dsp/src/lib.rs",
                "pub fn deep_helper(x: Option<u32>) -> u32 {\n\
                     x.unwrap()\n\
                 }\n",
            ),
        ]);
        let r9: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "transitive-panic" && f.severity == Severity::Error)
            .collect();
        assert_eq!(r9.len(), 1, "{findings:?}");
        assert_eq!(r9[0].file, "crates/dsp/src/lib.rs");
        assert_eq!(r9[0].line, 2);
        assert!(r9[0].message.contains("core::api"), "{}", r9[0].message);
    }

    #[test]
    fn panic_in_unreachable_private_fn_is_not_reported() {
        let findings = run(&[(
            "crates/dsp/src/lib.rs",
            "fn orphan(x: Option<u32>) -> u32 {\n\
                 x.unwrap()\n\
             }\n",
        )]);
        assert!(
            findings
                .iter()
                .all(|f| f.rule != "transitive-panic" || f.severity != Severity::Error),
            "{findings:?}"
        );
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

    #[test]
    fn indexing_in_public_entry_fn_is_an_advisory_warning() {
        let findings = run(&[(
            "crates/core/src/lib.rs",
            "pub fn head(xs: &[f64]) -> f64 {\n\
                 xs[0]\n\
             }\n",
        )]);
        let warns: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "transitive-panic" && f.severity == Severity::Warning)
            .collect();
        assert_eq!(warns.len(), 1, "{findings:?}");
    }
}

//! `rfly-lint` — the workspace's offline semantic analysis pass.
//!
//! The failure modes that silently corrupt an RF reproduction are not
//! crashes but invariant violations: a dB ratio added to a dBm power, a
//! spawn closure mutating captured state, a wall-clock value in a
//! journal. Token-level invariants (no `unwrap`/`expect`/`panic!`, no
//! truncating casts, no `HashMap`, no `println!`, ...) are rustc and
//! clippy lints configured in the workspace manifest, the crate roots
//! and `clippy.toml`. This crate checks what clippy cannot: a small
//! hand-rolled Rust parser (zero external dependencies, no rustc
//! plugin) feeds a per-function dataflow pass and a workspace
//! name-resolution index, and every finding carries
//! a `file:line` span, a stable rule ID, and an allowlist escape hatch
//! that *requires* a written justification:
//!
//! ```text
//! // rfly-lint: allow(unit-dataflow) -- freqs is a raw f64 bin axis by design.
//! ```
//!
//! See DESIGN.md §8 for the rule catalog and §13 for the pipeline.

#![allow(
    clippy::disallowed_types,
    reason = "a lint pass's own maps never reach simulated output"
)]

pub mod ast;
pub mod fnpass;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Finding, RULES};

/// Directories never scanned: build output, VCS metadata, and the
/// intentionally-violating lint fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// Collects every workspace `.rs` file under `root`, skipping build
/// output and the lint crate's own fixture tree (those files violate
/// rules on purpose).
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                if path.ends_with("crates/lint/tests/fixtures") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// One workspace lint run.
#[derive(Debug)]
pub struct LintRun {
    /// Every finding after the allow gate, sorted by file, line, rule.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Functions indexed for the whole-program passes.
    pub fns_indexed: usize,
}

/// Lints one file on its own: the per-file rules (R3, R10, R12) and
/// the allow gate. The whole-program rules need [`lint_workspace`].
/// `path` must be workspace-relative; it decides test-like scoping.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let fa = fnpass::analyze_file(path, src, &parser::parse_file(src));
    rules::apply_allows(path, src, fa.findings)
}

/// Lints every workspace file under `root`, returning findings with
/// workspace-relative paths:
///
/// 1. per file: parse → function pass (summaries + R3/R10/R12);
/// 2. link all summaries into the [`index::WorkspaceIndex`];
/// 3. the whole-program pass (R11 taint closure);
/// 4. per file: apply allow directives to the merged finding set.
pub fn lint_workspace(root: &Path) -> io::Result<LintRun> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in collect_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&file)?));
    }

    // Stage 1: per-file parse and function pass.
    let mut summaries = Vec::new();
    let mut per_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for (rel, src) in &sources {
        let fa = fnpass::analyze_file(rel, src, &parser::parse_file(src));
        summaries.extend(fa.summaries);
        per_file.insert(rel.clone(), fa.findings);
    }

    // Stages 2–3: link and run the whole-program rules.
    let idx = index::WorkspaceIndex::build(summaries);
    for f in semantic::whole_program_findings(&idx) {
        per_file.entry(f.file.clone()).or_default().push(f);
    }

    // Stage 4: one allow gate per file, then a stable global order.
    let mut findings = Vec::new();
    for (rel, src) in &sources {
        let pre = per_file.remove(rel).unwrap_or_default();
        findings.extend(rules::apply_allows(rel, src, pre));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintRun {
        findings,
        files: sources.len(),
        fns_indexed: idx.fns.len(),
    })
}

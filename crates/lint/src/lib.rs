//! `rfly-lint` — the workspace's one check that clippy cannot make.
//!
//! The paper's equations mix frequencies, gains and distances in one
//! expression, so every public API keeps its units in types. Token-level
//! invariants (no `unwrap`/`expect`/`panic!`, no truncating casts, no
//! `HashMap`, no `println!`, ...) are rustc and clippy lints configured
//! in the workspace manifest, the crate roots and `clippy.toml`. This
//! crate adds the naming rule clippy has no lint for: R3
//! `unit-newtypes`, a token check over a small hand-rolled lexer (no
//! rustc plugin). Every finding carries a `file:line` span, a stable
//! rule ID, and an allowlist escape hatch that *requires* a written
//! justification:
//!
//! ```text
//! // rfly-lint: allow(unit-newtypes) -- a raw-f64 seam kept on purpose.
//! ```
//!
//! See DESIGN.md §8 for the rule catalog and §13 for the pipeline.

pub mod lexer;
pub mod rules;
pub mod unit_newtypes;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Finding, RULES};

/// Directories never scanned: build output, VCS metadata, and the
/// committed results.
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
}

/// Lints one file: lex, then R3, then the allow gate. `path` must be
/// workspace-relative; it decides test-like scoping.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let findings = unit_newtypes::check(path, &lexed.tokens);
    rules::apply_allows(path, src, &lexed.comments, findings)
}

/// Lints every workspace file under `root`, returning findings with
/// workspace-relative paths.
pub fn lint_workspace(root: &Path) -> io::Result<LintRun> {
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &fs::read_to_string(file)?));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintRun {
        findings,
        files: files.len(),
    })
}

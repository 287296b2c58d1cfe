//! R3 `unit-newtypes`, the one workspace invariant clippy has no lint
//! for (DESIGN.md §8): a unit-suffixed parameter of a public fn
//! (`freq_hz`, `gain_db`, `range_m`, ...) takes the `rfly_dsp::units`
//! newtype, not raw `f64`. The paper's equations mix frequencies, gains
//! and distances in one expression, so every public API keeps its units
//! in types. A raw-`f64` seam is excused by renaming the parameter.
//!
//! [`lexer`] is a small hand-rolled Rust lexer and [`r3`] the token
//! check over its stream. The tests here run R3 over the workspace and
//! over the planted `tests/fixtures/r3/{violating,conforming}` pair, and
//! keep the clippy gate's planted packages (`tests/fixtures/clippy/`,
//! built by `scripts/ci.sh`) on the workspace's lint levels.

mod lexer;
mod r3;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use r3::Finding;

/// Directories never scanned: build output, VCS metadata, and the
/// committed results.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// Every `.rs` file under `root`, sorted, skipping build output.
fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// R3 findings for one file; `path` is workspace-relative and decides
/// test-like scoping.
fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    r3::check(path, &lexer::lex(src))
}

/// R3 findings for every file under `root`, with root-relative paths,
/// sorted by file and line.
fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in collect_files(root)? {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let rel = rel.to_string_lossy().replace('\\', "/");
        findings.extend(lint_source(&rel, &fs::read_to_string(&file)?));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Findings one per line, as `file:line: [unit-newtypes] message`.
fn render(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

fn workspace() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let p = workspace().join(rel);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

#[test]
fn workspace_has_no_r3_findings() {
    let findings = lint_tree(workspace()).expect("walk the workspace");
    assert!(
        findings.is_empty(),
        "{} R3 finding(s):\n{}",
        findings.len(),
        render(&findings)
    );
}

#[test]
fn planted_tree_fails_on_r3_alone_and_its_twin_is_clean() {
    let tree = workspace().join("tests/fixtures/r3");
    let planted = lint_tree(&tree.join("violating")).expect("lint planted tree");
    assert_eq!(
        render(&planted),
        "crates/tag/src/lib.rs:5: [unit-newtypes] \
         parameter `freq_hz` takes raw f64 — use rfly_dsp::units::Hertz\n"
    );
    let twin = lint_tree(&tree.join("conforming")).expect("lint conforming tree");
    assert!(twin.is_empty(), "{}", render(&twin));
}

#[test]
fn r3_scopes_the_planted_file_by_path() {
    let lines = |path: &str, which: &str| -> Vec<u32> {
        let src = read(&format!("tests/fixtures/r3/{which}/crates/tag/src/lib.rs"));
        lint_source(path, &src).iter().map(|f| f.line).collect()
    };
    assert_eq!(lines("crates/tag/src/lib.rs", "violating"), [5]);
    assert!(lines("crates/tag/src/lib.rs", "conforming").is_empty());
    // Integration tests, benches, examples and fixtures are out of scope.
    for path in [
        "crates/tag/tests/fixture.rs",
        "crates/tag/benches/fixture.rs",
        "examples/fixture.rs",
        "tests/fixtures/r3/violating/crates/tag/src/lib.rs",
    ] {
        assert!(lines(path, "violating").is_empty(), "{path}");
    }
}

#[test]
fn an_escaped_quote_in_a_byte_string_does_not_hide_the_rest_of_the_file() {
    let findings = lint_source(
        "crates/tag/src/lib.rs",
        "const A: &[u8] = b\"\\\"\";\npub fn tune(freq_hz: f64) {}\n",
    );
    assert_eq!(
        render(&findings),
        "crates/tag/src/lib.rs:2: [unit-newtypes] \
         parameter `freq_hz` takes raw f64 — use rfly_dsp::units::Hertz\n"
    );
}

/// The `[name]` table body: every line after the header up to the
/// next table.
fn table<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
    toml.lines()
        .skip_while(|l| l.trim() != format!("[{name}]"))
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn clippy_fixtures_carry_the_workspace_lint_levels() {
    // The planted packages are not workspace members, so they restate
    // the root manifest's lint tables; a drift would let the clippy
    // gate's control pass against stale levels.
    let root = read("Cargo.toml");
    for which in ["violating", "conforming"] {
        let pkg = read(&format!("tests/fixtures/clippy/{which}/Cargo.toml"));
        for tool in ["rust", "clippy"] {
            let want = table(&root, &format!("workspace.lints.{tool}"));
            assert!(
                !want.is_empty(),
                "root manifest lost [workspace.lints.{tool}]"
            );
            assert_eq!(
                table(&pkg, &format!("lints.{tool}")),
                want,
                "{which}: lints.{tool}"
            );
        }
    }
}

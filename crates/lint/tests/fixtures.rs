//! Fixture-backed tests for R3 and the allowlist (justification and
//! expiry), plus the guard that keeps the clippy gate's planted packages
//! on the workspace's lint levels. `scripts/ci.sh` runs the CLI over the
//! same planted `tree/` pair and asserts the exit codes (1 for
//! `violating`, 0 for `conforming`).

use std::fs;
use std::path::Path;

use rfly_lint::{lint_source, lint_workspace};

fn read(rel: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Rule slugs reported when `rel` is linted as if it lived at
/// `synthetic_path` in the workspace.
fn rules_hit(synthetic_path: &str, rel: &str) -> Vec<&'static str> {
    lint_source(synthetic_path, &read(&format!("tests/fixtures/{rel}")))
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

const VIOLATING: &str = "tree/violating/crates/tag/src/lib.rs";
const CONFORMING: &str = "tree/conforming/crates/tag/src/lib.rs";

#[test]
fn r3_unit_newtypes() {
    assert_eq!(
        rules_hit("crates/tag/src/lib.rs", VIOLATING),
        ["unit-newtypes"]
    );
    assert!(rules_hit("crates/tag/src/lib.rs", CONFORMING).is_empty());
    // Integration tests, benches and examples are out of scope.
    assert!(rules_hit("crates/tag/tests/fixture.rs", VIOLATING).is_empty());
    assert!(rules_hit("examples/fixture.rs", VIOLATING).is_empty());
}

#[test]
fn planted_tree_fails_on_r3_alone_and_its_twin_is_clean() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree");
    let planted = lint_workspace(&tree.join("violating")).expect("lint planted tree");
    let hits: Vec<(&str, &str, u32)> = planted
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(hits, [("unit-newtypes", "crates/tag/src/lib.rs", 5)]);
    let twin = lint_workspace(&tree.join("conforming")).expect("lint conforming tree");
    assert!(twin.findings.is_empty(), "{:?}", twin.findings);
}

#[test]
fn justified_allow_suppresses() {
    assert!(rules_hit("crates/core/src/fixture.rs", "allowlist/justified.rs").is_empty());
}

#[test]
fn unjustified_allow_is_flagged() {
    let hit = rules_hit("crates/core/src/fixture.rs", "allowlist/unjustified.rs");
    assert!(hit.contains(&"allow-justification"), "{hit:?}");
}

#[test]
fn stale_allow_expires() {
    // Once the violation under an allow is gone, the allow itself
    // becomes a finding — allowlist entries age out, never accrete.
    let hit = rules_hit("crates/core/src/fixture.rs", "allowlist/stale.rs");
    assert!(hit.contains(&"stale-allow"), "{hit:?}");
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
    let root = read("../../Cargo.toml");
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

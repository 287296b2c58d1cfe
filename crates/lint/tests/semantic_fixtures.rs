//! Full-pipeline tests for the semantic rules R10–R12: the planted
//! mini-workspace under `fixtures/semantic/violating` must produce
//! exactly the planted rule hits, and the `conforming` twin tree must
//! come back clean. `scripts/ci.sh` runs the CLI over the same trees
//! and asserts the exit codes (1 for planted, 0 for conforming).

use std::collections::BTreeSet;
use std::path::PathBuf;

use rfly_lint::lint_workspace;

fn tree(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/semantic")
        .join(which)
}

#[test]
fn violating_tree_trips_every_semantic_rule() {
    let findings = lint_workspace(&tree("violating"))
        .expect("lint fixture tree")
        .findings;
    let rules: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        BTreeSet::from(["unit-dataflow", "determinism-taint", "parallel-safety"]),
        "{findings:?}"
    );
}

#[test]
fn conforming_tree_is_clean() {
    let findings = lint_workspace(&tree("conforming"))
        .expect("lint fixture tree")
        .findings;
    assert!(findings.is_empty(), "{findings:?}");
}

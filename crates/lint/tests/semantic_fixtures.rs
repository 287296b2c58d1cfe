//! Full-pipeline tests for the semantic rules R9–R12: each planted
//! mini-workspace under `fixtures/semantic/violating` must produce
//! exactly the planted rule hits, and the `conforming` twin tree must
//! come back clean. `scripts/ci.sh` runs the CLI over the same trees
//! and asserts the exit codes (1 for planted, 0 for conforming).

use std::collections::BTreeSet;
use std::path::PathBuf;

use rfly_lint::{lint_workspace, Severity};

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
    let errors: BTreeSet<&str> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| f.rule)
        .collect();
    for rule in [
        "transitive-panic",
        "unit-dataflow",
        "determinism-taint",
        "parallel-safety",
    ] {
        assert!(errors.contains(rule), "missing {rule}: {findings:?}");
    }
}

#[test]
fn violating_tree_anchors_r9_at_the_panic_site() {
    let findings = lint_workspace(&tree("violating"))
        .expect("lint fixture tree")
        .findings;
    let r9 = findings
        .iter()
        .find(|f| f.rule == "transitive-panic" && f.severity == Severity::Error)
        .expect("planted R9 finding");
    assert_eq!(r9.file, "crates/dsp/src/lib.rs");
    assert!(r9.message.contains("core::mission_step"), "{}", r9.message);
}

#[test]
fn conforming_tree_is_clean() {
    let findings = lint_workspace(&tree("conforming"))
        .expect("lint fixture tree")
        .findings;
    let errors: Vec<_> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "{errors:?}");
}

//! The committed scenario corpus stays green: every file in
//! `scenarios/` parses, validates, compiles, and round-trips through
//! the canonical emitter; every file in `scenarios/invalid/` fails
//! with the diagnostic its header promises.

use std::path::PathBuf;

use rfly_scenario::{compile, emit::emit, generate, load, parse_str, Family};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn corpus_files(sub: &str) -> Vec<PathBuf> {
    let dir = corpus_dir().join(sub);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_has_the_promised_coverage() {
    assert!(
        corpus_files("").len() >= 8,
        "the committed corpus must hold at least 8 scenarios"
    );
    assert_eq!(corpus_files("invalid").len(), 8);
}

#[test]
fn every_corpus_scenario_parses_compiles_and_round_trips() {
    for path in corpus_files("") {
        let spec = load(&path).unwrap_or_else(|e| panic!("{e}"));
        // parse → emit → parse is the identity.
        let back = parse_str(&emit(&spec))
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", path.display()));
        assert_eq!(spec, back, "{} round-trip", path.display());
        // And the spec lowers into flyable mission state.
        let compiled = compile(&spec).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(compiled.n_tags(), spec.n_tags());
        assert!(compiled.tags().len() == spec.n_tags());
    }
}

#[test]
fn every_invalid_fixture_fires_its_diagnostic() {
    let expectations: &[(&str, &str)] = &[
        ("dup_relay_id.toml", "duplicate relay id \"r0\""),
        (
            "overlapping_cells.toml",
            "cell 0 is already assigned to relay \"r0\"",
        ),
        ("tag_out_of_bounds.toml", "outside the 20 x 16 m world"),
        (
            "unknown_world_kind.toml",
            "unknown world kind \"spaceport\"",
        ),
        (
            "belt_with_faults.toml",
            "cannot be combined with conveyor belts",
        ),
        ("missing_reader.toml", "missing [[reader]] section"),
        (
            "ready_below_reserve.toml",
            "`ready_frac` = 0.15 must exceed `reserve_frac` = 0.3",
        ),
        (
            "retired_modulation_key.toml",
            "unknown key `modulation_depth`",
        ),
    ];
    for (file, needle) in expectations {
        let path = corpus_dir().join("invalid").join(file);
        let err = load(&path).expect_err("fixture must be rejected");
        assert!(
            err.message.contains(needle),
            "{file}: expected {needle:?} in {err}"
        );
        // Diagnostics carry the file label and a real line number.
        assert_eq!(err.file, path.display().to_string());
        assert!(err.line > 0, "{file}: diagnostic must carry a line");
    }
}

#[test]
fn invalid_diagnostics_point_at_the_documented_lines() {
    // The fixture headers promise specific lines; hold them to it.
    let lines: &[(&str, usize)] = &[
        ("dup_relay_id.toml", 22),
        ("overlapping_cells.toml", 23),
        ("tag_out_of_bounds.toml", 22),
        ("unknown_world_kind.toml", 9),
        ("belt_with_faults.toml", 31),
        ("ready_below_reserve.toml", 17),
        ("retired_modulation_key.toml", 25),
    ];
    for (file, expect) in lines {
        let err = load(&corpus_dir().join("invalid").join(file)).expect_err("rejected");
        assert_eq!(err.line, *expect, "{file}: {err}");
    }
}

#[test]
fn generated_families_are_deterministic_across_runs() {
    for family in Family::ALL {
        for seed in [1u64, 42, 0xDEAD] {
            let a = generate(family, seed);
            let b = generate(family, seed);
            assert_eq!(a, b);
            // Bit-identical also means byte-identical canonical text.
            assert_eq!(emit(&a), emit(&b));
        }
    }
}

#[test]
fn generated_families_compile_and_round_trip() {
    for family in Family::ALL {
        let spec = generate(family, 5);
        let back = parse_str(&emit(&spec)).expect("generated spec parses");
        assert_eq!(spec, back);
        compile(&spec).unwrap_or_else(|e| panic!("{e}"));
    }
}

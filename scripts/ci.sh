#!/usr/bin/env bash
# The repo's CI gate, runnable locally. Everything is offline: the
# workspace has zero external dependencies by design (see DESIGN.md §2),
# so a fresh checkout needs no network and no vendored registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests =="
# Debug on purpose: debug assertions are on, so the `debug_assert!` that
# a narrow QueryRep/QueryAdjust reaches only powered tags (DESIGN.md
# §10.5) runs under every medium test of the workspace suite. The root
# package's `unit_newtypes` test is R3 (DESIGN.md §8): it lints the
# workspace and the planted tests/fixtures/r3 pair.
cargo test --offline --workspace -q

echo "== medium tests in release (arbitration lanes, DESIGN.md §10.5) =="
# The lane loops vectorise only in optimised code, so the medium's
# differential tests, planted controls and lane property run again in
# release, beside the debug run above that keeps the debug_assert!s.
cargo test --release --offline -p rfly-sim --lib -q medium::

echo "== localization tests in release (SAR: f32 prune, f64 bracket, decision-driven refine; RSSI cell screen; DESIGN.md §4 item 6) =="
# Likewise the SAR screen's two vectorised tiers: the staged f32
# pruning tier and the f64 bracketing tier. Their kernels' error bounds,
# the per-cell bounds of both tiers and their planted controls, the
# staged tier's bit-exactness against a straight f32 sum, the refine's
# map contract on synthetic near-tied fields, the RSSI tie rule, the
# exactness differential against the exhaustive oracles, the
# differential of the pruned screen against the f64 tier alone, and
# the committed work totals of tests/sar_screen.rs run again where the
# screen is vectorised. A name filter of `loc` alone would skip
# loc_exactness, whose test names do not contain it. Its ignored sweep
# (240 seeded trials of both searches against their oracles, with the
# supervisor's scene grid and mirror-symmetric exact ties) runs here.
cargo test --release --offline -p rfly-core -q loc
cargo test --release --offline -p rfly-core -q --test loc_exactness
cargo test --release --offline -p rfly-core -q --test loc_exactness -- --ignored
cargo test --release --offline --test sar_screen

echo "== block FIR property in release (ROADMAP item 11) =="
# FirFilter::filter_block sums several outputs at a time; its property
# (bit-equal to repeated filter_sample over random lengths, splits and
# tap counts) and its planted control run again where the lanes are
# optimised.
cargo test --release --offline -p rfly-dsp -q --test proptest_dsp

echo "== durable suite in release (checkpoint writer, DESIGN.md §14.3) =="
# The mission's checkpoint writer formats only the track and log lines
# a step added. The replay crate's tests (crash consistency, storage
# crash matrix, goldens) run again in optimised code, and the ignored
# sweep checks over 200 more seeds that every checkpoint a stored,
# restored or recovered mission writes equals a cold
# Checkpoint::to_text byte for byte (~3 s in release on 2 vCPUs).
cargo test --release --offline -p rfly-replay -q
cargo test --release --offline -q --test checkpoint_writer -- --ignored

echo "== float writer sweep in release (DESIGN.md §9.1) =="
# Every committed artifact prints its floats through
# rfly_dsp::decimal, whose contract is the bytes of `{}`. Tier-1 checks
# 2x10^5 seeded bit patterns and the edge families; this ignored test
# checks 5x10^7 more patterns and larger families against format!.
cargo test --release --offline -q --test float_text -- --ignored

echo "== clippy (warnings are errors; token invariants, see DESIGN.md §8) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (broken or ambiguous intra-doc links are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== clippy gate fixtures (planted packages; see DESIGN.md §8) =="
# The planted package must FAIL with every lint the token rules were
# handed to named in clippy's output, and its conforming twin must pass
# clean. Both sit outside the workspace and read the root clippy.toml,
# so this guards the lint configuration itself.
gate=tests/fixtures/clippy
out=$(cargo clippy --offline --all-targets --manifest-path $gate/violating/Cargo.toml \
  --target-dir target/clippy-gate --message-format=json -- -D warnings 2>/dev/null) && {
  echo "ERROR: planted clippy violations were not detected" >&2
  exit 1
}
for lint in unsafe_code missing_docs clippy::unwrap_used clippy::expect_used clippy::panic \
    clippy::cast_possible_truncation clippy::cast_sign_loss clippy::cast_possible_wrap \
    clippy::disallowed_types clippy::print_stdout clippy::print_stderr \
    clippy::todo clippy::unimplemented clippy::dbg_macro clippy::format_push_string; do
  grep -q "\"code\":{\"code\":\"$lint\"" <<<"$out" || {
    echo "ERROR: clippy gate fixture did not trip $lint" >&2
    exit 1
  }
done
for ty in std::collections::HashMap std::collections::HashSet std::time::Instant \
    std::time::SystemTime f32; do
  grep -q "use of a disallowed type \`$ty\`" <<<"$out" || {
    echo "ERROR: clippy gate fixture did not flag $ty" >&2
    exit 1
  }
done
cargo clippy --offline --all-targets --manifest-path $gate/conforming/Cargo.toml \
  --target-dir target/clippy-gate -- -D warnings

echo "== fault matrix (3 seeds) =="
# The fault_storm example is self-asserting: it exits non-zero on any
# panic, on supervised read-rate retention < 80%, on an inconsistent
# resilience log, or if the unsupervised baseline fails to lose the
# dead relay's cell.
cargo build --release --offline --example fault_storm
for seed in 42 7 1234; do
  echo "-- fault_storm seed $seed"
  target/release/examples/fault_storm "$seed" >/dev/null
done

echo "== examples (each asserts its own acceptance gates) =="
# The other seven examples exit non-zero on a missed gate; among them,
# fleet_warehouse asserts that scenarios/warehouse_paper.toml lowers to
# its hard-coded mission bit for bit. None writes a file.
examples="drone_selfloc fleet_warehouse frequency_discovery phase_preserving_relay
  quickstart range_extension warehouse_inventory"
for ex in $examples; do
  cargo run --release --offline -q --example "$ex" >/dev/null
done

echo "== obs metric reports (fault_storm, DESIGN.md §10) =="
# The fault matrix runs with an rfly-obs recorder installed; each
# mission must have written its structured metric report.
for seed in 42 7 1234; do
  test -s "results/obs/fault_storm_seed${seed}.txt"
  test -s "results/obs/fault_storm_seed${seed}.json"
done
head -n 4 results/obs/fault_storm_seed42.txt

echo "== scenario corpus (golden metrics; see DESIGN.md §11) =="
# Compiles and flies every file in scenarios/ and compares the outcome
# metrics against the committed golden file. Any drift exits 2 with a
# per-metric diff; bless intended changes with --update locally.
cargo run --release --offline -p rfly-bench --bin scenario_corpus

echo "== benchmark tests + output fingerprints (crates/bench/src/bin/benchmark/README.md) =="
# The benchmark is a package of its own, so its tests run by manifest
# path. One untraced default-seed run then folds every workload's
# simulated output into a fingerprint and exits 2 if any differs from
# the committed value: a hot-path change must stay byte-identical.
cargo test --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml | tail -n 3

echo "== fault injector transparency (exact counters + planted control) =="
# An inactive FaultLayer must leave reads, sim.transactions and the
# world snapshot identical to the bare medium; a layer with one active
# fault must break that equality. Wall-time ratios are telemetry only.
cargo run --release --offline -p rfly-bench --bin ext_fault_overhead | tail -3

echo "== localization exactness (oracle agreement + cell count) =="
# The pruned SAR and RSSI searches must return bit-identical estimates
# to their exhaustive oracles on every trial, and the cells they score
# exactly must equal the committed totals. Speedup is telemetry only.
cargo run --release --offline -p rfly-bench --bin ablation_grid | tail -1

echo "== figure binaries (Figs. 4-14, Eq. 4, ablations, self-localization; exact JSON) =="
# Each binary asserts its own verdicts (e.g. Fig. 13's "RSSI many times
# worse") and exits non-zero on a miss. None writes wall time, so a
# rerun must leave its committed results JSON byte-identical.
figs="fig04_guardband fig06_heatmaps fig09_isolation fig10_phase fig11_readrate
  fig12_loc_cdf fig13_aperture fig14_distance eq4_isolation_range
  ablation_filters ablation_mirror ablation_peak_selection ext_selfloc"
for bin in $figs; do
  cargo run --release --offline -q -p rfly-bench --bin "$bin" >/dev/null
done
git diff --exit-code -- $(for bin in $figs; do echo "results/bench/$bin.json"; done)

echo "== ops model check (exhaustive rotation-supervisor proof) =="
# BFS-enumerates the abstracted dock-rotation state space over a
# ladder of fleet shapes; any stranded cell, dock overflow, retry
# divergence, or deadlock exits non-zero with a counterexample trace.
cargo run --release --offline -p rfly-bench --bin ops_check | tail -3

echo "== ops soak smoke (2 simulated hours, rotation + coverage gates) =="
# The full 24 h soak runs locally via the same binary with no flags;
# CI flies a 2 h slice with the identical coverage-floor, rotation,
# and tags/hour gates.
cargo run --release --offline -p rfly-bench --bin ext_ops_soak -- --hours 2 | tail -2

echo "== soak-and-shrink smoke (3 seeds, bounded steps) =="
# Three seeded random storms through the journaled supervised mission:
# every journal must round-trip byte-for-byte and replay with zero
# divergence; any invariant violation is auto-shrunk to a minimal repro
# under results/repros/. Exits non-zero on any determinism failure.
cargo run --release --offline -p rfly-bench --bin soak -- \
  --seeds 3 --steps 10 --events 12 --out results/repros

echo "== fleet scaling sweep (work-pool determinism; DESIGN.md §15) =="
# Flies the 32/64/128-relay multi-warehouse campaigns (10240 tags/row)
# twice — 1 worker, then full width — and asserts the rows bit-identical.
# The speedup is printed and recorded as telemetry only, in the untracked
# target/bench-telemetry/ext_fleet_scaling.json.
cargo run --release --offline -p rfly-bench --bin ext_fleet_scaling | tail -3

echo "== crash matrix (every storage op x every fault mode; DESIGN.md §14) =="
# Crashes every storage operation of the journaled mission and the
# stored campaign in every fault mode (torn / lost-acked / duplicated /
# clean) over bounded seeds, and requires every crash point to recover
# bit-identical. Exits 2 on any unrecoverable point, 1 if the planted
# truncation bug slips past the matrix. The per-workload point counts
# land in results/bench/crash_matrix.json (uploaded as a CI artifact).
cargo run --release --offline -p rfly-bench --bin crash_matrix

echo "== committed results unchanged (wall time is telemetry; see harness.rs) =="
# Every results file a step above rewrites holds deterministic values
# only (wall time goes to the untracked target/bench-telemetry/), so a
# green run leaves results/ byte-identical to the checkout.
git diff --exit-code -- results/

echo "CI green."

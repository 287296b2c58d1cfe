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
cargo test --offline --workspace -q

echo "== clippy (warnings are errors; token invariants, see DESIGN.md §8) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (broken or ambiguous intra-doc links are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== clippy gate fixtures (planted packages; see DESIGN.md §8) =="
# The planted package must FAIL with every lint the token rules were
# handed to named in clippy's output, and its conforming twin must pass
# clean. Both sit outside the workspace and read the root clippy.toml,
# so this guards the lint configuration itself.
gate=crates/lint/tests/fixtures/clippy
out=$(cargo clippy --offline --all-targets --manifest-path $gate/violating/Cargo.toml \
  --target-dir target/clippy-gate --message-format=json -- -D warnings 2>/dev/null) && {
  echo "ERROR: planted clippy violations were not detected" >&2
  exit 1
}
for lint in unsafe_code missing_docs clippy::unwrap_used clippy::expect_used \
    clippy::cast_possible_truncation clippy::cast_sign_loss clippy::cast_possible_wrap \
    clippy::disallowed_types clippy::print_stdout clippy::print_stderr \
    clippy::todo clippy::unimplemented clippy::dbg_macro; do
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

echo "== rfly-lint (semantic invariants; see DESIGN.md §8 + §13) =="
# Hard gate: any finding not covered by a justified allow fails the
# build. The JSON findings file is uploaded as a CI artifact (see ci.yml).
mkdir -p results/lint
cargo run --release --offline -p rfly-lint -- --workspace --json results/lint/findings.json

echo "== rfly-lint semantic fixtures (planted trees; see DESIGN.md §13) =="
# The planted mini-workspace must FAIL (exit 1) with all four semantic
# rules firing, and its conforming twin must pass clean (exit 0) — this
# guards the analyzer itself against silently going blind.
if cargo run --release --offline -p rfly-lint -- --workspace \
    --root crates/lint/tests/fixtures/semantic/violating >/dev/null; then
  echo "ERROR: planted violations were not detected" >&2
  exit 1
fi
cargo run --release --offline -p rfly-lint -- --workspace \
  --root crates/lint/tests/fixtures/semantic/conforming >/dev/null

echo "== rfly-lint wall-time budget (median of 7 runs) =="
# Times the full pipeline over the workspace; fails if the median pass
# exceeds its BENCH_report budget.
cargo run --release --offline -p rfly-bench --bin lint_time | tail -2

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
# The speedup is printed and recorded in results/bench/BENCH_report.json
# as telemetry only.
cargo run --release --offline -p rfly-bench --bin ext_fleet_scaling | tail -3

echo "== crash matrix (every storage op x every fault mode; DESIGN.md §14) =="
# Crashes every storage operation of the journaled mission and the
# stored campaign in every fault mode (torn / lost-acked / duplicated /
# clean) over bounded seeds, and requires every crash point to recover
# bit-identical. Exits 2 on any unrecoverable point, 1 if the planted
# truncation bug slips past the matrix. The per-workload point counts
# land in results/bench/crash_matrix.json (uploaded as a CI artifact).
cargo run --release --offline -p rfly-bench --bin crash_matrix -- --seeds 2

echo "CI green."

//! Tier-1 differential for the workspace's float writer: for every
//! value tried, `rfly::dsp::decimal::push_f64` must append exactly the
//! bytes `format!("{}", v)` produces, and `Shortest(v)` must display
//! them too.
//!
//! Every committed artifact (journals, checkpoints, campaign logs,
//! repro files, the obs reports and the figure JSONs) prints its floats
//! through that writer, so this is the contract that keeps them
//! byte-identical to the `Display` form they were written in before.
//! The tier-1 tests cover 2×10⁵ seeded random bit patterns and the edge
//! families; the ignored release sweep covers 5×10⁷ more patterns and
//! larger families (`cargo test --release --test float_text --
//! --ignored`).

use std::fmt::Write;

use rfly::dsp::decimal::{push_f64, Shortest};
use rfly::dsp::rng::StdRng;

/// Checks `v`; `ours` and `theirs` are reused buffers.
fn check(v: f64, ours: &mut String, theirs: &mut String) {
    ours.clear();
    theirs.clear();
    push_f64(ours, v);
    let _ = write!(theirs, "{v}");
    assert_eq!(ours, theirs, "bits {:#018x}", v.to_bits());
}

/// Checks `n` seeded random bit patterns: every sign, exponent and
/// mantissa, NaNs and infinities included.
fn random_patterns(seed: u64, n: usize) {
    let (mut ours, mut theirs) = (String::new(), String::new());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        check(f64::from_bits(rng.next_u64()), &mut ours, &mut theirs);
    }
}

/// Checks every exponent (subnormals included) with the mantissas at
/// the edges of its binade, both signs; every power of ten in range ±2
/// ulp; and the integers, quarters and thousandths below `n`.
fn edge_families(n: u32) {
    let (mut ours, mut theirs) = (String::new(), String::new());
    const MANT: u64 = (1 << 52) - 1;
    for exp in 0..=0x7ffu64 {
        for mant in [
            0,
            1,
            2,
            3,
            5,
            1 << 51,
            (1 << 51) - 1,
            (1 << 51) + 1,
            MANT - 1,
            MANT,
        ] {
            for sign in [0, 1u64 << 63] {
                let bits = sign | exp << 52 | mant;
                check(f64::from_bits(bits), &mut ours, &mut theirs);
            }
        }
    }
    for e in -323..=308 {
        let p: f64 = format!("1e{e}").parse().expect("a power of ten");
        for d in -2..=2i64 {
            let bits = p.to_bits().wrapping_add_signed(d);
            check(f64::from_bits(bits), &mut ours, &mut theirs);
        }
    }
    for k in 0..n {
        let k = f64::from(k);
        for v in [k, k / 4.0, k / 1000.0] {
            check(v, &mut ours, &mut theirs);
            check(-v, &mut ours, &mut theirs);
        }
    }
}

#[test]
fn random_bit_patterns_print_as_display() {
    random_patterns(0xF10A7, 200_000);
}

#[test]
fn edge_families_print_as_display() {
    edge_families(20_000);
}

#[test]
fn special_values_print_as_display() {
    let (mut ours, mut theirs) = (String::new(), String::new());
    for v in [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::from_bits(1),
        1e300,
        5e-324,
        // Two shortest candidates equally close: `Display` takes the
        // upper one (…562.3), where the Ryu reference rounds to even.
        f64::from_bits(0x4317_9085_685d_83c9),
    ] {
        check(v, &mut ours, &mut theirs);
        assert_eq!(Shortest(v).to_string(), theirs);
    }
}

/// The long sweep: 5×10⁷ random bit patterns and 2×10⁶ integers,
/// quarters and thousandths (each with its negation). About 20 s in
/// release on one core; `scripts/ci.sh` runs it.
#[test]
#[ignore = "release sweep: cargo test --release --test float_text -- --ignored"]
fn release_sweep_of_fifty_million_random_bit_patterns() {
    random_patterns(0x5EED_F10A7, 50_000_000);
    edge_families(2_000_000);
}

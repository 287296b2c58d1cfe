//! Frequency-conversion mixers.
//!
//! The relay uses two mixers per forwarding path (§6.1): one
//! downconverting the received passband signal to baseband and one
//! upconverting the filtered baseband back to (a different) passband.
//! In this simulation passband signals are themselves represented at
//! complex baseband around a simulation center frequency, so "mixing"
//! is multiplication by a complex LO at the *offset* from that center.
//!
//! A mixer samples its LO from a [`SharedSynth`], which is what makes the
//! mirrored architecture work: the uplink's upconverter and the
//! downlink's downconverter can literally share one synthesizer.

use crate::complex::Complex;
use crate::osc::SharedSynth;

/// Direction of a frequency conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conversion {
    /// Multiply by `e^{+jφ(t)}` — shifts spectrum up by the LO frequency.
    Up,
    /// Multiply by `e^{-jφ(t)}` — shifts spectrum down by the LO frequency.
    Down,
}

/// An ideal (lossless, leak-free) mixer driven by a (possibly shared)
/// synthesizer.
#[derive(Debug, Clone)]
pub struct Mixer {
    lo: SharedSynth,
    direction: Conversion,
}

impl Mixer {
    /// Creates an ideal mixer (no loss, infinite feedthrough isolation).
    pub fn ideal(lo: SharedSynth, direction: Conversion) -> Self {
        Self { lo, direction }
    }

    /// Mixes a block of samples whose first sample corresponds to global
    /// sample index `start`. Using global indices (rather than an
    /// internal counter) keeps independent signal paths time-aligned,
    /// which the mirrored phase cancellation requires.
    pub fn mix_block(&self, input: &[Complex], start: usize) -> Vec<Complex> {
        let mut lo = self.lo.borrow_mut();
        input
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let l = lo.lo_at(start + i);
                let l = match self.direction {
                    Conversion::Up => l,
                    Conversion::Down => l.conj(),
                };
                x * l
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::osc::{share, Nco, Synthesizer};
    use crate::units::Hertz;

    const FS: f64 = 1e6;

    fn tone(freq: Hertz, n: usize) -> Vec<Complex> {
        Nco::new(freq, FS).block(n)
    }

    #[test]
    fn up_then_down_with_same_lo_is_identity() {
        let lo = share(Synthesizer::ideal(Hertz::khz(200.0), FS));
        let up = Mixer::ideal(lo.clone(), Conversion::Up);
        let down = Mixer::ideal(lo, Conversion::Down);
        let x = tone(Hertz::khz(10.0), 256);
        let y = down.mix_block(&up.mix_block(&x, 0), 0);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn downconversion_shifts_tone_to_baseband() {
        let lo = share(Synthesizer::ideal(Hertz::khz(100.0), FS));
        let down = Mixer::ideal(lo, Conversion::Down);
        let x = tone(Hertz::khz(100.0), 128);
        let y = down.mix_block(&x, 0);
        // 100 kHz tone downconverted by 100 kHz LO → DC.
        for s in &y {
            assert!((*s - Complex::new(1.0, 0.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn global_sample_index_keeps_paths_aligned() {
        let lo = share(Synthesizer::ideal(Hertz::khz(100.0), FS));
        let down = Mixer::ideal(lo, Conversion::Down);
        let x = tone(Hertz::khz(100.0), 128);
        // Process the same tone split across two blocks with correct
        // start offsets: result must equal one-shot processing.
        let whole = down.mix_block(&x, 0);
        let mut split = down.mix_block(&x[..50], 0);
        split.extend(down.mix_block(&x[50..], 50));
        for (a, b) in whole.iter().zip(&split) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }
}

//! FCC frequency hopping for the 902–928 MHz ISM band.
//!
//! US regulations require readers to hop across ≥ 50 channels with a
//! dwell ≤ 0.4 s. The paper's §4.2 footnote: "the regulations dictate
//! that the reader hops frequencies every half second according to a
//! prespecified pattern. Once the relay identifies the center frequency
//! at a given point in time, it can lock onto the same hopping pattern."
//! This module provides the channel plan and deterministic
//! pseudo-random hop sequences the relay can track.

use rfly_dsp::rng::SliceRandom;
use rfly_dsp::rng::StdRng;

use rfly_dsp::units::{Hertz, Seconds};

/// Number of FCC hopping channels.
pub const NUM_CHANNELS: usize = 50;

/// Channel spacing.
pub const CHANNEL_SPACING: Hertz = Hertz(500e3);

/// First channel center (channel 0): 902.75 MHz.
pub const FIRST_CHANNEL: Hertz = Hertz(902.75e6);

/// Maximum dwell per channel, seconds.
pub const MAX_DWELL: Seconds = Seconds(0.4);

/// The center frequency of FCC channel `index`.
pub fn channel_frequency(index: usize) -> Hertz {
    assert!(index < NUM_CHANNELS, "channel index out of range");
    FIRST_CHANNEL + CHANNEL_SPACING * index as f64
}

/// A deterministic pseudo-random hopping sequence: a permutation of all
/// 50 channels repeated indefinitely, as FCC part 15.247 requires
/// (each channel used equally on average).
#[derive(Debug, Clone)]
pub struct HopSequence {
    order: Vec<usize>,
    position: usize,
    /// Dwell time per hop.
    pub dwell: Seconds,
}

impl HopSequence {
    /// Creates a sequence from a seed (the "prespecified pattern").
    pub fn new(seed: u64, dwell: Seconds) -> Self {
        assert!(
            dwell.value() > 0.0 && dwell.value() <= MAX_DWELL.value(),
            "illegal dwell"
        );
        let mut order: Vec<usize> = (0..NUM_CHANNELS).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        Self {
            order,
            position: 0,
            dwell,
        }
    }

    /// The current channel frequency.
    pub fn current(&self) -> Hertz {
        channel_frequency(self.order[self.position])
    }

    /// Advances to the next hop and returns its frequency.
    pub fn hop(&mut self) -> Hertz {
        self.position = (self.position + 1) % self.order.len();
        self.current()
    }

    /// The frequency in use at absolute time `t` (assuming hopping
    /// started at t = 0) — what a relay tracking the pattern computes.
    pub fn frequency_at(&self, t: Seconds) -> Hertz {
        assert!(t.value() >= 0.0);
        let hops = (t.value() / self.dwell.value()) as usize;
        let idx = (self.position + hops) % self.order.len();
        channel_frequency(self.order[idx])
    }

    /// The full permutation (for tests / relay pattern lock).
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_plan_spans_the_ism_band() {
        assert_eq!(channel_frequency(0), Hertz(902.75e6));
        let last = channel_frequency(49);
        assert!((last.as_hz() - 927.25e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_channel_rejected() {
        let _ = channel_frequency(50);
    }

    #[test]
    fn sequence_is_a_permutation() {
        let s = HopSequence::new(3, Seconds(0.4));
        let mut sorted = s.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sequences_differ_by_seed_but_are_reproducible() {
        let a = HopSequence::new(1, Seconds(0.4));
        let b = HopSequence::new(2, Seconds(0.4));
        let a2 = HopSequence::new(1, Seconds(0.4));
        assert_ne!(a.order(), b.order());
        assert_eq!(a.order(), a2.order());
    }

    #[test]
    fn hop_cycles_through_all_channels() {
        let mut s = HopSequence::new(7, Seconds(0.4));
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(s.current().as_hz() as u64);
        for _ in 0..49 {
            seen.insert(s.hop().as_hz() as u64);
        }
        assert_eq!(seen.len(), 50);
        // 51st hop wraps to the start.
        let first = HopSequence::new(7, Seconds(0.4)).current();
        assert_eq!(s.hop(), first);
    }

    #[test]
    fn frequency_at_tracks_dwell() {
        let s = HopSequence::new(9, Seconds(0.4));
        assert_eq!(s.frequency_at(Seconds(0.0)), s.current());
        assert_eq!(s.frequency_at(Seconds(0.39)), s.current());
        let mut s2 = s.clone();
        let next = s2.hop();
        assert_eq!(s.frequency_at(Seconds(0.41)), next);
    }

    #[test]
    #[should_panic(expected = "illegal dwell")]
    fn overlong_dwell_rejected() {
        let _ = HopSequence::new(0, Seconds(0.5));
    }
}

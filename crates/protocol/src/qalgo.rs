//! The reader-side Q (slot-count) anti-collision algorithm.
//!
//! Gen2 inventory is framed slotted ALOHA: a Query announces 2^Q slots,
//! each tag draws a random slot, and the reader walks slots with
//! QueryRep. The reader adapts Q between rounds (or mid-round with
//! QueryAdjust) using the classic floating-point heuristic from the
//! spec's Annex: bump Q_fp on collisions, decay it on empty slots.
//!
//! RFly inherits this unchanged — the relay is protocol-transparent —
//! but the simulation needs it to inventory multi-tag scenes efficiently.

/// The additive step C; the spec's Annex suggests C ∈ [0.1, 0.5].
const C: f64 = 0.3;

/// The smallest Q.
const MIN_Q: u8 = 0;

/// The largest Q: the Query field is 4 bits.
const MAX_Q: u8 = 15;

/// Outcome of one inventory slot, as observed by the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No tag replied.
    Empty,
    /// Exactly one tag replied (RN16 decoded cleanly).
    Single,
    /// Multiple tags replied and collided (undecodable energy).
    Collision,
}

/// The Annex-D Q-adjustment state machine: Q starts at 4 and moves by
/// C = 0.3 per empty or collided slot, within [0, 15].
#[derive(Debug, Clone)]
pub struct QAlgorithm {
    q_fp: f64,
}

impl QAlgorithm {
    /// Standard starting point: Q = 4.
    pub fn default_start() -> Self {
        Self { q_fp: 4.0 }
    }

    /// The integer Q to advertise in the next Query.
    pub fn q(&self) -> u8 {
        (self.q_fp.round() as u8).clamp(MIN_Q, MAX_Q)
    }

    /// Feeds one slot outcome; returns the new integer Q.
    pub fn observe(&mut self, outcome: SlotOutcome) -> u8 {
        match outcome {
            SlotOutcome::Empty => {
                self.q_fp = (self.q_fp - C).max(MIN_Q as f64);
            }
            SlotOutcome::Single => {}
            SlotOutcome::Collision => {
                self.q_fp = (self.q_fp + C).min(MAX_Q as f64);
            }
        }
        self.q()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collisions_raise_q() {
        let mut q = QAlgorithm::default_start();
        for _ in 0..10 {
            q.observe(SlotOutcome::Collision);
        }
        assert!(q.q() > 4, "q = {}", q.q());
    }

    #[test]
    fn empties_lower_q() {
        let mut q = QAlgorithm::default_start();
        for _ in 0..10 {
            q.observe(SlotOutcome::Empty);
        }
        assert!(q.q() < 4, "q = {}", q.q());
    }

    #[test]
    fn singles_leave_q_alone() {
        let mut q = QAlgorithm::default_start();
        let before = q.q_fp;
        for _ in 0..50 {
            q.observe(SlotOutcome::Single);
        }
        assert_eq!(q.q_fp, before);
    }

    #[test]
    fn q_converges_near_population_size() {
        // Feed outcomes from an idealized population of 64 tags: with
        // 2^Q slots and n tags, a random slot is empty with
        // ((2^Q−1)/2^Q)^n, single with n/2^Q·(...)^(n−1), else collision.
        // The equilibrium of the Q algorithm should hover near
        // Q ≈ log2(n) ± 2.
        let n = 64.0;
        let mut q = QAlgorithm::default_start();
        let mut x: u64 = 0x12345;
        let mut rand01 = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..3000 {
            let slots = f64::from(1u32 << q.q());
            let p_empty = ((slots - 1.0) / slots).powf(n);
            let p_single = n / slots * ((slots - 1.0) / slots).powf(n - 1.0);
            let r = rand01();
            let outcome = if r < p_empty {
                SlotOutcome::Empty
            } else if r < p_empty + p_single {
                SlotOutcome::Single
            } else {
                SlotOutcome::Collision
            };
            q.observe(outcome);
        }
        let qv = q.q() as f64;
        assert!((qv - 6.0).abs() <= 2.0, "Q settled at {qv}, expected ≈ 6");
    }
}

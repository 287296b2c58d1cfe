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

use crate::error::ProtocolError;

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

/// The Annex-D Q-adjustment state machine.
#[derive(Debug, Clone)]
pub struct QAlgorithm {
    q_fp: f64,
    /// Additive step C in [0.1, 0.5]; the spec suggests larger C for
    /// small Q.
    c: f64,
    min_q: u8,
    max_q: u8,
}

impl QAlgorithm {
    /// Creates the algorithm starting at `q0` with step `c`; rejects a
    /// `q0` wider than 4 bits or a `c` outside [0.1, 0.5].
    pub fn new(q0: u8, c: f64) -> Result<Self, ProtocolError> {
        if q0 > MAX_Q {
            return Err(ProtocolError::QParamOutOfRange {
                param: "q0",
                value: f64::from(q0),
            });
        }
        if !(0.1..=0.5).contains(&c) {
            return Err(ProtocolError::QParamOutOfRange {
                param: "c",
                value: c,
            });
        }
        Ok(Self::start(q0, c))
    }

    fn start(q0: u8, c: f64) -> Self {
        Self {
            q_fp: f64::from(q0),
            c,
            min_q: 0,
            max_q: MAX_Q,
        }
    }

    /// Standard starting point: Q = 4, C = 0.3.
    pub fn default_start() -> Self {
        Self::start(4, 0.3)
    }

    /// Restricts the Q range (some readers cap Q for latency); rejects
    /// `max_q > 15` or `min_q > max_q`.
    pub fn with_bounds(mut self, min_q: u8, max_q: u8) -> Result<Self, ProtocolError> {
        let reject = |param, q: u8| {
            Err(ProtocolError::QParamOutOfRange {
                param,
                value: f64::from(q),
            })
        };
        if max_q > MAX_Q {
            return reject("max_q", max_q);
        }
        if min_q > max_q {
            return reject("min_q", min_q);
        }
        self.min_q = min_q;
        self.max_q = max_q;
        self.q_fp = self.q_fp.clamp(f64::from(min_q), f64::from(max_q));
        Ok(self)
    }

    /// The integer Q to advertise in the next Query.
    pub fn q(&self) -> u8 {
        (self.q_fp.round() as u8).clamp(self.min_q, self.max_q)
    }

    /// Feeds one slot outcome; returns the new integer Q.
    pub fn observe(&mut self, outcome: SlotOutcome) -> u8 {
        match outcome {
            SlotOutcome::Empty => {
                self.q_fp = (self.q_fp - self.c).max(self.min_q as f64);
            }
            SlotOutcome::Single => {}
            SlotOutcome::Collision => {
                self.q_fp = (self.q_fp + self.c).min(self.max_q as f64);
            }
        }
        self.q()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_starts_where_told() {
        let q = QAlgorithm::new(6, 0.2).expect("legal");
        assert_eq!(q.q(), 6);
    }

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
    fn q_respects_bounds() {
        let mut q = QAlgorithm::new(2, 0.5)
            .and_then(|q| q.with_bounds(1, 3))
            .expect("legal");
        for _ in 0..100 {
            q.observe(SlotOutcome::Empty);
        }
        assert_eq!(q.q(), 1);
        for _ in 0..100 {
            q.observe(SlotOutcome::Collision);
        }
        assert_eq!(q.q(), 3);
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

    #[test]
    fn oversized_q_rejected() {
        let err = |param, value| Err(ProtocolError::QParamOutOfRange { param, value });
        assert_eq!(QAlgorithm::new(16, 0.3).map(|q| q.q()), err("q0", 16.0));
        assert_eq!(QAlgorithm::new(4, 0.6).map(|q| q.q()), err("c", 0.6));
        let bounded = |lo, hi| QAlgorithm::default_start().with_bounds(lo, hi);
        assert_eq!(bounded(0, 16).map(|q| q.q()), err("max_q", 16.0));
        assert_eq!(bounded(5, 3).map(|q| q.q()), err("min_q", 5.0));
        assert_eq!(bounded(3, 3).map(|q| q.q()), Ok(3));
    }
}

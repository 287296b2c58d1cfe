//! Backscatter modulation: impedance switching as seen in RF.
//!
//! §2 of the paper: a tag "switches its internal impedance between two
//! states: reflective and non-reflective." Each state presents a complex
//! reflection coefficient Γ; the backscattered field is the incident
//! field times Γ(t). What the reader can decode is the *differential*
//! component (Γ_on − Γ_off)/2 — the static mean reflection is
//! indistinguishable from environmental clutter and is removed by the
//! receiver's DC cancellation.

use rfly_dsp::Complex;

/// A two-state backscatter modulator.
#[derive(Debug, Clone, Copy)]
pub struct BackscatterModulator {
    /// Reflection coefficient in the reflective state.
    pub gamma_on: Complex,
    /// Reflection coefficient in the absorptive state.
    pub gamma_off: Complex,
}

impl BackscatterModulator {
    /// An idealized full-swing switch: Γ alternates between +1 and 0
    /// (open vs. matched load), giving modulation depth 1.
    pub fn ideal() -> Self {
        Self {
            gamma_on: Complex::new(1.0, 0.0),
            gamma_off: Complex::new(0.0, 0.0),
        }
    }

    /// A realistic off-the-shelf tag: imperfect match in both states and
    /// a little reactive phase rotation.
    pub fn typical() -> Self {
        Self {
            gamma_on: Complex::from_polar(0.8, 0.2),
            gamma_off: Complex::from_polar(0.15, -0.4),
        }
    }
}

//! Antenna models: polarization and mutual coupling.
//!
//! Two antenna facts shape the paper's system. First, the relay's four
//! ceramic antennas sit ~10 cm apart on the PCB, and their mutual
//! coupling (plus polarization orthogonality) is the *only* isolation the
//! analog-relay baseline of Fig. 9 has. Second, tag read success depends
//! on orientation alignment — the source of the blind spots [31] that
//! motivate the drone in the first place.

use rfly_dsp::units::{Db, Hertz, Meters};

/// Linear polarization orientations used on the relay PCB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarization {
    /// Horizontal linear polarization.
    Horizontal,
    /// Vertical linear polarization.
    Vertical,
}

impl Polarization {
    /// Cross-polarization isolation between two orientations. Practical
    /// printed antennas achieve ~20 dB cross-pol discrimination (ideal
    /// orthogonal dipoles would be infinite; scattering fills it in).
    pub fn isolation_to(self, other: Polarization) -> Db {
        if self == other {
            Db::new(0.0)
        } else {
            Db::new(20.0)
        }
    }
}

/// Near-field mutual coupling between two antennas `separation` apart
/// on the same board, including polarization isolation.
///
/// We model coupling as free-space loss at the separation distance plus
/// a near-field excess (closely spaced antennas couple more strongly
/// than Friis predicts; 10 dB excess is typical of co-planar PCB
/// antennas) minus the cross-polarization discrimination.
pub fn mutual_coupling(
    separation: Meters,
    freq: Hertz,
    pol_a: Polarization,
    pol_b: Polarization,
) -> Db {
    let friis = crate::pathloss::free_space_db(separation, freq);
    let near_field_excess = Db::new(10.0);
    // Total attenuation from one antenna's port to the other's:
    (friis - near_field_excess + pol_a.isolation_to(pol_b)).max(Db::new(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Hertz = Hertz(915e6);

    #[test]
    fn cross_polarization_isolates() {
        assert_eq!(
            Polarization::Horizontal.isolation_to(Polarization::Vertical),
            Db::new(20.0)
        );
        assert_eq!(
            Polarization::Vertical.isolation_to(Polarization::Vertical),
            Db::new(0.0)
        );
    }

    #[test]
    fn coupling_at_10cm_is_tens_of_db() {
        // Co-polarized antennas 10 cm apart at 915 MHz: Friis gives
        // ~11.7 dB; minus 10 dB near-field excess ≈ 1.7 dB — almost no
        // isolation, which is exactly why a naive analog relay cannot
        // amplify much (§4.1).
        let co = mutual_coupling(
            Meters::new(0.10),
            F,
            Polarization::Vertical,
            Polarization::Vertical,
        );
        assert!(co.value() < 5.0, "co-pol coupling {co}");
        // Cross-polarized: +20 dB.
        let cross = mutual_coupling(
            Meters::new(0.10),
            F,
            Polarization::Vertical,
            Polarization::Horizontal,
        );
        assert!((cross.value() - co.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn coupling_never_negative() {
        let c = mutual_coupling(
            Meters::new(0.01),
            F,
            Polarization::Vertical,
            Polarization::Vertical,
        );
        assert!(c.value() >= 0.0);
    }
}

//! Large-scale path loss models.
//!
//! Eq. 3 of the paper uses the free-space form `L = 20·log10(4πR/λ)`.

use rfly_dsp::units::{Db, Hertz, Meters};

/// Free-space path loss `20·log10(4πd/λ)` (Friis, isotropic antennas).
///
/// Clamps distance to λ/(4π) (the far-field reference where loss is
/// 0 dB) to avoid negative loss at unphysically small distances.
pub fn free_space_db(distance: Meters, freq: Hertz) -> Db {
    assert!(distance.value() >= 0.0, "distance cannot be negative");
    let lambda = freq.wavelength();
    let d = distance.value().max(lambda / (4.0 * std::f64::consts::PI));
    Db::new(20.0 * (4.0 * std::f64::consts::PI * d / lambda).log10())
}

/// Inverts Eq. 3/4 of the paper: the maximum range at which path loss
/// equals a given isolation `I`, i.e. `R = (λ/4π)·10^{I/20}`.
pub fn range_for_isolation(isolation: Db, freq: Hertz) -> Meters {
    Meters::new(
        freq.wavelength() / (4.0 * std::f64::consts::PI) * 10f64.powf(isolation.value() / 20.0),
    )
}

/// The amplitude attenuation factor (linear, ≤ 1) for free-space
/// propagation over `distance`.
pub fn free_space_amplitude(distance: Meters, freq: Hertz) -> f64 {
    (-free_space_db(distance, freq)).amplitude()
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Hertz = Hertz(915e6);

    #[test]
    fn free_space_reference_values() {
        // At 915 MHz, 1 m: 20·log10(4π/0.3276) ≈ 31.7 dB.
        let l1 = free_space_db(Meters::new(1.0), F);
        assert!((l1.value() - 31.7).abs() < 0.2, "l1 = {l1}");
        // Doubling distance adds 6 dB.
        let l2 = free_space_db(Meters::new(2.0), F);
        assert!((l2.value() - l1.value() - 6.02).abs() < 0.01);
    }

    #[test]
    fn paper_eq4_isolation_to_range() {
        // §4.1: "an isolation of 30 dB results in a range of 0.75 m,
        // while an isolation of 80 dB results in a range of 238 m."
        // (the paper's numbers round λ ≈ 0.3 m)
        let r30 = range_for_isolation(Db::new(30.0), F);
        assert!((r30.value() - 0.82).abs() < 0.1, "r30 = {r30}");
        let r80 = range_for_isolation(Db::new(80.0), F);
        assert!((r80.value() - 260.0).abs() < 30.0, "r80 = {r80}");
    }

    #[test]
    fn isolation_range_roundtrip() {
        for iso in [30.0, 50.0, 70.0, 90.0] {
            let r = range_for_isolation(Db::new(iso), F);
            let back = free_space_db(r, F);
            assert!((back.value() - iso).abs() < 1e-9);
        }
    }

    #[test]
    fn amplitude_matches_loss() {
        let a = free_space_amplitude(Meters::new(10.0), F);
        let l = free_space_db(Meters::new(10.0), F);
        assert!((Db::from_amplitude(a).value() + l.value()).abs() < 1e-9);
        assert!(a < 1.0);
    }

    #[test]
    fn amplitude_uses_20log_power_uses_10log() {
        // Guards the classic dB mixup: amplitude ratios are 20·log10,
        // power ratios 10·log10 — so the squared amplitude factor must
        // reproduce the linear power ratio exactly.
        let d = Meters::new(7.0);
        let a = free_space_amplitude(d, F);
        let lin = (-free_space_db(d, F)).linear();
        assert!((a * a - lin).abs() / lin < 1e-12);
    }

    #[test]
    fn tiny_distance_clamps_to_zero_loss() {
        let l = free_space_db(Meters::new(0.0), F);
        assert!(l.value().abs() < 1e-9);
    }
}

//! The traditional analog relay baseline of Fig. 9.
//!
//! "The baseline implements a traditional analog relay design that
//! achieves isolation by antenna separation and polarization" (§7.1) —
//! a pure amplify-and-forward stage with no frequency shift and no
//! filtering. Its only defenses against self-interference are the
//! physical coupling between its antennas, which is why it cannot
//! amplify much without ringing (§4.1). The baseline has no state, so
//! it is one function, [`isolation`]. It sits on the same board as
//! RFly: the same 10 cm antenna spacing and coupling jitter, at the same
//! carrier ([`RelayConfig::ANTENNA_SEPARATION`],
//! [`RelayConfig::ANTENNA_SIGMA`], [`RelayConfig::CARRIER`]).

use rfly_dsp::rng::Rng;

use rfly_channel::antenna::{mutual_coupling, Polarization};
use rfly_dsp::osc::standard_normal;
use rfly_dsp::units::Db;

use super::isolation::InterferencePath;
use super::relay::RelayConfig;

/// Isolation of one self-interference path of the analog relay:
/// antenna coupling only. Opposing-direction antenna pairs are
/// cross-polarized; a path's own TX/RX pair shares polarization (four
/// antennas, two polarizations, §6.1's layout), so intra-link paths fare
/// worse.
pub fn isolation<R: Rng>(path: InterferencePath, rng: &mut R) -> Db {
    let (pa, pb) = match path {
        InterferencePath::InterDownlink | InterferencePath::InterUplink => {
            (Polarization::Vertical, Polarization::Horizontal)
        }
        InterferencePath::IntraDownlink | InterferencePath::IntraUplink => {
            (Polarization::Vertical, Polarization::Vertical)
        }
    };
    let nominal = mutual_coupling(
        RelayConfig::ANTENNA_SEPARATION,
        RelayConfig::CARRIER,
        pa,
        pb,
    );
    (nominal + Db::new(RelayConfig::ANTENNA_SIGMA.value() * standard_normal(rng))).max(Db::new(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> rfly_dsp::rng::StdRng {
        rfly_dsp::rng::StdRng::seed_from_u64(5)
    }

    #[test]
    fn analog_isolation_is_tens_of_db_at_best() {
        let mut rng = rng();
        for _ in 0..50 {
            let inter = isolation(InterferencePath::InterDownlink, &mut rng);
            let intra = isolation(InterferencePath::IntraDownlink, &mut rng);
            assert!(inter.value() < 35.0);
            assert!(intra.value() < 15.0);
        }
    }

    #[test]
    fn rfly_beats_analog_by_50_db() {
        // The Fig. 9 headline: ≥ 50 dB improvement on every path.
        use crate::relay::isolation::measure_budget;
        use crate::relay::relay::Relay;
        let mut rng = rng();
        let mut relay = Relay::new(RelayConfig::default(), 3);
        let rb = measure_budget(&mut relay);
        for (path, rfly) in [
            (InterferencePath::InterDownlink, rb.inter_downlink),
            (InterferencePath::InterUplink, rb.inter_uplink),
            (InterferencePath::IntraDownlink, rb.intra_downlink),
            (InterferencePath::IntraUplink, rb.intra_uplink),
        ] {
            assert!(rfly.value() - isolation(path, &mut rng).value() >= 50.0);
        }
    }
}

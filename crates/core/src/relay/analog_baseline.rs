//! The traditional analog relay baseline of Fig. 9.
//!
//! "The baseline implements a traditional analog relay design that
//! achieves isolation by antenna separation and polarization" (§7.1) —
//! a pure amplify-and-forward stage with no frequency shift and no
//! filtering. Its only defenses against self-interference are the
//! physical coupling between its antennas, which is why it cannot
//! amplify much without ringing (§4.1).

use rfly_dsp::rng::Rng;

use rfly_channel::antenna::{mutual_coupling, Polarization};
use rfly_dsp::osc::standard_normal;
use rfly_dsp::units::{Db, Hertz, Meters};

use super::isolation::InterferencePath;

/// A compact amplify-and-forward relay.
#[derive(Debug, Clone)]
pub struct AnalogRelay {
    /// Amplifier gain.
    pub gain: Db,
    /// Antenna separation on the board.
    pub antenna_separation: Meters,
    /// Carrier frequency (for coupling computation).
    pub frequency: Hertz,
    /// Per-trial isolation jitter σ.
    pub sigma: Db,
}

impl AnalogRelay {
    /// The Fig. 9 baseline: 10 cm separation, same as RFly's PCB.
    pub fn compact(frequency: Hertz) -> Self {
        Self {
            gain: Db::new(10.0),
            antenna_separation: Meters::cm(10.0),
            frequency,
            sigma: Db::new(3.0),
        }
    }

    /// Isolation of one self-interference path: antenna coupling only.
    /// Opposing-direction antenna pairs are cross-polarized; a path's
    /// own TX/RX pair shares polarization (four antennas, two
    /// polarizations, §6.1's layout), so intra-link paths fare worse.
    pub fn isolation<R: Rng>(&self, path: InterferencePath, rng: &mut R) -> Db {
        let (pa, pb) = match path {
            InterferencePath::InterDownlink | InterferencePath::InterUplink => {
                (Polarization::Vertical, Polarization::Horizontal)
            }
            InterferencePath::IntraDownlink | InterferencePath::IntraUplink => {
                (Polarization::Vertical, Polarization::Vertical)
            }
        };
        let nominal = mutual_coupling(self.antenna_separation, self.frequency, pa, pb);
        (nominal + Db::new(self.sigma.value() * standard_normal(rng))).max(Db::new(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> rfly_dsp::rng::StdRng {
        rfly_dsp::rng::StdRng::seed_from_u64(5)
    }

    #[test]
    fn analog_isolation_is_tens_of_db_at_best() {
        let r = AnalogRelay::compact(Hertz::mhz(915.0));
        let mut rng = rng();
        for _ in 0..50 {
            let inter = r.isolation(InterferencePath::InterDownlink, &mut rng);
            let intra = r.isolation(InterferencePath::IntraDownlink, &mut rng);
            assert!(inter.value() < 35.0);
            assert!(intra.value() < 15.0);
        }
    }

    #[test]
    fn rfly_beats_analog_by_50_db() {
        // The Fig. 9 headline: ≥ 50 dB improvement on every path.
        use crate::relay::isolation::measure_budget;
        use crate::relay::relay::{Relay, RelayConfig};
        let analog = AnalogRelay::compact(Hertz::mhz(915.0));
        let mut rng = rng();
        let mut relay = Relay::new(RelayConfig::default(), 3);
        let rb = measure_budget(&mut relay);
        for (path, rfly) in [
            (InterferencePath::InterDownlink, rb.inter_downlink),
            (InterferencePath::InterUplink, rb.inter_uplink),
            (InterferencePath::IntraDownlink, rb.intra_downlink),
            (InterferencePath::IntraUplink, rb.intra_uplink),
        ] {
            assert!(rfly.value() - analog.isolation(path, &mut rng).value() >= 50.0);
        }
    }
}

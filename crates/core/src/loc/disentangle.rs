//! Phase disentanglement via the relay-embedded RFID (§5.1, Eq. 10).
//!
//! The channel the reader measures through the relay is the *product*
//! of two half-links (Eq. 9):
//! `h = [Σ_i e^{−j2πf·2d1i/c}] · [Σ_j e^{−j2πf2·2d2j/c}]`.
//! The relay-embedded RFID's channel `h_m` consists of the first factor
//! only (its distance to the relay is constant and folds into a fixed
//! multiplicative constant). Dividing measurement by measurement,
//! `h' = h / h_m = Σ_j e^{−j2πf2·2d2j/c}` — purely the relay↔tag
//! half-link, regardless of reader–relay multipath.

use rfly_channel::geometry::Point2;
use rfly_dsp::Complex;

use super::trajectory::Trajectory;

/// One trajectory position's paired measurements.
#[derive(Debug, Clone, Copy)]
pub struct PairedMeasurement {
    /// Channel of the target tag, measured through the relay.
    pub tag: Complex,
    /// Channel of the relay-embedded RFID at the same position.
    pub embedded: Complex,
}

/// Minimum embedded-channel magnitude (relative to the strongest
/// embedded measurement) below which a position is dropped: dividing by
/// a near-zero channel amplifies noise without bound.
const MIN_RELATIVE_MAGNITUDE: f64 = 1e-3;

/// Applies Eq. 10 at every trajectory position: `h'_l = h_l / h_m,l`.
///
/// Returns the isolated relay→tag half-link channels, with `None` in
/// positions where the embedded channel was unusably weak (the caller
/// keeps index alignment with the trajectory).
pub fn disentangle(measurements: &[PairedMeasurement]) -> Vec<Option<Complex>> {
    let strongest = measurements
        .iter()
        .map(|m| m.embedded.abs())
        .fold(0.0f64, f64::max);
    let floor = strongest * MIN_RELATIVE_MAGNITUDE;
    measurements
        .iter()
        .map(|m| {
            if m.embedded.abs() <= floor || !m.embedded.is_finite() {
                None
            } else {
                let h = m.tag / m.embedded;
                h.is_finite().then_some(h)
            }
        })
        .collect()
}

/// Convenience: disentangles and drops unusable positions, returning
/// `(kept_indices, channels)`.
pub fn disentangle_filtered(measurements: &[PairedMeasurement]) -> (Vec<usize>, Vec<Complex>) {
    let all = disentangle(measurements).into_iter().enumerate();
    all.filter_map(|(i, h)| Some((i, h?))).unzip()
}

/// Fewest positions that must survive Eq. 10 for a track to be
/// localized.
pub const MIN_TRACK_LEN: usize = 3;

/// Pairs a tag's per-position reads with the relay-embedded RFID's,
/// keeping the positions where both were read.
pub fn paired_reads<'a>(
    points: &'a [Point2],
    tag: &'a [Option<Complex>],
    embedded: &'a [Option<Complex>],
) -> impl Iterator<Item = (Point2, PairedMeasurement)> + 'a {
    points
        .iter()
        .zip(tag)
        .zip(embedded)
        .filter_map(|((&p, &t), &e)| {
            Some((
                p,
                PairedMeasurement {
                    tag: t?,
                    embedded: e?,
                },
            ))
        })
}

/// The track step of the pipeline: disentangles each paired read
/// (Eq. 10) and keeps the surviving positions in order, aligned with
/// their isolated channels. `None` when fewer than [`MIN_TRACK_LEN`]
/// survive.
pub fn isolate_track(
    pairs: impl IntoIterator<Item = (Point2, PairedMeasurement)>,
) -> Option<(Trajectory, Vec<Complex>)> {
    let (points, meas): (Vec<Point2>, Vec<PairedMeasurement>) = pairs.into_iter().unzip();
    let (points, channels): (Vec<Point2>, Vec<Complex>) = points
        .into_iter()
        .zip(disentangle(&meas))
        .filter_map(|(p, h)| Some((p, h?)))
        .unzip();
    (points.len() >= MIN_TRACK_LEN).then(|| (Trajectory::from_points(points), channels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::units::Hertz;
    use rfly_dsp::SPEED_OF_LIGHT;

    fn round_trip_phasor(f: Hertz, d: f64) -> Complex {
        Complex::cis(-std::f64::consts::TAU * f.as_hz() * 2.0 * d / SPEED_OF_LIGHT)
    }

    #[test]
    fn division_recovers_the_second_half_link() {
        let f = Hertz::mhz(915.0);
        let f2 = Hertz::mhz(917.0);
        // Reader–relay half-link with multipath (two paths), relay–tag
        // clean.
        let h1 = round_trip_phasor(f, 7.0) + round_trip_phasor(f, 9.5) * 0.4;
        let h2 = round_trip_phasor(f2, 2.0);
        let m = PairedMeasurement {
            tag: h1 * h2,
            embedded: h1,
        };
        let out = disentangle(&[m]);
        let h = out[0].expect("usable");
        assert!((h - h2).abs() < 1e-12, "residual {}", (h - h2).abs());
    }

    #[test]
    fn constant_embedded_offset_cancels_in_phase_differences() {
        // The embedded RFID has a fixed relay-local channel constant c0;
        // h_m = c0·h1. Division leaves h2/c0 — a constant rotation that
        // does not vary along the trajectory, so phase *differences*
        // across positions (what SAR uses) are exact.
        let f = Hertz::mhz(915.0);
        let f2 = Hertz::mhz(917.0);
        let c0 = Complex::from_polar(0.3, 1.1);
        let mut prev_err = None;
        for (d1, d2) in [(5.0, 2.0), (5.1, 2.2), (5.2, 2.4)] {
            let h1 = round_trip_phasor(f, d1);
            let h2 = round_trip_phasor(f2, d2);
            let m = PairedMeasurement {
                tag: h1 * h2,
                embedded: c0 * h1,
            };
            let h = disentangle(&[m])[0].unwrap();
            // h = h2 / c0: error phase relative to h2 is constant.
            let err = (h / h2).arg();
            if let Some(p) = prev_err {
                assert!(
                    rfly_dsp::complex::phase_distance(err, p) < 1e-9,
                    "offset must be constant along the trajectory"
                );
            }
            prev_err = Some(err);
        }
    }

    #[test]
    fn weak_embedded_positions_dropped() {
        let good = PairedMeasurement {
            tag: Complex::new(1.0, 0.0),
            embedded: Complex::new(0.5, 0.0),
        };
        let dead = PairedMeasurement {
            tag: Complex::new(1.0, 0.0),
            embedded: Complex::new(1e-9, 0.0),
        };
        let out = disentangle(&[good, dead]);
        assert!(out[0].is_some());
        assert!(out[1].is_none());

        let (idx, ch) = disentangle_filtered(&[good, dead, good]);
        assert_eq!(idx, vec![0, 2]);
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn all_zero_embedded_yields_nothing() {
        let m = PairedMeasurement {
            tag: Complex::new(1.0, 0.0),
            embedded: Complex::default(),
        };
        let (idx, _) = disentangle_filtered(&[m, m]);
        assert!(idx.is_empty());
    }

    /// A track at x = 0, 1, ... whose tag reads are x + 1.
    fn track(embedded: &[f64]) -> Vec<(Point2, PairedMeasurement)> {
        let pair = |(i, &e): (usize, &f64)| {
            let m = PairedMeasurement {
                tag: Complex::new(i as f64 + 1.0, 0.0),
                embedded: Complex::new(e, 0.0),
            };
            (Point2::new(i as f64, 0.0), m)
        };
        embedded.iter().enumerate().map(pair).collect()
    }

    #[test]
    fn track_step_applies_the_length_rule_after_disentangling() {
        assert!(isolate_track(track(&[0.5, 1e-9, 0.5])).is_none());
        assert!(isolate_track(Vec::new()).is_none());
        let (traj, channels) = isolate_track(track(&[0.5, 1e-9, 0.5, 0.5])).unwrap();
        let xs: Vec<f64> = traj.points().iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![0.0, 2.0, 3.0]);
        let hs: Vec<f64> = channels.iter().map(|h| h.re).collect();
        assert_eq!(hs, vec![2.0, 6.0, 8.0], "channels stay aligned");
    }
}

//! Position tracking: ground truth and its imperfections.
//!
//! The paper uses OptiTrack (sub-centimeter optical tracking, §6.3) as
//! ground truth and notes the drone's trajectory "may also be acquired
//! from its odometry sensors". Localization consumes *believed*
//! positions; this module models how believed differs from true for
//! each tracking source, letting experiments quantify the sensitivity.

use rfly_dsp::rng::Rng;

use rfly_channel::geometry::Point2;
use rfly_dsp::osc::standard_normal;

/// A position-measurement source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tracker {
    /// Perfect knowledge (simulation oracle).
    Oracle,
    /// OptiTrack-class optical tracking: zero-mean jitter with the given
    /// per-axis σ (meters); sub-centimeter in the paper's rig.
    Optical {
        /// Per-axis jitter σ, meters.
        sigma_m: f64,
    },
    /// Dead-reckoning odometry: jitter plus a random-walk drift whose
    /// standard deviation grows as `drift_per_sqrt_m · √distance` —
    /// the standard dead-reckoning error model.
    Odometry {
        /// Per-axis jitter σ, meters.
        sigma_m: f64,
        /// Drift σ accumulated per √meter of travel.
        drift_per_sqrt_m: f64,
    },
}

/// Converts a true trajectory into the positions the tracker reports.
pub fn observe_trajectory<R: Rng>(
    tracker: Tracker,
    true_positions: &[Point2],
    rng: &mut R,
) -> Vec<Point2> {
    match tracker {
        Tracker::Oracle => true_positions.to_vec(),
        Tracker::Optical { sigma_m } => true_positions
            .iter()
            .map(|p| {
                Point2::new(
                    p.x + sigma_m * standard_normal(rng),
                    p.y + sigma_m * standard_normal(rng),
                )
            })
            .collect(),
        Tracker::Odometry {
            sigma_m,
            drift_per_sqrt_m,
        } => {
            // Drift: a random-walk bias whose variance grows linearly
            // with distance travelled (σ ∝ √distance).
            let mut bias = Point2::ORIGIN;
            let mut out = Vec::with_capacity(true_positions.len());
            let mut prev: Option<Point2> = None;
            for p in true_positions {
                if let Some(q) = prev {
                    let step_sigma = drift_per_sqrt_m * p.distance(q).sqrt();
                    bias = bias
                        + Point2::new(
                            step_sigma * standard_normal(rng),
                            step_sigma * standard_normal(rng),
                        );
                }
                prev = Some(*p);
                out.push(Point2::new(
                    p.x + bias.x + sigma_m * standard_normal(rng),
                    p.y + bias.y + sigma_m * standard_normal(rng),
                ));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Vec<Point2> {
        (0..n).map(|i| Point2::new(i as f64 * 0.1, 0.0)).collect()
    }

    fn rng() -> rfly_dsp::rng::StdRng {
        rfly_dsp::rng::StdRng::seed_from_u64(33)
    }

    /// The paper's OptiTrack rig.
    const OPTITRACK: Tracker = Tracker::Optical { sigma_m: 0.005 };

    /// A consumer-drone visual-inertial odometry stack.
    const ODOMETRY: Tracker = Tracker::Odometry {
        sigma_m: 0.01,
        drift_per_sqrt_m: 0.02,
    };

    #[test]
    fn oracle_is_exact() {
        let t = line(20);
        let o = observe_trajectory(Tracker::Oracle, &t, &mut rng());
        assert_eq!(o, t);
    }

    #[test]
    fn optical_jitter_is_small_and_unbiased() {
        let t = line(2000);
        let o = observe_trajectory(OPTITRACK, &t, &mut rng());
        let errs: Vec<f64> = t.iter().zip(&o).map(|(a, b)| a.distance(*b)).collect();
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.01, "mean err {mean_err}");
        // Unbiased: mean offset near zero.
        let bias_x: f64 = t.iter().zip(&o).map(|(a, b)| b.x - a.x).sum::<f64>() / t.len() as f64;
        assert!(bias_x.abs() < 0.001);
    }

    #[test]
    fn odometry_drift_grows_with_distance() {
        let t = line(500); // 50 m of travel
        let mut errs_early = Vec::new();
        let mut errs_late = Vec::new();
        for seed in 0..40 {
            let mut r = rfly_dsp::rng::StdRng::seed_from_u64(seed);
            let o = observe_trajectory(ODOMETRY, &t, &mut r);
            errs_early.push(t[10].distance(o[10]));
            errs_late.push(t[490].distance(o[490]));
        }
        let early = errs_early.iter().sum::<f64>() / errs_early.len() as f64;
        let late = errs_late.iter().sum::<f64>() / errs_late.len() as f64;
        assert!(late > 2.0 * early, "early {early}, late {late}");
    }

    #[test]
    fn trackers_preserve_length() {
        let t = line(7);
        for tracker in [Tracker::Oracle, OPTITRACK, ODOMETRY] {
            assert_eq!(observe_trajectory(tracker, &t, &mut rng()).len(), 7);
        }
    }
}

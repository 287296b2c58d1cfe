//! Property-style tests for the RFly core algorithms, driven by the
//! in-repo seeded RNG (reproducible random sweeps instead of an
//! external property-testing framework).

use rfly_channel::geometry::Point2;
use rfly_channel::phasor::PathSet;
use rfly_core::loc::disentangle::{disentangle, PairedMeasurement};
use rfly_core::loc::error::ErrorStats;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_core::relay::gains::{allocate, is_stable, IsolationBudget};
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::{Db, Dbm, Hertz, Meters};
use rfly_dsp::Complex;

const F2: Hertz = Hertz(916e6);
const CASES: usize = 150;

#[test]
fn error_stats_quantiles_are_monotone() {
    let mut rng = StdRng::seed_from_u64(0x0C03_E001);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..80);
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        let q1: f64 = rng.gen_range(0.0..1.0);
        let q2: f64 = rng.gen_range(0.0..1.0);
        let s = ErrorStats::new(samples);
        let (lo, hi) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
        assert!(s.quantile(lo) <= s.quantile(hi) + 1e-12);
        assert!(s.min() <= s.median() && s.median() <= s.max());
        assert!(s.min() <= s.mean() && s.mean() <= s.max());
    }
}

#[test]
fn error_stats_cdf_is_a_distribution() {
    let mut rng = StdRng::seed_from_u64(0x0C03_E002);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..60);
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let s = ErrorStats::new(samples);
        let cdf = s.cdf();
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        // fraction_below at the max is 1.
        assert_eq!(s.fraction_below(s.max()), 1.0);
    }
}

#[test]
fn disentangle_recovers_the_second_half_link_exactly() {
    let mut rng = StdRng::seed_from_u64(0x0C03_E003);
    for _ in 0..CASES {
        let d1 = rng.gen_range(1.0..60.0);
        let d2 = rng.gen_range(0.5..6.0);
        let c0_mag = rng.gen_range(0.05..2.0);
        let c0_phase = rng.gen_range(-3.0..3.0);
        // h_tag = h1²·h2², h_emb = c0·h1²; division must recover h2²/c0
        // whose *phase relative to h2²* is the constant arg(c0).
        let h1 = PathSet::line_of_sight(Meters::new(d1), 0.02).round_trip(F2);
        let h2 = PathSet::line_of_sight(Meters::new(d2), 0.5).round_trip(F2);
        let c0 = Complex::from_polar(c0_mag, c0_phase);
        let m = PairedMeasurement {
            tag: h1 * h2,
            embedded: h1 * c0,
        };
        let out = disentangle(&[m])[0].expect("usable");
        let residual = out * c0 - h2;
        assert!(
            residual.abs() < 1e-9 * (1.0 + h2.abs()),
            "residual {}",
            residual.abs()
        );
    }
}

#[test]
fn sar_score_is_maximal_and_exact_at_the_truth() {
    let mut rng = StdRng::seed_from_u64(0x0C03_E004);
    for _ in 0..60 {
        let tag = Point2::new(rng.gen_range(0.0..3.0), rng.gen_range(0.5..3.0));
        let k = rng.gen_range(5usize..40);
        let probe = Point2::new(rng.gen_range(-1.0..4.0), rng.gen_range(0.0..4.0));
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), k);
        let ch: Vec<Complex> = traj
            .points()
            .iter()
            .map(|p| PathSet::line_of_sight(Meters::new(p.distance(tag)), 1.0).round_trip(F2))
            .collect();
        let loc = SarLocalizer::new(F2, Point2::new(-1.0, 0.0), Point2::new(4.0, 4.0), 0.05);
        let at_truth = loc.score_at(tag, &traj, &ch);
        assert!((at_truth - (k as f64).powi(2)).abs() < 1e-6 * (k as f64).powi(2));
        let elsewhere = loc.score_at(probe, &traj, &ch);
        assert!(elsewhere <= at_truth + 1e-6);
    }
}

#[test]
fn trajectory_aperture_and_truncation_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0x0C03_E005);
    for _ in 0..CASES {
        let len = rng.gen_range(0.3..6.0);
        let k = rng.gen_range(3usize..60);
        let aperture = rng.gen_range(0.1..6.0);
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(len, 0.0), k);
        assert!((traj.aperture() - len).abs() < 1e-9);
        let (short, kept) = traj.truncate_aperture(Meters::new(aperture));
        assert!(short.aperture() <= aperture + 1e-9);
        assert_eq!(short.len(), kept.len());
        // Kept indices are valid and refer to matching points.
        for (i, &idx) in kept.iter().enumerate() {
            assert_eq!(short.points()[i], traj.points()[idx]);
        }
    }
}

#[test]
fn gain_allocation_is_always_stable_and_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0x0C03_E006);
    for _ in 0..CASES {
        let intra_dl = rng.gen_range(0.0..120.0);
        let intra_ul = rng.gen_range(0.0..120.0);
        let margin = rng.gen_range(0.0..20.0);
        let input = rng.gen_range(-60.0..10.0);
        let budget = IsolationBudget {
            intra_downlink: Db::new(intra_dl),
            intra_uplink: Db::new(intra_ul),
            inter_downlink: Db::new(rng.gen_range(0.0..140.0)),
            inter_uplink: Db::new(rng.gen_range(0.0..140.0)),
        };
        let plan = allocate(&budget, Db::new(margin), Dbm::new(input));
        assert!(plan.downlink.value() >= 0.0);
        assert!(plan.uplink.value() >= 0.0);
        // Stability holds whenever any positive gain was granted. (With
        // zero gains the relay is off; the stability predicate may still
        // be violated by a hostile budget, which is fine: gains of 0
        // mean nothing is amplified.)
        if plan.downlink.value() > 0.0 || plan.uplink.value() > 0.0 {
            // Each granted gain respects its own cap.
            assert!(
                plan.downlink.value() + margin <= intra_dl + 1e-9 || plan.downlink.value() == 0.0
            );
            assert!(plan.uplink.value() + margin <= intra_ul + 1e-9 || plan.uplink.value() == 0.0);
        }
        // And a paper-grade budget is always fully stable.
        let good = IsolationBudget::fig9();
        let good_plan = allocate(&good, Db::new(10.0), Dbm::new(input));
        assert!(is_stable(&good_plan, &good, Db::new(10.0)));
    }
}

#[test]
fn lawnmower_stays_in_its_rectangle() {
    let mut rng = StdRng::seed_from_u64(0x0C03_E007);
    for _ in 0..CASES {
        let w = rng.gen_range(1.0..20.0);
        let h = rng.gen_range(1.0..20.0);
        let rows = rng.gen_range(1usize..6);
        let kpr = rng.gen_range(2usize..12);
        let min = Point2::new(0.0, 0.0);
        let max = Point2::new(w, h);
        let t = Trajectory::lawnmower(min, max, rows, kpr);
        assert_eq!(t.len(), rows * kpr);
        for p in t.points() {
            assert!(p.x >= -1e-9 && p.x <= w + 1e-9);
            assert!(p.y >= -1e-9 && p.y <= h + 1e-9);
        }
    }
}

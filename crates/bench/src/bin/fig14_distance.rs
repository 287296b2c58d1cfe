//! Fig. 14 — localization accuracy vs projected reader distance, SAR vs
//! RSSI.
//!
//! Paper (§7.3b): aperture fixed at 1 m; the reader's transmit power is
//! adjusted and mapped to a projected distance via the free-space model
//! (so the geometry stays in the lab while the SNR matches the longer
//! link). SAR: ≤ 18 cm median at 40 m (90th ≤ 24 cm); beyond 50 m the
//! 90th percentile jumps to ~82 cm as SNR falls below 3 dB.
//!
//! We reproduce the projected-distance methodology literally: the
//! extra two-way path loss of the projected link relative to the
//! physical one is applied as an SNR penalty on every measurement.

use rfly_bench::localization_trial;
use rfly_bench::prelude::*;
use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_channel::pathloss::free_space_db;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::rng::Rng;
use rfly_dsp::units::{Db, Hertz, Meters};

fn main() {
    let mut bench = Bench::from_args("fig14_distance", 2017);
    let seed = bench.seed();
    let trials = 50;
    let mc = MonteCarlo::new(seed);
    let env = Environment::free_space();
    let f = Hertz::mhz(915.0);

    // Physical geometry: reader 6 m from a 1 m aperture.
    let reader = Point2::new(0.0, 0.0);
    let traj = Trajectory::line(Point2::new(5.5, 0.0), Point2::new(6.5, 0.0), 21);
    let physical_loss = free_space_db(Meters::new(6.0), f);

    let mut table = Table::new(
        "Fig. 14: localization error vs projected reader distance (1 m aperture)",
        &[
            "distance",
            "SAR p10",
            "SAR p50",
            "SAR p90",
            "RSSI p50",
            "paper SAR p50/p90",
        ],
    );
    let mut sar_by_d = Vec::new();
    for (d, paper) in [
        (5.0, "~0.05 / ~0.08 m"),
        (10.0, "~0.07 / ~0.10 m"),
        (20.0, "~0.10 / ~0.15 m"),
        (30.0, "~0.14 / ~0.20 m"),
        (40.0, "0.18 / 0.24 m"),
        (50.0, "~0.3 / 0.82 m"),
    ] {
        // Two-way excess loss of the projected link (query out, reply
        // back) relative to the physical 6 m link. The constant term
        // calibrates the physical lab link to the paper's: their §7.3
        // microbenchmark ran the relay VGAs near minimum gain ("tuned
        // according to the communication range needed"), leaving ~32 dB
        // less SNR headroom than our §6.1-maximized defaults.
        const LAB_GAIN_BACKOFF_DB: f64 = 32.0;
        let penalty = Db::new(
            2.0 * (free_space_db(Meters::new(d), f) - physical_loss)
                .value()
                .max(0.0)
                + LAB_GAIN_BACKOFF_DB,
        );
        let results: Vec<(f64, f64)> = mc
            .run(trials, |t, rng| {
                let tag = Point2::new(6.0 + rng.gen_range(-0.7..0.7), rng.gen_range(1.0..1.8));
                let region = (Point2::new(4.0, 0.1), Point2::new(8.0, 3.5));
                localization_trial(
                    &env,
                    reader,
                    tag,
                    &traj,
                    region,
                    seed ^ ((t as u64) << 24) ^ (d as u64),
                    penalty,
                )
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(results.len() >= trials / 2, "too many failures at {d} m");
        let sar = ErrorStats::new(results.iter().map(|r| r.0).collect());
        let rssi = ErrorStats::new(results.iter().map(|r| r.1).collect());
        table.row(&[
            format!("{d:.0} m"),
            fmt_m(sar.quantile(0.1)),
            fmt_m(sar.median()),
            fmt_m(sar.quantile(0.9)),
            fmt_m(rssi.median()),
            paper.to_string(),
        ]);
        sar_by_d.push((d, sar.median(), sar.quantile(0.9), rssi.median()));
    }
    bench.table("main", table, true);

    verdict(&sar_by_d).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "Shape check: the SAR p90 at 50 m is over twice the 5 m one, and at 40 m the SAR median \
         stays under 0.5 m with RSSI over 3x worse."
    );
    bench.finish();
}

/// The shape checks against the paper, over `(distance, SAR p50, SAR
/// p90, RSSI p50)` rows in metres: the SAR p90 at 50 m exceeds twice
/// the 5 m one, and at 40 m the SAR median stays under 0.5 m with RSSI
/// over 3x worse. Only these end points are checked, not growth at every
/// step. `Ok` when the series has the paper's shape, else the first
/// check it fails.
fn verdict(series: &[(f64, f64, f64, f64)]) -> Result<(), String> {
    let at = |d: f64| {
        series
            .iter()
            .find(|r| r.0 == d)
            .copied()
            .ok_or_else(|| format!("the series has no {d} m point"))
    };
    let (at5, at40, at50) = (at(5.0)?, at(40.0)?, at(50.0)?);
    if at40.1 >= 0.5 {
        return Err("SAR median at 40 m too large".into());
    }
    if at50.2 <= at5.2 * 2.0 {
        return Err("90th percentile must degrade with distance".into());
    }
    if at40.3 <= at40.1 * 3.0 {
        return Err("RSSI must remain much worse".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(distance, SAR p50, SAR p90, RSSI p50)` as committed in
    /// `results/bench/fig14_distance.json` (seed 2017).
    const COMMITTED: [(f64, f64, f64, f64); 6] = [
        (5.0, 0.04, 0.09, 0.68),
        (10.0, 0.04, 0.09, 0.68),
        (20.0, 0.04, 0.09, 0.68),
        (30.0, 0.05, 0.12, 0.66),
        (40.0, 0.08, 0.22, 0.68),
        (50.0, 0.07, 0.47, 0.66),
    ];

    /// `COMMITTED` with the row at `d` replaced.
    fn planted(d: f64, sar50: f64, sar90: f64, rssi50: f64) -> Vec<(f64, f64, f64, f64)> {
        let mut series = COMMITTED.to_vec();
        for row in &mut series {
            if row.0 == d {
                *row = (d, sar50, sar90, rssi50);
            }
        }
        series
    }

    #[test]
    fn committed_series_passes() {
        assert_eq!(verdict(&COMMITTED), Ok(()));
    }

    #[test]
    fn planted_series_each_fail_with_their_own_message() {
        for (series, message) in [
            (
                planted(40.0, 0.55, 0.70, 2.0),
                "SAR median at 40 m too large",
            ),
            (
                planted(50.0, 0.07, 0.15, 0.66),
                "90th percentile must degrade with distance",
            ),
            (
                planted(40.0, 0.08, 0.22, 0.20),
                "RSSI must remain much worse",
            ),
        ] {
            assert_eq!(verdict(&series), Err(message.to_string()));
        }
        let short: Vec<_> = COMMITTED.iter().copied().filter(|r| r.0 != 50.0).collect();
        assert_eq!(
            verdict(&short),
            Err("the series has no 50 m point".to_string())
        );
    }
}

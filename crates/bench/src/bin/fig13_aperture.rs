//! Fig. 13 — localization accuracy vs flight-path aperture, SAR vs the
//! RSSI baseline.
//!
//! Paper (§7.3a): relay on an iRobot Create 2, reader ≈ 5 m away, 20
//! trials per aperture with the tag's position varied at fixed average
//! range. SAR: 22 cm median at 0.5 m aperture, < 5 cm by 1 m, 90th pct
//! still improving out to 2.5 m (< 7 cm). RSSI: ~1 m even at 2.5 m
//! aperture — about 20× worse.

use rfly_bench::localization_trial;
use rfly_bench::prelude::*;
use rfly_channel::environment::{Environment, Material, Obstacle};
use rfly_channel::geometry::{Point2, Segment};
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::rng::Rng;
use rfly_dsp::units::{Db, Meters};

fn main() {
    let mut bench = Bench::from_args("fig13_aperture", 2017);
    let seed = bench.seed();
    let trials = 20;
    let mc = MonteCarlo::new(seed);
    // The robot drives across a lab room: drywall perimeter plus a
    // steel cabinet — the mild multipath that makes short apertures pay
    // (a wide beam integrates more of the reflections' bias).
    let mut env = Environment::free_space();
    for wall in [
        Segment::new(Point2::new(-1.0, -1.0), Point2::new(9.0, -1.0)),
        Segment::new(Point2::new(9.0, -1.0), Point2::new(9.0, 5.0)),
        Segment::new(Point2::new(9.0, 5.0), Point2::new(-1.0, 5.0)),
        Segment::new(Point2::new(-1.0, 5.0), Point2::new(-1.0, -1.0)),
    ] {
        env.add(Obstacle::new(wall, Material::DRYWALL));
    }
    env.add(Obstacle::new(
        Segment::new(Point2::new(2.0, 3.2), Point2::new(8.0, 3.2)),
        Material::STEEL_SHELF,
    ));
    let reader = Point2::new(0.0, 0.0);

    // The full 2.5 m robot pass; shorter apertures reuse its center
    // (the paper's "vary the aperture provided to the antenna array
    // equations").
    let full = Trajectory::line(Point2::new(4.0, 0.0), Point2::new(6.5, 0.0), 51);

    let mut table = Table::new(
        "Fig. 13: localization error vs aperture (reader ~5 m away)",
        &[
            "aperture",
            "SAR p10",
            "SAR p50",
            "SAR p90",
            "RSSI p50",
            "paper SAR p50",
        ],
    );
    let mut series: Vec<(f64, f64, f64)> = Vec::new();
    for (aperture, paper) in [
        (0.5, "0.22 m"),
        (1.0, "<0.05 m"),
        (1.5, "~0.04 m"),
        (2.0, "~0.04 m"),
        (2.5, "~0.03 m"),
    ] {
        let (traj, _) = full.truncate_aperture(Meters::new(aperture));
        let results: Vec<(f64, f64)> = mc
            .run(trials, |t, rng| {
                // Tag position varies; average relay–tag range fixed
                // (~1.5 m off the path, near the aperture center).
                let tag = Point2::new(5.25 + rng.gen_range(-0.8..0.8), rng.gen_range(1.1..1.9));
                let region = (Point2::new(3.0, 0.1), Point2::new(7.5, 3.5));
                localization_trial(
                    &env,
                    reader,
                    tag,
                    &traj,
                    region,
                    seed ^ ((t as u64) << 20) ^ ((aperture * 10.0) as u64),
                    Db::new(0.0),
                )
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(results.len() >= trials * 8 / 10, "too many failed trials");
        let sar = ErrorStats::new(results.iter().map(|r| r.0).collect());
        let rssi = ErrorStats::new(results.iter().map(|r| r.1).collect());
        table.row(&[
            format!("{aperture:.1} m"),
            fmt_m(sar.quantile(0.1)),
            fmt_m(sar.median()),
            fmt_m(sar.quantile(0.9)),
            fmt_m(rssi.median()),
            paper.to_string(),
        ]);
        series.push((aperture, sar.median(), rssi.median()));
    }
    bench.table("main", table, true);

    let ratio = verdict(&series).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "Shape check: the SAR median at the longest aperture is under 10 cm and over 1.5x better \
         than at the shortest; RSSI is {ratio:.0}x worse at 2.5 m (paper: ~20x)."
    );
    bench.finish();
}

/// The shape checks against the paper, over `(aperture, SAR p50, RSSI
/// p50)` in metres, shortest aperture first: `Ok` with the RSSI/SAR
/// median ratio at the largest aperture when the series has the
/// paper's shape, else the first check it fails.
fn verdict(series: &[(f64, f64, f64)]) -> Result<f64, String> {
    let (Some(&(_, sar_first, _)), Some(&(_, sar_last, rssi_last))) =
        (series.first(), series.last())
    else {
        return Err("the series is empty".into());
    };
    if sar_first <= sar_last * 1.5 {
        return Err("accuracy must improve with aperture".into());
    }
    if sar_last >= 0.10 {
        return Err("large-aperture SAR should be < 10 cm".into());
    }
    let ratio = rssi_last / sar_last;
    if ratio <= 5.0 {
        return Err(format!(
            "RSSI should be many times worse than SAR (got {ratio:.1}x)"
        ));
    }
    Ok(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(aperture, SAR p50, RSSI p50)` as committed in
    /// `results/bench/fig13_aperture.json` (seed 2017).
    const COMMITTED: [(f64, f64, f64); 5] = [
        (0.5, 0.28, 0.89),
        (1.0, 0.23, 0.82),
        (1.5, 0.10, 0.82),
        (2.0, 0.05, 0.84),
        (2.5, 0.04, 0.88),
    ];

    /// `COMMITTED` with the medians at `aperture` replaced.
    fn planted(aperture: f64, sar: f64, rssi: f64) -> Vec<(f64, f64, f64)> {
        let mut series = COMMITTED.to_vec();
        for row in &mut series {
            if row.0 == aperture {
                *row = (aperture, sar, rssi);
            }
        }
        series
    }

    #[test]
    fn committed_series_passes() {
        assert_eq!(verdict(&COMMITTED), Ok(0.88 / 0.04));
    }

    #[test]
    fn planted_series_each_fail_with_their_own_message() {
        for (series, message) in [
            (
                planted(0.5, 0.05, 0.89),
                "accuracy must improve with aperture",
            ),
            (
                planted(2.5, 0.12, 0.88),
                "large-aperture SAR should be < 10 cm",
            ),
            (
                planted(2.5, 0.04, 0.16),
                "RSSI should be many times worse than SAR (got 4.0x)",
            ),
            (Vec::new(), "the series is empty"),
        ] {
            assert_eq!(verdict(&series), Err(message.to_string()));
        }
    }
}

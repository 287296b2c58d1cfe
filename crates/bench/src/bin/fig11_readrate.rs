//! Fig. 11 — reading rate vs reader–tag distance, with and without the
//! relay, line-of-sight and through a wall.
//!
//! Paper: without the relay the read rate hits zero by 10 m; with the
//! relay it stays 100 % past 50 m in LoS and ~75 % at 55 m NLoS. The
//! relay flies 2 m from the tag in every trial (the relay–tag half-link
//! stays within powering range; the swept variable is the reader–relay
//! half-link).

use rfly_bench::prelude::*;
use rfly_bench::uniform_point;
use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_dsp::units::Db;
use rfly_protocol::epc::Epc;
use rfly_reader::config::ReaderConfig;
use rfly_reader::inventory::InventoryController;
use rfly_sim::medium::WorldMedium;
use rfly_sim::world::{PhasorWorld, RelayModel};
use rfly_tag::population::TagPopulation;
use rfly_tag::tag::PassiveTag;

/// Log-normal shadowing σ for the indoor links.
const SHADOW_SIGMA_DB: f64 = 3.0;
/// Through-wall attenuation for the NLoS series (one interior wall).
const WALL_DB: f64 = 9.0;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    NoRelay,
    RelayLos,
    RelayNlos,
}

fn trial(mode: Mode, distance: f64, seed: u64, rng: &mut rfly_dsp::rng::StdRng) -> bool {
    // The paper's USRP-based reader: ~28 dBm conducted (USRP + external
    // PA), 6 dBi antenna — 34 dBm EIRP, a shade under the FCC cap.
    let mut config = ReaderConfig::usrp_default();
    config.tx_power = rfly_dsp::units::Dbm::new(28.0);
    let tag_pos = Point2::new(distance, 0.0);
    let mut tags = TagPopulation::new();
    tags.add(
        PassiveTag::new(Epc::from_index(0), seed, tag_pos),
        "sweep".into(),
    );
    let mut world = PhasorWorld::new(
        Environment::free_space(),
        Point2::ORIGIN,
        config.clone(),
        tags,
        RelayModel::prototype(config.frequency),
        seed,
    );
    // Per-trial large-scale shadowing (+ wall for NLoS).
    let mut extra = SHADOW_SIGMA_DB * rfly_dsp::osc::standard_normal(rng);
    if mode == Mode::RelayNlos {
        extra += WALL_DB;
    }
    world.reader_link_extra_loss = Db::new(extra);

    let mut controller =
        InventoryController::new(config, rfly_dsp::rng::StdRng::seed_from_u64(seed ^ 0xF11));
    let reads = match mode {
        Mode::NoRelay => controller.run_until_quiet(&mut WorldMedium::direct(&mut world), 4),
        Mode::RelayLos | Mode::RelayNlos => {
            // The drone hovers ~2 m from the tag, at a slightly random
            // offset per trial.
            let relay_pos =
                tag_pos + uniform_point(rng, Point2::new(-2.4, -0.4), Point2::new(-1.6, 0.4));
            controller.run_until_quiet(&mut WorldMedium::relayed(&mut world, relay_pos), 4)
        }
    };
    reads.iter().any(|r| r.epc == Epc::from_index(0))
}

fn main() {
    let mut bench = Bench::from_args("fig11_readrate", 2017);
    let seed = bench.seed();
    let trials = 60;
    let mc = MonteCarlo::new(seed);

    let mut table = Table::new(
        "Fig. 11: reading rate vs distance",
        &["distance", "no relay", "relay LoS", "relay NLoS"],
    );
    let mut series: Vec<(f64, [f64; 3])> = Vec::new();
    for d in [
        1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 55.0, 60.0,
    ] {
        let mut rates = [0.0f64; 3];
        for (i, mode) in [Mode::NoRelay, Mode::RelayLos, Mode::RelayNlos]
            .into_iter()
            .enumerate()
        {
            let ok: usize = mc
                .run(trials, |t, rng| {
                    trial(mode, d, seed ^ (t as u64) << 8 ^ (i as u64), rng)
                })
                .into_iter()
                .filter(|&b| b)
                .count();
            rates[i] = 100.0 * ok as f64 / trials as f64;
        }
        table.row(&[
            format!("{d:.1} m"),
            fmt_pct(rates[0]),
            fmt_pct(rates[1]),
            fmt_pct(rates[2]),
        ]);
        series.push((d, rates));
    }
    bench.table("main", table, true);

    verdict(&series).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "Shape check: range gain ≈ {}x (no-relay dies ~5-10 m; relayed LoS alive at 50+ m).",
        (50.0f64 / 5.0).round()
    );
    bench.finish();
}

/// The shape checks against the paper, over `(distance, [no relay,
/// relay LoS, relay NLoS])` read rates in percent: `Ok` when the series
/// has the paper's shape, else the first check it fails.
fn verdict(series: &[(f64, [f64; 3])]) -> Result<(), String> {
    let at = |d: f64| {
        series
            .iter()
            .find(|(x, _)| *x == d)
            .map(|(_, rates)| *rates)
            .ok_or_else(|| format!("the series has no {d} m point"))
    };
    if at(10.0)?[0] > 25.0 || at(15.0)?[0] > 5.0 {
        return Err("no-relay must be nearly dead at 10 m and gone by 15 m".into());
    }
    if at(5.0)?[0] < 50.0 {
        return Err("no-relay should mostly work at 5 m".into());
    }
    if at(50.0)?[1] < 95.0 {
        return Err("relay LoS must hold ~100 % at 50 m".into());
    }
    let nlos55 = at(55.0)?[2];
    if !(50.0..=95.0).contains(&nlos55) {
        return Err(format!(
            "relay NLoS at 55 m should be degraded-but-alive (got {nlos55} %)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The series committed in `results/bench/fig11_readrate.json` (seed
    /// 2017).
    const COMMITTED: [(f64, [f64; 3]); 12] = [
        (1.0, [100.0, 100.0, 100.0]),
        (2.5, [100.0, 100.0, 100.0]),
        (5.0, [88.3, 100.0, 100.0]),
        (7.5, [53.3, 100.0, 100.0]),
        (10.0, [21.7, 100.0, 100.0]),
        (15.0, [3.3, 100.0, 100.0]),
        (20.0, [0.0, 100.0, 100.0]),
        (30.0, [0.0, 100.0, 100.0]),
        (40.0, [0.0, 100.0, 96.7]),
        (50.0, [0.0, 100.0, 80.0]),
        (55.0, [0.0, 100.0, 76.7]),
        (60.0, [0.0, 100.0, 63.3]),
    ];

    /// `COMMITTED` with the rate of `mode` at `d` replaced by `rate`.
    fn planted(d: f64, mode: usize, rate: f64) -> Vec<(f64, [f64; 3])> {
        let mut series = COMMITTED.to_vec();
        for (x, rates) in &mut series {
            if *x == d {
                rates[mode] = rate;
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
                planted(15.0, 0, 40.0),
                "no-relay must be nearly dead at 10 m and gone by 15 m",
            ),
            (planted(50.0, 1, 90.0), "relay LoS must hold ~100 % at 50 m"),
            (
                planted(55.0, 2, 100.0),
                "relay NLoS at 55 m should be degraded-but-alive (got 100 %)",
            ),
            (planted(5.0, 0, 20.0), "no-relay should mostly work at 5 m"),
        ] {
            assert_eq!(verdict(&series), Err(message.to_string()));
        }
        let short: Vec<_> = COMMITTED
            .iter()
            .copied()
            .filter(|(d, _)| *d != 50.0)
            .collect();
        assert_eq!(
            verdict(&short),
            Err("the series has no 50 m point".to_string())
        );
    }
}

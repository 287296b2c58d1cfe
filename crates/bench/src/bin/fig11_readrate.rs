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

    // Shape checks against the paper.
    let at = |d: f64| series.iter().find(|(x, _)| *x == d).unwrap().1;
    assert!(
        at(10.0)[0] <= 25.0 && at(15.0)[0] <= 5.0,
        "no-relay must be nearly dead at 10 m and gone by 15 m"
    );
    assert!(at(5.0)[0] >= 50.0, "no-relay should mostly work at 5 m");
    assert!(at(50.0)[1] >= 95.0, "relay LoS must hold ~100 % at 50 m");
    let nlos55 = at(55.0)[2];
    assert!(
        (50.0..=95.0).contains(&nlos55),
        "relay NLoS at 55 m should be degraded-but-alive (got {nlos55} %)"
    );
    println!(
        "Shape check: range gain ≈ {}x (no-relay dies ~5-10 m; relayed LoS alive at 50+ m).",
        (50.0f64 / 5.0).round()
    );
    bench.finish();
}

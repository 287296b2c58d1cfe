//! Range extension: how far can a reader reach, with and without the
//! relay? (An interactive mini-version of the paper's Fig. 11.)
//!
//! Run with: `cargo run --release --example range_extension`

use rfly::channel::environment::Environment;
use rfly::channel::geometry::Point2;
use rfly::protocol::epc::Epc;
use rfly::reader::config::ReaderConfig;
use rfly::reader::inventory::InventoryController;
use rfly::sim::medium::WorldMedium;
use rfly::sim::world::{PhasorWorld, RelayModel};
use rfly::tag::population::TagPopulation;
use rfly::tag::PassiveTag;

fn try_read(distance: f64, use_relay: bool, seed: u64) -> bool {
    let config = ReaderConfig::usrp_default();
    let tag_pos = Point2::new(distance, 0.0);
    let mut tags = TagPopulation::new();
    tags.add(
        PassiveTag::new(Epc::from_index(0), seed, tag_pos),
        "item".into(),
    );
    let mut world = PhasorWorld::new(
        Environment::free_space(),
        Point2::ORIGIN,
        config.clone(),
        tags,
        RelayModel::prototype(config.frequency),
        seed,
    );
    let mut controller =
        InventoryController::new(config, rfly::dsp::rng::StdRng::seed_from_u64(seed));
    let reads = if use_relay {
        // The drone hovers 2 m short of the tag.
        let relay_pos = Point2::new(distance - 2.0, 0.0);
        controller.run_until_quiet(&mut WorldMedium::relayed(&mut world, relay_pos), 4)
    } else {
        controller.run_until_quiet(&mut WorldMedium::direct(&mut world), 4)
    };
    reads.iter().any(|r| r.epc == Epc::from_index(0))
}

fn main() {
    println!(
        "{:>10}  {:>10}  {:>12}",
        "distance", "no relay", "with relay"
    );
    println!("{}", "-".repeat(38));
    let trials: usize = 10;
    let mut crossover_plain = None;
    let mut last_relay_ok = 0.0;
    for d in [2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 25.0, 50.0, 100.0, 150.0] {
        let plain = (0..trials)
            .filter(|&t| try_read(d, false, 100 + t as u64))
            .count();
        let relayed = (0..trials)
            .filter(|&t| try_read(d, true, 200 + t as u64))
            .count();
        println!(
            "{:>8} m  {:>9.0}%  {:>11.0}%",
            d,
            100.0 * plain as f64 / trials as f64,
            100.0 * relayed as f64 / trials as f64
        );
        if plain == 0 && crossover_plain.is_none() {
            crossover_plain = Some(d);
        }
        if relayed == trials {
            last_relay_ok = d;
        }
    }
    println!(
        "\ndirect reads die by ~{} m; relayed reads still solid at {} m — \
         the paper's >10x range extension.",
        crossover_plain.unwrap_or(f64::NAN),
        last_relay_ok
    );
    assert!(crossover_plain.unwrap_or(999.0) <= 15.0);
    assert!(last_relay_ok >= 50.0);
}

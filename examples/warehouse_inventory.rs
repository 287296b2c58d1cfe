//! Warehouse inventory: the paper's motivating application (§1, §3).
//!
//! A 30 × 40 m warehouse with steel shelf rows; a single reader in a
//! corner; tagged items spread over the racks. The drone flies a
//! lawnmower pattern down the aisles, relaying between the reader and
//! whichever tags it passes; the reader accumulates the inventory and
//! localizes each item via the embedded-tag disentanglement + SAR.
//!
//! Run with: `cargo run --release --example warehouse_inventory`

use rfly::dsp::rng::Rng;

use rfly::channel::geometry::Point2;
use rfly::core::loc::trajectory::Trajectory;
use rfly::protocol::epc::Epc;
use rfly::sim::endtoend::ScenarioBuilder;
use rfly::sim::scene::Scene;

fn main() {
    let scene = Scene::warehouse(30.0, 20.0, 3);
    let mut rng = rfly::dsp::rng::StdRng::seed_from_u64(42);

    // A dozen tagged items on random shelf spots (with the natural
    // scatter of items placed at different rack depths).
    let mut tag_positions = Vec::new();
    for _ in 0..12 {
        let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
        tag_positions.push(Point2::new(
            spot.x + rng.gen_range(-0.8..0.8),
            spot.y + 0.3 - rng.gen_range(0.2..0.8),
        ));
    }

    // The drone flies every aisle (lawnmower over the aisle band).
    let mut waypoints = Vec::new();
    for aisle in &scene.aisles {
        waypoints.push((aisle.a, aisle.b));
    }
    // Sample each aisle pass at 0.1 m spacing.
    let mut flight_points = Vec::new();
    for (a, b) in waypoints {
        let n = (a.distance(b) / 0.1) as usize;
        let pass = Trajectory::line(a, b, n.max(2));
        flight_points.extend_from_slice(pass.points());
    }
    println!(
        "scene: {} shelf rows, {} aisles, {} tags, {} flight positions",
        3,
        scene.aisles.len(),
        tag_positions.len(),
        flight_points.len()
    );

    let mut builder = ScenarioBuilder::new()
        .scene(scene)
        .reader_at(Point2::new(1.0, 1.0))
        .flight_path(Trajectory::from_points(flight_points))
        .seed(42);
    for p in &tag_positions {
        builder = builder.tag_at(*p);
    }
    let outcome = builder.build().run();

    println!(
        "\n{:<8} {:>10} {:>24} {:>10}",
        "item", "read rate", "estimated position", "error"
    );
    println!("{}", "-".repeat(58));
    let mut read_count = 0;
    let mut localized = 0;
    for (i, truth) in tag_positions.iter().enumerate() {
        let epc = Epc::from_index(i as u64);
        let rate = outcome.read_rate_of(epc);
        if rate > 0.0 {
            read_count += 1;
        }
        match outcome.localize_epc(epc) {
            Some(loc) => {
                localized += 1;
                println!(
                    "{:<8} {:>9.0}% {:>24} {:>9.2}m",
                    format!("item-{i:02}"),
                    rate * 100.0,
                    loc.estimate.to_string(),
                    loc.error_m
                );
            }
            None => {
                println!(
                    "{:<8} {:>9.0}% {:>24} {:>10}",
                    format!("item-{i:02}"),
                    rate * 100.0,
                    format!("(truth {truth})"),
                    "-"
                );
            }
        }
    }
    println!(
        "\ninventoried {read_count}/{} items, localized {localized}; reader never moved.",
        tag_positions.len()
    );
    assert!(read_count >= 9, "most items should be read");
    assert!(localized >= 7, "most read items should localize");
}

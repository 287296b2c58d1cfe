//! Integration: two relays on adjacent Δf shifts fly neighboring cells
//! of one floor. Both must pass the extended Eq. 3 stability gate, and
//! the fleet's deduplicated inventory must equal the union of the two
//! cells' tag populations.

use rfly_channel::geometry::Point2;
use rfly_channel::pathloss::free_space_db;
use rfly_core::relay::gains::{is_stable_with_interferers, ExternalInterferer, IsolationBudget};
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::units::{Db, Hertz, Meters};
use rfly_fleet::inventory::{mission_world, run_mission, MissionConfig};
use rfly_fleet::{assign, partition};
use rfly_protocol::epc::Epc;
use rfly_sim::scene::Scene;
use rfly_tag::population::TagPopulation;
use rfly_tag::tag::PassiveTag;

/// Four tags per cell, all within powering range of the cell's aisle.
fn two_cell_tags() -> (TagPopulation, Vec<Epc>, Vec<Epc>) {
    let left = [(2.0, 5.5), (4.0, 4.5), (6.0, 5.2), (8.0, 4.8)];
    let right = [(12.0, 5.5), (14.0, 4.5), (16.0, 5.2), (18.0, 4.8)];
    let mut tags = TagPopulation::new();
    let mut left_epcs = Vec::new();
    let mut right_epcs = Vec::new();
    for (i, &(x, y)) in left.iter().chain(right.iter()).enumerate() {
        let epc = Epc::from_index(i as u64);
        tags.add(
            PassiveTag::new(epc, 100 + i as u64, Point2::new(x, y)),
            format!("item-{i}"),
        );
        if x < 10.0 {
            left_epcs.push(epc);
        } else {
            right_epcs.push(epc);
        }
    }
    (tags, left_epcs, right_epcs)
}

#[test]
fn adjacent_shift_pair_is_stable_and_inventories_both_cells() {
    let scene = Scene::open_floor(20.0, 10.0);
    let budget = IsolationBudget::fig9();
    let margin = Db::new(10.0);

    let cells = partition(&scene, 2, MotionLimits::indoor_drone()).expect("two strips fit");
    assert_eq!(cells.len(), 2);
    let hover: Vec<Point2> = cells.cells.iter().map(|c| c.center()).collect();

    let plan = assign(&hover, &budget, margin, 3).expect("stable pair exists");

    // Adjacent Δ shifts by construction: Δ₀ = 1.0 MHz, Δ₁ = 1.5 MHz.
    assert!((plan.shift[0].as_hz() - 1.0e6).abs() < 1.0);
    assert!((plan.shift[1].as_hz() - 1.5e6).abs() < 1.0);

    // Both relays pass the extended Eq. 3 gate with the other as an
    // external interferer at the hover-to-hover coupling.
    let coupling = free_space_db(
        Meters::new(hover[0].distance(hover[1])),
        Hertz(plan.f1[0].as_hz().min(plan.f1[1].as_hz())),
    );
    for i in 0..2 {
        let j = 1 - i;
        let other = ExternalInterferer {
            gains: plan.gains,
            f1: plan.f1[j],
            f2: plan.f2(j),
            coupling_loss: coupling,
        };
        assert!(
            is_stable_with_interferers(
                &plan.gains,
                &budget,
                margin,
                plan.f1[i],
                plan.f2(i),
                &[other],
            ),
            "relay {i} fails the extended stability gate"
        );
    }
    assert!(plan.min_margin().unwrap().value() >= margin.value());

    // Fly the mission; the dedup inventory must be exactly the union
    // of the two cells' populations.
    let (tags, left_epcs, right_epcs) = two_cell_tags();
    let mut world = mission_world(&scene, Point2::new(1.0, 1.0), tags, &plan, &budget, 3);
    let cfg = MissionConfig {
        sample_interval_s: 2.0,
        max_rounds: 3,
        seed: 3,
        time_budget_s: None,
    };
    let outcome = run_mission(&mut world, &plan, &cells, &budget, &cfg);

    let inv = &outcome.inventory;
    assert_eq!(
        inv.unique_tags(),
        left_epcs.len() + right_epcs.len(),
        "inventory should equal the union of both cells' tags"
    );
    for epc in left_epcs.iter().chain(right_epcs.iter()) {
        assert!(inv.get(*epc).is_some(), "missing {epc:?}");
    }
    // Both relays contributed reads.
    assert!(inv.per_relay_reads[0] > 0, "relay 0 read nothing");
    assert!(inv.per_relay_reads[1] > 0, "relay 1 read nothing");
}

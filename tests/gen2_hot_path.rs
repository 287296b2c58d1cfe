//! Tier-1 guard for the Gen2 hot path: one small seeded fleet mission,
//! flown under an `rfly_obs` recorder, must do exactly the committed
//! amount of medium and reader work and produce exactly the committed
//! inventory.
//!
//! A fleet serving walks the whole transact stack — the `TagVisits`
//! scan, the arbitration lanes and the QueryAdjust streaks of a
//! runaway round — so any change to how a transaction reaches its tags
//! that alters a single state, RNG draw or reply order moves one of
//! these numbers. The expected values were recorded with every tag
//! visit going through `PassiveTag::respond`, so they also hold the
//! medium's direct QueryRep/QueryAdjust steps to that dispatch path.

use rfly::core::relay::gains::IsolationBudget;
use rfly::dsp::units::Db;
use rfly::fleet::inventory::{run_mission, seeded_mission, FleetInventory, MissionConfig};
use rfly::sim::scene::Scene;

/// FNV-1a over every field of every inventory record, in EPC order.
fn digest(inventory: &FleetInventory) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in inventory.records() {
        eat(&r.epc.0);
        for v in [
            r.first_seen.step,
            r.first_seen.relay,
            r.last_seen.step,
            r.last_seen.relay,
            r.reads,
            r.handoffs,
        ] {
            eat(&(v as u64).to_le_bytes());
        }
        eat(&r.best_snr.value().to_bits().to_le_bytes());
    }
    for &n in &inventory.per_relay_reads {
        eat(&(n as u64).to_le_bytes());
    }
    h
}

#[test]
fn seeded_fleet_mission_does_the_committed_gen2_work() {
    let scene = Scene::warehouse(16.0, 12.0, 2);
    let budget = IsolationBudget::fig9();
    let (part, plan, mut world) =
        seeded_mission(&scene, 3, 60, &budget, Db::new(10.0), 2017).expect("mission builds");
    let cfg = MissionConfig {
        sample_interval_s: 8.0,
        max_rounds: 1,
        seed: 2017,
        time_budget_s: None,
    };
    rfly::obs::install(rfly::obs::Recorder::new("gen2-hot-path"));
    let out = run_mission(&mut world, &plan, &part, &budget, &cfg);
    let counters = rfly::obs::take().expect("recorder installed").counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);

    let work = [
        ("sim.transactions", counter("sim.transactions")),
        ("sim.tag_visits", counter("sim.tag_visits")),
        ("reader.slots.empty", counter("reader.slots.empty")),
        ("reader.slots.single", counter("reader.slots.single")),
        ("reader.slots.collision", counter("reader.slots.collision")),
    ];
    assert_eq!(
        work,
        [
            ("sim.transactions", 34_379),
            ("sim.tag_visits", 278_800),
            ("reader.slots.empty", 17_043),
            ("reader.slots.single", 127),
            ("reader.slots.collision", 17_031),
        ]
    );
    assert_eq!(out.steps, 6);
    assert_eq!(out.inventory.unique_tags(), 58);
    assert_eq!(digest(&out.inventory), 0x6f52_cc46_5d48_598a);
}

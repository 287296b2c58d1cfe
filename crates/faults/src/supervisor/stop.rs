//! One faulted inventory stop: the layered medium stack in action.
//!
//! This is the seam the middleware refactor exists for: the stop builds
//! `WorldMedium::fleet_planned(..).layer(FaultLayer).layer(ObsLayer)` — one
//! propagation core, fault injection and instrumentation stacked over
//! it — instead of a bespoke fault-aware medium.

use rfly_dsp::rng::StdRng;
use rfly_reader::inventory::{InventoryController, TagRead};
use rfly_reader::medium::{MediumExt, ObsLayer};
use rfly_sim::medium::{FleetRf, WorldMedium};
use rfly_sim::world::PhasorWorld;

use crate::inject::{FaultLayer, RelayHealth};

/// One inventory stop: Gen2 rounds through the serving relay, with the
/// relay's active uplink faults injected, plus one embedded-RFID
/// coherence probe (the embedded tag alone is power-cycled and
/// re-singulated at the same hover point, so consecutive embedded
/// phases differ only by oscillator error).
///
/// `rf` is the step's fleet RF plan. It is pure geometry, shared by the
/// main rounds, the coherence probe below and every retry (fault
/// injection wraps `transact`, not propagation, so all of them see
/// identical RF).
pub(super) fn inventory_stop(
    world: &mut PhasorWorld,
    rf: &FleetRf,
    serving: usize,
    health: &RelayHealth,
    seed: u64,
    max_rounds: usize,
) -> Vec<TagRead> {
    let mut controller =
        InventoryController::new(world.config.clone(), StdRng::seed_from_u64(seed));
    let mut reads = {
        let mut faulty = WorldMedium::fleet_planned(world, rf, serving)
            .layer(FaultLayer::new(health, seed))
            .layer(ObsLayer::new());
        controller.run_until_quiet(&mut faulty, max_rounds)
    };
    // Coherence probe: one extra singulation of the embedded tag only.
    world.embedded.power_cycle();
    let mut probe =
        InventoryController::new(world.config.clone(), StdRng::seed_from_u64(seed ^ 0xC0_44));
    let probe_reads = {
        let mut faulty = WorldMedium::fleet_planned(world, rf, serving)
            .layer(FaultLayer::new(health, seed ^ 0xC0_45));
        probe.run_until_quiet(&mut faulty, 1)
    };
    reads.extend(
        probe_reads
            .into_iter()
            .filter(|r| r.epc == PhasorWorld::embedded_epc()),
    );
    reads
}

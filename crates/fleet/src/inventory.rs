//! The fleet inventory engine: N drones fly their cells, the reader
//! singulates through each relay in turn, and every relay's
//! [`TagRead`] stream merges into one deduplicated global inventory.
//!
//! Drones near cell boundaries overlap in coverage, so the same EPC
//! arrives through several relays; the merge keys on EPC and keeps
//! per-tag first-seen/last-seen bookkeeping plus a handoff count (how
//! often a tag's serving relay changed between sightings) — the
//! warehouse-scale dedup the fleet exists to provide.

use std::collections::BTreeMap;

use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::Db;
use rfly_protocol::epc::Epc;
use rfly_reader::config::ReaderConfig;
use rfly_reader::inventory::{InventoryController, TagRead};
use rfly_sim::medium::{FleetRelay, FleetRf, WorldMedium};
use rfly_sim::motion::TagMotion;
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;
use rfly_tag::population::TagPopulation;

use crate::channels::{assign, ChannelPlan};
use crate::partition::{partition, Partition};

/// When and through whom a tag was sighted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sighting {
    /// Mission step index.
    pub step: usize,
    /// Serving relay index.
    pub relay: usize,
}

/// One tag's global inventory record.
#[derive(Debug, Clone, PartialEq)]
pub struct TagRecord {
    /// The tag's EPC.
    pub epc: Epc,
    /// First sighting.
    pub first_seen: Sighting,
    /// Most recent sighting.
    pub last_seen: Sighting,
    /// Total successful reads across the fleet.
    pub reads: usize,
    /// Number of times consecutive sightings came through different
    /// relays (cell-boundary handoffs).
    pub handoffs: usize,
    /// Best observed SNR.
    pub best_snr: Db,
}

/// The deduplicated fleet-wide inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetInventory {
    records: BTreeMap<Epc, TagRecord>,
    /// Successful reads credited to each relay.
    pub per_relay_reads: Vec<usize>,
}

impl FleetInventory {
    /// An empty inventory for an `n_relays`-strong fleet.
    pub fn new(n_relays: usize) -> Self {
        Self {
            records: BTreeMap::new(),
            per_relay_reads: vec![0; n_relays],
        }
    }

    /// Merges one read observed through `relay` at mission `step`.
    pub fn observe(&mut self, read: &TagRead, relay: usize, step: usize) {
        self.per_relay_reads[relay] += 1;
        rfly_obs::counter_add("fleet.reads", 1);
        let at = Sighting { step, relay };
        self.records
            .entry(read.epc)
            .and_modify(|r| {
                if r.last_seen.relay != relay {
                    r.handoffs += 1;
                    rfly_obs::counter_add("fleet.handoffs", 1);
                }
                r.last_seen = at;
                r.reads += 1;
                r.best_snr = r.best_snr.max(read.snr);
            })
            .or_insert(TagRecord {
                epc: read.epc,
                first_seen: at,
                last_seen: at,
                reads: 1,
                handoffs: 0,
                best_snr: read.snr,
            });
    }

    /// Rebuilds an inventory from its parts — the mission-checkpoint
    /// seam: [`Self::records`] + `per_relay_reads` fully determine an
    /// inventory, so a parsed checkpoint reconstructs it exactly.
    pub fn from_parts(records: Vec<TagRecord>, per_relay_reads: Vec<usize>) -> Self {
        Self {
            records: records.into_iter().map(|r| (r.epc, r)).collect(),
            per_relay_reads,
        }
    }

    /// Number of distinct EPCs inventoried.
    pub fn unique_tags(&self) -> usize {
        self.records.len()
    }

    /// The per-tag records, EPC-ordered.
    pub fn records(&self) -> impl Iterator<Item = &TagRecord> {
        self.records.values()
    }

    /// Looks up one tag.
    pub fn get(&self, epc: Epc) -> Option<&TagRecord> {
        self.records.get(&epc)
    }

    /// Read rate against a known population size, in [0, 1].
    pub fn read_rate(&self, population: usize) -> f64 {
        if population == 0 {
            return 1.0;
        }
        self.unique_tags() as f64 / population as f64
    }

    /// Total cell-boundary handoffs across all tags.
    pub fn handoffs(&self) -> usize {
        self.records.values().map(|r| r.handoffs).sum()
    }

    /// Each relay's share of all successful reads, in [0, 1].
    pub fn utilization(&self) -> Vec<f64> {
        let total: usize = self.per_relay_reads.iter().sum();
        self.per_relay_reads
            .iter()
            .map(|&r| {
                if total == 0 {
                    0.0
                } else {
                    r as f64 / total as f64
                }
            })
            .collect()
    }
}

/// Mission pacing knobs.
#[derive(Debug, Clone, Copy)]
pub struct MissionConfig {
    /// Seconds of flight between inventory stops.
    pub sample_interval_s: f64,
    /// Inventory rounds per (stop, relay) before moving on.
    pub max_rounds: usize,
    /// Seed for the per-stop inventory controllers and the world.
    pub seed: u64,
    /// Optional cap on simulated mission time, s (compared against the
    /// partition's route duration, not wall-clock time): drones stop
    /// where they are when it expires. Lets a single-relay baseline be
    /// compared against a fleet at *equal mission time*.
    pub time_budget_s: Option<f64>,
}

impl Default for MissionConfig {
    fn default() -> Self {
        Self {
            sample_interval_s: 4.0,
            max_rounds: 3,
            seed: 1,
            time_budget_s: None,
        }
    }
}

/// The outcome of one fleet mission.
#[derive(Debug, PartialEq)]
pub struct MissionOutcome {
    /// The deduplicated global inventory (embedded-RFID reads filtered
    /// out).
    pub inventory: FleetInventory,
    /// Number of inventory stops flown.
    pub steps: usize,
    /// Mission duration, seconds (slowest cell route).
    pub duration_s: f64,
}

/// Flies the fleet over its partition and inventories through every
/// relay in turn at each stop.
///
/// All drones fly concurrently (each along its own cell route); the
/// reader TDMs across relays at every stop. Tags are power-cycled
/// between stops — as the drones move, tags fall out of the powering
/// field and their session state decays — which is what lets a
/// boundary tag be re-read (and handed off) by the neighboring cell's
/// relay.
pub fn run_mission(
    scene_world: &mut PhasorWorld,
    plan: &ChannelPlan,
    partition: &Partition,
    budget: &rfly_core::relay::gains::IsolationBudget,
    cfg: &MissionConfig,
) -> MissionOutcome {
    run_mission_with_motion(
        scene_world,
        plan,
        partition,
        budget,
        cfg,
        &TagMotion::none(),
    )
}

/// [`run_mission`] over a world whose tags move: before each inventory
/// stop, every tag is placed where `motion` carries it at mission time
/// `t` (a pure function of the tag's initial position and `t`, so the
/// mission stays a pure function of its seed). With an empty motion
/// this is exactly [`run_mission`] — no repositioning happens and the
/// outcome is bit-identical.
pub fn run_mission_with_motion(
    scene_world: &mut PhasorWorld,
    plan: &ChannelPlan,
    partition: &Partition,
    budget: &rfly_core::relay::gains::IsolationBudget,
    cfg: &MissionConfig,
    motion: &TagMotion,
) -> MissionOutcome {
    let n = partition.len();
    assert_eq!(plan.f1.len(), n, "one channel pair per cell");
    let duration = match cfg.time_budget_s {
        Some(budget_s) => partition.duration().min(budget_s),
        None => partition.duration(),
    };
    let steps = (duration / cfg.sample_interval_s).ceil() as usize + 1;

    // The belts move tags relative to where the scenario placed them.
    let homes: Vec<Point2> = if motion.is_empty() {
        Vec::new()
    } else {
        scene_world
            .tags
            .tags()
            .iter()
            .map(|tag| tag.position())
            .collect()
    };

    let _span = rfly_obs::span("fleet.mission");
    let mut inventory = FleetInventory::new(n);
    for step in 0..steps {
        rfly_obs::counter_add("fleet.stops", n as u64);
        let t = (step as f64 * cfg.sample_interval_s).min(duration);
        if !motion.is_empty() {
            for (tag, &home) in scene_world.tags.tags_mut().iter_mut().zip(&homes) {
                tag.set_position(motion.position_at(home, t));
            }
        }
        let positions: Vec<Point2> = partition
            .plans
            .iter()
            .map(|p| p.position_at(t.min(p.duration())))
            .collect();
        let fleet: Vec<FleetRelay> = plan.fleet(budget, &positions);

        // Plan: trace the step's fleet RF once — reader channels,
        // EIRPs, per-tag incident power, every relay→tag channel —
        // fanned out over the work pool (pure physics, tag-ordered
        // merge, byte-identical at any worker count). The old loop
        // re-traced all of it from scratch for every TDM serving.
        let rf = FleetRf::trace(scene_world, fleet);

        // Execute + merge: the TDM serving sweep stays in its fixed
        // serial order — tag protocol state, the world's noise RNG,
        // and the inventory dedup/handoff bookkeeping all mutate here,
        // so this order *is* the determinism contract.
        for serving in 0..n {
            let seed = stop_seed(cfg.seed, step, serving);
            for read in &serve_stop(scene_world, &rf, serving, seed, cfg.max_rounds) {
                inventory.observe(read, serving, step);
            }
        }
    }

    MissionOutcome {
        inventory,
        steps,
        duration_s: duration,
    }
}

/// The inventory controller seed of one TDM serving: the mission seed
/// mixed with the stop index and the serving's key (its relay or cell
/// index).
pub fn stop_seed(seed: u64, step: usize, key: usize) -> u64 {
    seed ^ (((step as u64) << 8) | key as u64)
}

/// One TDM serving of an inventory stop: a controller seeded with
/// `seed` runs up to `max_rounds` Gen2 rounds through relay `serving`
/// of the step's RF plan, then every tag power-cycles. Returns the
/// reads with the relays' embedded-RFID EPC dropped.
pub fn serve_stop(
    world: &mut PhasorWorld,
    rf: &FleetRf,
    serving: usize,
    seed: u64,
    max_rounds: usize,
) -> Vec<TagRead> {
    let mut controller =
        InventoryController::new(world.config.clone(), StdRng::seed_from_u64(seed));
    let mut medium = WorldMedium::fleet_planned(world, rf, serving);
    let mut reads = controller.run_until_quiet(&mut medium, max_rounds);
    drop(medium);
    reads.retain(|read| read.epc != PhasorWorld::embedded_epc());
    world.power_cycle_tags();
    reads
}

/// Builds a [`PhasorWorld`] for a fleet mission: the scene's
/// environment, a reader at `reader_pos`, and `tags`. The world's
/// single-relay model slot is filled with relay 0's build (the fleet
/// medium carries its own per-relay models).
pub fn mission_world(
    scene: &Scene,
    reader_pos: Point2,
    tags: TagPopulation,
    plan: &ChannelPlan,
    budget: &IsolationBudget,
    seed: u64,
) -> PhasorWorld {
    use rfly_sim::world::RelayModel;
    PhasorWorld::new(
        scene.environment.clone(),
        reader_pos,
        ReaderConfig::usrp_default(),
        tags,
        RelayModel::from_budget(plan.f1[0], plan.shift[0], budget),
        seed,
    )
}

/// The seeded warehouse mission that supervised missions, campaigns
/// and their tests fly: `scene` split into `n_cells` cells, the Δf plan
/// for their hover points, and a world with the reader at (1, 1) m and
/// `n_tags` tags on random tag spots, jittered ±0.5 m along the shelf.
pub fn seeded_mission(
    scene: &Scene,
    n_cells: usize,
    n_tags: usize,
    budget: &IsolationBudget,
    margin: Db,
    seed: u64,
) -> Result<(Partition, ChannelPlan, PhasorWorld), String> {
    let part = partition(scene, n_cells, MotionLimits::indoor_drone())
        .map_err(|e| format!("partition failed: {e:?}"))?;
    let hover: Vec<Point2> = part.cells.iter().map(|c| c.center()).collect();
    let plan = assign(&hover, budget, margin, seed)
        .map_err(|e| format!("channel assignment failed: {e:?}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..n_tags)
        .map(|_| {
            let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
            Point2::new(spot.x + rng.gen_range(-0.5..0.5), spot.y)
        })
        .collect();
    let tags = TagPopulation::generate(n_tags, &positions, seed ^ 0xBEEF);
    let world = mission_world(scene, Point2::new(1.0, 1.0), tags, &plan, budget, seed);
    Ok((part, plan, world))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(epc_idx: u64, snr: f64) -> TagRead {
        TagRead {
            epc: Epc::from_index(epc_idx),
            channel: rfly_dsp::Complex::default(),
            snr: Db::new(snr),
        }
    }

    #[test]
    fn dedup_merges_and_counts_handoffs() {
        let mut inv = FleetInventory::new(2);
        inv.observe(&read(1, 10.0), 0, 0);
        inv.observe(&read(1, 14.0), 0, 1);
        inv.observe(&read(1, 12.0), 1, 2); // handoff 0→1
        inv.observe(&read(2, 9.0), 1, 2);
        assert_eq!(inv.unique_tags(), 2);
        let r = inv.get(Epc::from_index(1)).unwrap();
        assert_eq!(r.reads, 3);
        assert_eq!(r.first_seen, Sighting { step: 0, relay: 0 });
        assert_eq!(r.last_seen, Sighting { step: 2, relay: 1 });
        assert_eq!(r.handoffs, 1);
        assert!((r.best_snr.value() - 14.0).abs() < 1e-12);
        assert_eq!(inv.handoffs(), 1);
        assert_eq!(inv.per_relay_reads, vec![2, 2]);
        assert_eq!(inv.utilization(), vec![0.5, 0.5]);
        assert!((inv.read_rate(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inventory_is_well_behaved() {
        let inv = FleetInventory::new(3);
        assert_eq!(inv.unique_tags(), 0);
        assert_eq!(inv.handoffs(), 0);
        assert_eq!(inv.utilization(), vec![0.0, 0.0, 0.0]);
        assert_eq!(inv.read_rate(0), 1.0);
    }
}

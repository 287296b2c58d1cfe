//! The tick-driven continuous-operation loop.
//!
//! One-shot missions fly until the inventory converges; a campaign
//! flies until the *clock* says stop — hours or days of simulated
//! wall time. Each tick: the serving relays run a real inventory stop
//! through the fleet medium, batteries drain by hover + TX + traffic,
//! docked standbys charge, flat relays die and are promoted or
//! repartitioned around, and the rotation planner swaps standbys into
//! any cell whose incumbent reached its reserve margin.
//!
//! The whole loop is a pure function of `(scene, config)` — the
//! [`OpsReport::trace_text`] drain trace is bit-identical across
//! same-seed runs, which the ops test suite asserts.

use std::collections::BTreeSet;
use std::fmt::Write;

use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::energy::EnergyModel;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::decimal::Shortest;
use rfly_dsp::units::{Db, Seconds};
use rfly_fleet::channels::{assign, ChannelPlan};
use rfly_fleet::inventory::{seeded_mission, serve_stop, stop_seed};
use rfly_fleet::partition::partition;
use rfly_protocol::epc::Epc;
use rfly_sim::medium::FleetRf;
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;

use crate::rotation::{Duty, Roster, Rotation};

/// Campaign parameters: fleet sizing, pacing, and the energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsConfig {
    /// Total relays on the roster (servers + standbys).
    pub n_relays: usize,
    /// Coverage cells (= simultaneous servers at full strength).
    pub n_cells: usize,
    /// Tag population size.
    pub n_tags: usize,
    /// Campaign tick — batteries integrate at this resolution.
    pub tick: Seconds,
    /// Total simulated duration.
    pub duration: Seconds,
    /// Coverage must never fall below this fraction of `n_cells`
    /// (the soak bench gates on [`OpsReport::min_coverage`]).
    pub coverage_floor: f64,
    /// The Eq. 3 design margin for channel assignment.
    pub margin: Db,
    /// Gen2 rounds per inventory stop.
    pub max_rounds: usize,
    /// Run real inventory stops every this many ticks (1 = every
    /// tick). Battery accounting still runs every tick.
    pub inventory_every: usize,
    /// Master seed: world noise, tag placement, singulation.
    pub seed: u64,
    /// The fleet's shared energy model.
    pub energy: EnergyModel,
}

impl OpsConfig {
    /// A small 24-hour campaign: 2 cells, one standby, 10 tags —
    /// big enough for rotations and deaths, cheap enough for CI.
    pub fn small(seed: u64) -> Self {
        Self {
            n_relays: 3,
            n_cells: 2,
            n_tags: 10,
            tick: Seconds::new(300.0),
            duration: Seconds::new(86_400.0),
            coverage_floor: 0.5,
            margin: Db::new(10.0),
            max_rounds: 2,
            inventory_every: 1,
            seed,
            energy: EnergyModel::default(),
        }
    }
}

/// What a campaign delivered.
#[derive(Debug, Clone)]
pub struct OpsReport {
    /// Ticks flown.
    pub ticks: usize,
    /// Simulated seconds covered.
    pub sim_seconds: f64,
    /// Every standby swap, in order.
    pub rotations: Vec<Rotation>,
    /// Relays that went flat mid-serve.
    pub deaths: usize,
    /// Times the fleet repartitioned around a hole no standby could
    /// fill.
    pub repartitions: usize,
    /// Lowest served-cells / configured-cells ratio over the campaign.
    pub min_coverage: f64,
    /// Distinct EPCs inventoried.
    pub unique_tags: usize,
    /// Successful tag reads across all stops.
    pub total_reads: usize,
    /// Per-relay battery trace: charge in joules after each tick.
    pub trace: Vec<Vec<f64>>,
}

impl OpsReport {
    /// Successful reads per simulated hour.
    pub fn reads_per_hour(&self) -> f64 {
        if self.sim_seconds <= 0.0 {
            return 0.0;
        }
        self.total_reads as f64 / (self.sim_seconds / 3600.0)
    }

    /// The drain trace in canonical text: one line per relay, one
    /// shortest-round-trip float per tick. Equal strings ⇔ bit-equal
    /// traces, so same-seed determinism is a string compare.
    pub fn trace_text(&self) -> String {
        let mut out = String::new();
        for (relay, row) in self.trace.iter().enumerate() {
            let _ = write!(out, "relay {relay}:");
            for &j in row {
                let _ = write!(out, " {}", Shortest(j));
            }
            out.push('\n');
        }
        out
    }
}

/// Everything one executed tick did — the unit the crash-consistent
/// campaign log appends per tick, and the unit recovery verifies when
/// fast-forwarding over already-durable ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// The tick index.
    pub tick: usize,
    /// Successful tag reads this tick (all serving relays).
    pub reads: usize,
    /// Relays that went flat mid-serve this tick.
    pub deaths: usize,
    /// Whether the fleet repartitioned around an unfillable hole.
    pub repartitioned: bool,
    /// Served-cells / configured-cells after this tick.
    pub coverage: f64,
    /// Rotations (promotions + reserve-margin swaps) this tick.
    pub rotations: Vec<Rotation>,
    /// EPCs inventoried for the first time this tick, in read order.
    pub new_tags: Vec<Epc>,
    /// Per-relay charge in joules after this tick, in relay order.
    pub charges: Vec<f64>,
}

/// A campaign in flight: the tick-stepper form of [`run_campaign`].
///
/// [`CampaignRun::step`] executes exactly one tick and reports what it
/// did as a [`TickRecord`] — the unit [`crate::persist`] appends to the
/// durable campaign log. The stepper is what makes
/// resume-after-power-loss possible: recovery rebuilds a `CampaignRun`
/// from a checkpoint and re-drives `step` over the salvaged log.
#[derive(Debug)]
pub struct CampaignRun<'s> {
    pub(crate) scene: &'s Scene,
    pub(crate) cfg: OpsConfig,
    pub(crate) limits: MotionLimits,
    pub(crate) budget: IsolationBudget,
    pub(crate) transit: Seconds,
    pub(crate) hover: Vec<Point2>,
    pub(crate) plan: ChannelPlan,
    pub(crate) world: PhasorWorld,
    pub(crate) roster: Roster,
    pub(crate) seen: BTreeSet<Epc>,
    pub(crate) report: OpsReport,
    pub(crate) tick: usize,
    pub(crate) ticks: usize,
    pub(crate) halted: bool,
}

impl<'s> CampaignRun<'s> {
    /// Builds the opening campaign state over `scene` under `cfg` —
    /// the same validation and world setup [`run_campaign`] performs.
    pub fn new(scene: &'s Scene, cfg: &OpsConfig) -> Result<Self, String> {
        if cfg.n_cells == 0 || cfg.tick.value() <= 0.0 || cfg.inventory_every == 0 {
            return Err(
                "campaign needs at least one cell, a positive tick, and a nonzero inventory cadence"
                    .into(),
            );
        }
        let limits = MotionLimits::indoor_drone();
        let budget = IsolationBudget::fig9();

        // Static world: the same seeded mission a supervised run flies.
        let (part, plan, world) = seeded_mission(
            scene,
            cfg.n_cells,
            cfg.n_tags,
            &budget,
            cfg.margin,
            cfg.seed,
        )?;
        let hover: Vec<Point2> = part.cells.iter().map(|c| c.center()).collect();

        // The roster parks standbys on the scene's docks.
        let dock_slots: Vec<usize> = scene.docks.iter().map(|d| d.slots).collect();
        let roster = Roster::new(&cfg.energy, cfg.n_relays, cfg.n_cells, &dock_slots)?;

        // Worst-case transit leg: the floor diagonal at cruise speed.
        // Swaps resolve within one tick; the leg is costed as energy.
        let diag =
            ((scene.max.x - scene.min.x).powi(2) + (scene.max.y - scene.min.y).powi(2)).sqrt();
        let transit = Seconds::new(diag / limits.max_speed);

        let ticks = (cfg.duration.value() / cfg.tick.value()).ceil() as usize;
        let report = OpsReport {
            ticks,
            sim_seconds: ticks as f64 * cfg.tick.value(),
            rotations: Vec::new(),
            deaths: 0,
            repartitions: 0,
            min_coverage: 1.0,
            unique_tags: 0,
            total_reads: 0,
            trace: vec![Vec::with_capacity(ticks); cfg.n_relays],
        };
        Ok(Self {
            scene,
            cfg: cfg.clone(),
            limits,
            budget,
            transit,
            hover,
            plan,
            world,
            roster,
            seen: BTreeSet::new(),
            report,
            tick: 0,
            ticks,
            halted: false,
        })
    }

    /// Whether the campaign is over: the clock ran out, or every relay
    /// died and the floor went dark.
    pub fn finished(&self) -> bool {
        self.halted || self.tick >= self.ticks
    }

    /// Executes exactly one campaign tick.
    pub fn step(&mut self) -> Result<TickRecord, String> {
        let tick = self.tick;
        let cfg = &self.cfg;
        let mut rec = TickRecord {
            tick,
            reads: 0,
            deaths: 0,
            repartitioned: false,
            coverage: 0.0,
            rotations: Vec::new(),
            new_tags: Vec::new(),
            charges: Vec::new(),
        };

        // 1. Inventory stops: each serving relay keys the fleet medium
        // by its *cell* (the channel plan is sized per cell). One RF
        // plan serves every cell: nothing moves between stops.
        let mut reads_by_relay = vec![0usize; cfg.n_relays];
        if tick.is_multiple_of(cfg.inventory_every) {
            let rf = FleetRf::trace(&self.world, self.plan.fleet(&self.budget, &self.hover));
            for (relay, cell) in self.roster.serving() {
                let seed = stop_seed(cfg.seed, tick, cell);
                for read in serve_stop(&mut self.world, &rf, cell, seed, cfg.max_rounds) {
                    if self.seen.insert(read.epc) {
                        rec.new_tags.push(read.epc);
                    }
                    reads_by_relay[relay] += 1;
                }
            }
            rec.reads = reads_by_relay.iter().sum::<usize>();
        }

        // 2. Battery integration: servers drain, docked standbys charge.
        for (relay, &reads) in reads_by_relay.iter().enumerate() {
            match self.roster.duty(relay) {
                Duty::Serving { .. } => self.roster.battery_mut(relay).drain_serve(
                    &cfg.energy,
                    cfg.tick,
                    self.plan.gains.downlink,
                    reads,
                ),
                Duty::Docked { .. } => self.roster.battery_mut(relay).charge(&cfg.energy, cfg.tick),
                Duty::Dead => {}
            }
        }

        // 3. Deaths: a flat server is promoted over, or the survivors
        // repartition the floor around the hole.
        let flat: Vec<(usize, usize)> = self
            .roster
            .serving()
            .into_iter()
            .filter(|&(relay, _)| self.roster.battery(relay).is_empty())
            .collect();
        let mut repartition_needed = false;
        for (relay, cell) in flat {
            rec.deaths += 1;
            let lost = self.roster.mark_dead(relay);
            if let Some(cell_lost) = lost {
                debug_assert_eq!(cell_lost, cell);
                match self
                    .roster
                    .promote(&cfg.energy, tick, cell, relay, self.transit)
                {
                    Some(promo) => rec.rotations.push(promo),
                    None => repartition_needed = true,
                }
            }
        }
        if repartition_needed {
            let survivors = self.roster.serving().len();
            if survivors == 0 {
                // The floor went dark: the record's coverage stays 0.
                for relay in 0..cfg.n_relays {
                    rec.charges.push(self.roster.battery(relay).charge_j);
                }
                self.fold(&rec);
                self.halted = true;
                self.tick += 1;
                return Ok(rec);
            }
            self.replan(survivors)?;
            self.roster.renumber_cells();
            rec.repartitioned = true;
        }

        // 4. Reserve-margin rotations (make-before-break).
        let swaps = self.roster.rotate(&self.cfg.energy, tick, self.transit);
        rec.rotations.extend(swaps);
        debug_assert!(self.roster.docks_within_capacity());

        // 5. Coverage and trace bookkeeping.
        rec.coverage = self.roster.serving().len() as f64 / self.cfg.n_cells as f64;
        for relay in 0..self.cfg.n_relays {
            rec.charges.push(self.roster.battery(relay).charge_j);
        }
        self.fold(&rec);
        self.tick += 1;
        Ok(rec)
    }

    /// Folds one tick's record into the report: the live loop's
    /// bookkeeping, and how recovery re-derives the report from the
    /// durable ticks it fast-forwards over.
    pub(crate) fn fold(&mut self, rec: &TickRecord) {
        self.seen.extend(rec.new_tags.iter().copied());
        self.report.total_reads += rec.reads;
        self.report.deaths += rec.deaths;
        if rec.repartitioned {
            self.report.repartitions += 1;
        }
        self.report.rotations.extend(rec.rotations.iter().copied());
        if rec.coverage < self.report.min_coverage {
            self.report.min_coverage = rec.coverage;
        }
        for (row, &charge) in self.report.trace.iter_mut().zip(&rec.charges) {
            row.push(charge);
        }
    }

    /// Re-partitions the floor into `cells` cells and re-assigns their
    /// channels: the live loop's response to a death no standby can
    /// cover, and how a restore rebuilds a shrunken campaign.
    pub(crate) fn replan(&mut self, cells: usize) -> Result<(), String> {
        let part = partition(self.scene, cells, self.limits)
            .map_err(|e| format!("repartition failed: {e:?}"))?;
        self.hover = part.cells.iter().map(|c| c.center()).collect();
        self.plan = assign(&self.hover, &self.budget, self.cfg.margin, self.cfg.seed)
            .map_err(|e| format!("channel reassignment failed: {e:?}"))?;
        Ok(())
    }

    /// Finishes the campaign and hands back the report.
    pub fn into_report(mut self) -> OpsReport {
        self.report.unique_tags = self.seen.len();
        self.report
    }
}

/// Flies a continuous campaign over `scene` under `cfg`.
///
/// The scene must carry enough dock slots
/// ([`rfly_sim::scene::Scene::dock_slots`]) to park every standby.
/// Coverage degrades through the same repartition path the fault
/// supervisor uses: when a server dies with no launch-ready standby,
/// the survivors re-partition the floor and re-run channel
/// assignment, shrinking the cell count instead of stranding a cell.
pub fn run_campaign(scene: &Scene, cfg: &OpsConfig) -> Result<OpsReport, String> {
    let _span = rfly_obs::span("ops.run_campaign");
    let mut run = CampaignRun::new(scene, cfg)?;
    while !run.finished() {
        run.step()?;
    }
    Ok(run.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_sim::scene::Scene;

    fn docked_scene() -> Scene {
        let mut scene = Scene::warehouse(16.0, 12.0, 2);
        scene.add_dock(Point2::new(1.0, 11.0), 2);
        scene
    }

    #[test]
    fn same_seed_campaigns_produce_bit_identical_drain_traces() {
        let scene = docked_scene();
        let mut cfg = OpsConfig::small(7);
        // A shorter horizon keeps the test fast; determinism does not
        // depend on the length.
        cfg.duration = Seconds::new(14_400.0);
        let a = run_campaign(&scene, &cfg).unwrap();
        let b = run_campaign(&scene, &cfg).unwrap();
        assert_eq!(a.trace_text(), b.trace_text());
        assert_eq!(a.rotations, b.rotations);
        assert_eq!(a.unique_tags, b.unique_tags);
        assert!(!a.trace_text().is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let scene = docked_scene();
        let mut cfg = OpsConfig::small(7);
        cfg.duration = Seconds::new(14_400.0);
        let a = run_campaign(&scene, &cfg).unwrap();
        cfg.seed = 8;
        let b = run_campaign(&scene, &cfg).unwrap();
        // Tag placement and singulation reshuffle; the traces differ.
        assert_ne!(a.trace_text(), b.trace_text());
    }

    #[test]
    fn campaign_rotates_and_holds_the_coverage_floor() {
        let scene = docked_scene();
        let cfg = OpsConfig::small(3);
        let report = run_campaign(&scene, &cfg).unwrap();
        assert!(report.sim_seconds >= 86_400.0);
        assert!(
            !report.rotations.is_empty(),
            "a 24 h campaign on 25-minute packs must rotate"
        );
        assert!(
            report.min_coverage >= cfg.coverage_floor,
            "coverage fell to {} (floor {})",
            report.min_coverage,
            cfg.coverage_floor
        );
        assert!(report.unique_tags > 0);
        assert!(report.reads_per_hour() > 0.0);
    }

    #[test]
    fn a_standby_short_fleet_dies_and_repartitions() {
        let scene = docked_scene();
        let mut cfg = OpsConfig::small(11);
        // One standby for two cells and a 2-hour horizon: the first
        // pair of deaths consumes the standby, the next death finds
        // the roster empty — the fleet must shrink through the
        // repartition path, not strand a cell.
        cfg.duration = Seconds::new(7200.0);
        let report = run_campaign(&scene, &cfg).unwrap();
        assert!(report.deaths > 0);
        // Coverage shrank but the survivors kept flying a smaller
        // partition instead of stranding the floor.
        assert!(report.min_coverage < 1.0 && report.min_coverage > 0.0);
        assert!(report.repartitions >= 1);
    }

    /// DESIGN.md §12.1: a standby must launch with more than the
    /// reserve, so a model built in code with `ready_frac ≤
    /// reserve_frac` is refused with the schema's message.
    #[test]
    fn campaign_rejects_a_ready_fraction_at_or_below_the_reserve() {
        let scene = docked_scene();
        let mut cfg = OpsConfig::small(1);
        for ready in [cfg.energy.reserve_frac, cfg.energy.reserve_frac / 2.0] {
            cfg.energy.ready_frac = ready;
            let Err(err) = CampaignRun::new(&scene, &cfg) else {
                panic!("ready_frac = {ready} was accepted");
            };
            assert!(err.contains("must exceed `reserve_frac`"), "{err}");
        }
        cfg.energy.ready_frac = 1.5;
        assert!(CampaignRun::new(&scene, &cfg).is_err(), "above 1");
    }

    #[test]
    fn campaign_without_docks_rejects_standbys() {
        let scene = Scene::warehouse(16.0, 12.0, 2);
        let cfg = OpsConfig::small(1);
        assert!(run_campaign(&scene, &cfg).is_err());
    }
}

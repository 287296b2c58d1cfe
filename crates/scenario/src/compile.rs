//! Lowering a validated [`ScenarioSpec`] into flyable simulator state.
//!
//! The compiler is a pure function of the spec: the same spec always
//! produces the same scene, partition, channel plan, tag population,
//! and fault schedule — and for the historic hard-coded setups
//! (`examples/fleet_warehouse.rs`, `examples/fault_storm.rs`) the
//! lowered state is *bit-identical* to what those examples build by
//! hand, which the examples now assert.

use std::fmt;

use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::Db;
use rfly_faults::supervisor::MissionEnv;
use rfly_faults::{FaultEvent, FaultSchedule};
use rfly_fleet::channels::{assign, ChannelPlan};
use rfly_fleet::inventory::{mission_world, MissionConfig};
use rfly_fleet::partition::{partition, Partition};
use rfly_protocol::epc::Epc;
use rfly_sim::motion::{Belt, TagMotion};
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;
use rfly_tag::harvester::Harvester;
use rfly_tag::population::TagPopulation;
use rfly_tag::tag::PassiveTag;

use crate::schema::{Placement, ScenarioSpec, WorldSpec};

/// A scenario the compiler could not lower (infeasible partition or
/// channel plan — the spec itself was valid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario does not compile: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Everything a mission needs, lowered from one scenario.
#[derive(Debug)]
pub struct CompiledScenario {
    /// The validated source spec.
    pub spec: ScenarioSpec,
    /// The world geometry.
    pub scene: Scene,
    /// Per-relay cells and boustrophedon routes.
    pub partition: Partition,
    /// The stability-gated channel plan, including per-relay SNR
    /// penalties from the interferer field.
    pub plan: ChannelPlan,
    /// The relays' isolation budget.
    pub budget: IsolationBudget,
    /// The Eq. 3 design margin used for channel assignment.
    pub margin: Db,
    /// The platform's motion limits.
    pub limits: MotionLimits,
    /// Mission pacing.
    pub mission: MissionConfig,
    /// The lowered fault schedule (empty when none requested).
    pub faults: FaultSchedule,
    /// Conveyor-belt tag motion (empty for static worlds).
    pub motion: TagMotion,
    /// Relay IDs indexed by fleet/cell index.
    pub relay_ids: Vec<String>,
}

impl CompiledScenario {
    /// Builds the scenario's tag population. A fresh population each
    /// call, so repeated missions start from identical protocol state.
    pub fn tags(&self) -> TagPopulation {
        build_tags(&self.spec, &self.scene)
    }

    /// Builds the mission world (fresh each call).
    pub fn world(&self) -> PhasorWorld {
        mission_world(
            &self.scene,
            self.spec.reader,
            self.tags(),
            &self.plan,
            &self.budget,
            self.spec.seed,
        )
    }

    /// The supervised-mission environment.
    pub fn mission_env(&self) -> MissionEnv<'_> {
        MissionEnv {
            scene: &self.scene,
            budget: self.budget,
            margin: self.margin,
            limits: self.limits,
        }
    }

    /// Total tag count.
    pub fn n_tags(&self) -> usize {
        self.spec.n_tags()
    }
}

/// Lowers a validated spec.
pub fn compile(spec: &ScenarioSpec) -> Result<CompiledScenario, CompileError> {
    let mut scene = build_scene(&spec.world);
    for dock in &spec.docks {
        scene.add_dock(dock.position, dock.slots);
    }
    let limits = spec.mission.platform.limits();
    let n = spec.relays.len();

    let part = partition(&scene, n, limits)
        .map_err(|e| CompileError(format!("partition failed: {e:?}")))?;
    let hover: Vec<Point2> = part.cells.iter().map(|c| c.center()).collect();
    let mut plan = assign(&hover, &spec.budget, spec.mission.margin, spec.seed)
        .map_err(|e| CompileError(format!("channel assignment failed: {e:?}")))?;

    // Per-relay penalties land in cell order (fleet index == cell).
    let field = spec.interferers.penalty();
    let mut ids: Vec<String> = vec![String::new(); n];
    for relay in &spec.relays {
        plan.snr_penalty[relay.cell] = relay.snr_penalty + field;
        ids[relay.cell] = relay.id.clone();
    }

    let mission = MissionConfig {
        sample_interval_s: spec.mission.sample_interval.value(),
        max_rounds: spec.mission.max_rounds,
        seed: spec.seed,
        time_budget_s: spec.mission.time_budget.map(|t| t.value()),
    };

    let base_steps = (part.duration() / mission.sample_interval_s).ceil() as usize + 1;
    let faults = if spec.faults.storm {
        FaultSchedule::storm(spec.seed, n, base_steps)
    } else if let Some(n_events) = spec.faults.random_events {
        FaultSchedule::random(spec.seed, n, base_steps, n_events)
    } else if !spec.faults.events.is_empty() {
        let events = spec
            .faults
            .events
            .iter()
            .enumerate()
            .map(|(id, e)| {
                let relay = spec
                    .relays
                    .iter()
                    .find(|r| r.id == e.relay)
                    .map(|r| r.cell)
                    .ok_or_else(|| {
                        CompileError(format!("fault references unknown relay {:?}", e.relay))
                    })?;
                Ok(FaultEvent {
                    id,
                    step: e.step,
                    relay,
                    kind: e.kind,
                })
            })
            .collect::<Result<Vec<_>, CompileError>>()?;
        FaultSchedule::from_events(events)
    } else {
        FaultSchedule::none()
    };

    let motion = TagMotion::from_belts(
        spec.belts
            .iter()
            .map(|b| Belt {
                y: b.y,
                x_min: b.x_min,
                x_max: b.x_max,
                speed: b.speed,
            })
            .collect(),
    );

    Ok(CompiledScenario {
        spec: spec.clone(),
        scene,
        partition: part,
        plan,
        budget: spec.budget,
        margin: spec.mission.margin,
        limits,
        mission,
        faults,
        motion,
        relay_ids: ids,
    })
}

fn build_scene(world: &WorldSpec) -> Scene {
    match world {
        WorldSpec::Warehouse {
            width,
            depth,
            shelves,
        } => Scene::warehouse(width.value(), depth.value(), *shelves),
        WorldSpec::OpenFloor { width, depth } => Scene::open_floor(width.value(), depth.value()),
        WorldSpec::MultiFloor {
            width,
            floor_depth,
            floors,
            shelves,
        } => Scene::multi_floor(width.value(), floor_depth.value(), *floors, *shelves),
        WorldSpec::OutdoorAisles { width, depth, rows } => {
            Scene::outdoor_aisles(width.value(), depth.value(), *rows)
        }
        WorldSpec::OccupancyGrid { cell, rows } => {
            let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
            Scene::occupancy(*cell, &refs)
        }
    }
}

/// Builds the tag population; for a single default shelf group this is
/// byte-for-byte the historic `examples/` draw
/// (`TagPopulation::generate(n, &draw(seed), seed ^ 0xF1EE7)`).
fn build_tags(spec: &ScenarioSpec, scene: &Scene) -> TagPopulation {
    let mut pop = TagPopulation::new();
    let mut global: u64 = 0;
    for group in &spec.tags {
        let gseed = group.seed.unwrap_or(spec.seed);
        let positions = place_group(spec, scene, group.count, gseed, &group.placement);
        let seed_base = gseed ^ 0xF1EE7;
        for pos in positions {
            let mut tag =
                PassiveTag::new(Epc::from_index(global), seed_base.wrapping_add(global), pos);
            if let Some(threshold) = group.power_up {
                tag = tag.with_harvester(Harvester::new(
                    threshold,
                    rfly_dsp::units::Seconds::new(300e-6),
                    rfly_dsp::units::Seconds::new(100e-6),
                ));
            }
            pop.add(tag, format!("item-{global:04}"));
            global += 1;
        }
    }
    pop
}

fn place_group(
    spec: &ScenarioSpec,
    scene: &Scene,
    count: usize,
    gseed: u64,
    placement: &Placement,
) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(gseed);
    match placement {
        Placement::Shelf {
            lateral,
            offset,
            depth_min,
            depth_max,
        } => (0..count)
            .map(|_| {
                let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
                Point2::new(
                    spot.x + rng.gen_range(-lateral.value()..lateral.value()),
                    spot.y + offset.value() - rng.gen_range(depth_min.value()..depth_max.value()),
                )
            })
            .collect(),
        Placement::Uniform { margin } => {
            let (w, d) = spec.world.bounds();
            let m = margin.value();
            (0..count)
                .map(|_| Point2::new(rng.gen_range(m..w - m), rng.gen_range(m..d - m)))
                .collect()
        }
        Placement::Grid { margin } => {
            let (w, d) = spec.world.bounds();
            let m = margin.value();
            let cols = (count as f64).sqrt().ceil() as usize;
            let rows = count.div_ceil(cols);
            (0..count)
                .map(|i| {
                    let (c, r) = (i % cols, i / cols);
                    Point2::new(
                        m + (w - 2.0 * m) * (c as f64 + 0.5) / cols as f64,
                        m + (d - 2.0 * m) * (r as f64 + 0.5) / rows as f64,
                    )
                })
                .collect()
        }
        Placement::Belt => {
            // Round-robin across belts, evenly spaced along each span.
            let n_belts = spec.belts.len();
            let per_belt: Vec<usize> = (0..n_belts)
                .map(|j| count / n_belts + usize::from(j < count % n_belts))
                .collect();
            let mut out = Vec::with_capacity(count);
            for (belt, &cnt) in spec.belts.iter().zip(&per_belt) {
                let span = belt.x_max.value() - belt.x_min.value();
                for k in 0..cnt {
                    out.push(Point2::new(
                        belt.x_min.value() + span * (k as f64 + 0.5) / cnt as f64,
                        belt.y.value(),
                    ));
                }
            }
            out
        }
        Placement::At(points) => points.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_str;

    const WAREHOUSE: &str = r#"
[scenario]
name = "compile-test"
seed = 42

[world]
kind = "warehouse"
width_m = 30.0
depth_m = 40.0
shelves = 6

[[reader]]
position = [1.0, 1.0]

[[relay]]
id = "r0"
cell = 0
[[relay]]
id = "r1"
cell = 1
[[relay]]
id = "r2"
cell = 2
[[relay]]
id = "r3"
cell = 3

[[tag]]
count = 220
"#;

    #[test]
    fn paper_warehouse_compiles_to_the_historic_setup() {
        let spec = parse_str(WAREHOUSE).expect("valid");
        let c = compile(&spec).expect("compiles");
        // Same scene as Scene::paper_building().
        let paper = Scene::paper_building();
        assert_eq!(c.scene.max, paper.max);
        assert_eq!(c.scene.tag_spots, paper.tag_spots);
        // Same tags as the historic items() helper.
        let mut rng = StdRng::seed_from_u64(42);
        let positions: Vec<Point2> = (0..220)
            .map(|_| {
                let spot = paper.tag_spots[rng.gen_range(0..paper.tag_spots.len())];
                Point2::new(
                    spot.x + rng.gen_range(-0.8..0.8),
                    spot.y + 0.3 - rng.gen_range(0.2..0.8),
                )
            })
            .collect();
        let reference = TagPopulation::generate(220, &positions, 42 ^ 0xF1EE7);
        let ours = c.tags();
        assert_eq!(ours.len(), reference.len());
        for (a, b) in ours.tags().iter().zip(reference.tags()) {
            assert_eq!(a.epc(), b.epc());
            assert_eq!(a.position(), b.position());
        }
        assert_eq!(c.relay_ids, vec!["r0", "r1", "r2", "r3"]);
        assert!(c.faults.events().is_empty());
        assert!(c.motion.is_empty());
    }

    #[test]
    fn interferers_raise_every_relay_penalty() {
        let src = format!("{WAREHOUSE}\n[interferers]\ncount = 4\nlevel = 0.5\n");
        let spec = parse_str(&src).expect("valid");
        let c = compile(&spec).expect("compiles");
        let expect = 10.0 * (1.0_f64 + 4.0 * 0.5).log10();
        for p in &c.plan.snr_penalty {
            assert!((p.value() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_fault_events_lower_to_cell_indices() {
        let src =
            format!("{WAREHOUSE}\n[[fault]]\nstep = 3\nrelay = \"r2\"\nkind = \"battery-sag\"\n");
        let spec = parse_str(&src).expect("valid");
        let c = compile(&spec).expect("compiles");
        let events = c.faults.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].relay, 2);
        assert_eq!(events[0].step, 3);
    }

    #[test]
    fn docks_lower_into_the_scene() {
        let src = format!(
            "{WAREHOUSE}\n[[dock]]\nposition = [2.0, 2.0]\nslots = 2\n\
             \n[[dock]]\nposition = [28.0, 2.0]\n"
        );
        let spec = parse_str(&src).expect("valid");
        let c = compile(&spec).expect("compiles");
        assert_eq!(c.scene.docks.len(), 2);
        assert_eq!(c.scene.dock_slots(), 3);
        assert_eq!(c.scene.docks[0].slots, 2);
    }

    #[test]
    fn belts_lower_to_tag_motion() {
        let src = r#"
[scenario]
name = "belt"
seed = 7
[world]
kind = "open-floor"
width_m = 20.0
depth_m = 10.0
[[belt]]
y_m = 5.0
x_min_m = 2.0
x_max_m = 18.0
speed = 0.5
[[reader]]
position = [1.0, 1.0]
[[relay]]
id = "r0"
cell = 0
[[tag]]
count = 8
placement = "belt"
"#;
        let spec = parse_str(src).expect("valid");
        let c = compile(&spec).expect("compiles");
        assert!(!c.motion.is_empty());
        let tags = c.tags();
        assert_eq!(tags.len(), 8);
        for t in tags.tags() {
            assert!((t.position().y - 5.0).abs() < 1e-12);
            assert!(t.position().x > 2.0 && t.position().x < 18.0);
        }
    }
}

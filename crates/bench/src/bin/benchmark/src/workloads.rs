//! The four workloads, driven only through the library's public API.
//!
//! Each workload is a fixed list of units (one round). A unit returns
//! its simulated output as canonical bytes ([`Output`]); the untraced
//! path calls the library's own entry point, and the traced path
//! replays the same entry point step by step from public calls with
//! spans around each layer, which must produce identical bytes.

use std::path::{Path, PathBuf};

use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_chaos::{MemStorage, Storage};
use rfly_core::loc::disentangle::{disentangle_filtered, PairedMeasurement};
use rfly_core::loc::rssi::RssiLocalizer;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::{Db, Hertz, Meters, Seconds};
use rfly_dsp::Complex;
use rfly_faults::supervisor::{
    LocMethod, MissionEnv, MissionState, ResilientOutcome, SupervisorConfig,
};
use rfly_faults::FaultSchedule;
use rfly_fleet::channels::{assign, ChannelPlan};
use rfly_fleet::inventory::{
    mission_world, run_mission, run_mission_with_motion, FleetInventory, MissionConfig,
    MissionOutcome,
};
use rfly_fleet::partition::{partition, Partition};
use rfly_protocol::epc::Epc;
use rfly_reader::config::ReaderConfig;
use rfly_reader::inventory::InventoryController;
use rfly_replay::checkpoint::Checkpoint;
use rfly_replay::journal::{self, Journal};
use rfly_replay::{recover_stored, run_stored, salvage_journal, Run, Scenario, StorePaths};
use rfly_scenario::CompiledScenario;
use rfly_sim::medium::{FleetRf, WorldMedium};
use rfly_sim::motion::TagMotion;
use rfly_sim::scene::Scene;
use rfly_sim::world::{PhasorWorld, RelayModel};
use rfly_tag::population::TagPopulation;
use rfly_tag::tag::PassiveTag;

use crate::stats::{Json, Output};
use crate::trace::{inventory_stop, span, TimedStorage, Trace};

/// The seed every committed fingerprint was taken at.
pub const DEFAULT_SEED: u64 = 2017;

/// Processes a round of each workload is split into.
pub const SLICES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSite,
    Corpus,
    Localize,
    DurableStorm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetSite,
        Workload::Corpus,
        Workload::Localize,
        Workload::DurableStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSite => "fleet-site",
            Workload::Corpus => "corpus",
            Workload::Localize => "localize",
            Workload::DurableStorm => "durable-storm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units in one round.
    pub fn units(self) -> usize {
        match self {
            Workload::FleetSite => 24,
            Workload::Corpus => CORPUS_PASSES * CORPUS_FILES,
            Workload::Localize => 640,
            Workload::DurableStorm => 2400,
        }
    }

    /// The units of slice `i` of a round.
    pub fn slice(self, i: usize) -> std::ops::Range<usize> {
        let n = self.units();
        i * n / SLICES..(i + 1) * n / SLICES
    }

    /// The fingerprint of one round at [`DEFAULT_SEED`].
    pub fn committed_fingerprint(self) -> u64 {
        match self {
            Workload::FleetSite => 0xd110_2cb4_58b6_049a,
            Workload::Corpus => 0x3b47_8f2d_4952_9276,
            Workload::Localize => 0xdec8_ce56_ecad_74c0,
            Workload::DurableStorm => 0xa8de_7da9_4c5a_5ff5,
        }
    }
}

/// SplitMix64 over `(seed, index)`: an independent sub-seed per unit.
pub fn unit_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Fig. 9 prototype isolation medians.
fn paper_budget() -> IsolationBudget {
    IsolationBudget {
        intra_downlink: Db::new(77.0),
        intra_uplink: Db::new(64.0),
        inter_downlink: Db::new(110.0),
        inter_uplink: Db::new(92.0),
    }
}

/// What a process builds before its first unit: the shared context and
/// the generated inputs of the units it runs, starting at unit `first`.
#[derive(Debug)]
pub struct Setup {
    first: usize,
    inputs: Inputs,
}

#[derive(Debug)]
enum Inputs {
    FleetSite {
        scene: Scene,
        cells: Partition,
        plan: ChannelPlan,
        sites: Vec<Site>,
    },
    Corpus(Vec<CorpusFile>),
    Localize {
        scene: Scene,
        trials: Vec<Trial>,
    },
    DurableStorm(Vec<(Scenario, FaultSchedule)>),
}

/// Builds the inputs of `units` from `seed`. Traced, the set-up spans
/// (scenario compile, reader search) are recorded.
pub fn setup(
    w: Workload,
    seed: u64,
    units: std::ops::Range<usize>,
    tr: &mut Option<&mut Trace>,
) -> Result<Setup, String> {
    let first = units.start;
    let seeds = units.map(|u| unit_seed(seed, u as u64));
    let inputs = match w {
        Workload::FleetSite => {
            let scene = Scene::paper_building();
            let cells = partition(&scene, SITE_RELAYS, MotionLimits::indoor_drone())
                .map_err(|e| format!("site partition: {e}"))?;
            let hover: Vec<Point2> = cells.cells.iter().map(|c| c.center()).collect();
            let plan = assign(&hover, &paper_budget(), Db::new(10.0), PLAN_SEED)
                .map_err(|e| format!("site channel plan: {e:?}"))?;
            let sites = seeds.map(|s| Site::draw(&scene, s)).collect();
            Inputs::FleetSite {
                scene,
                cells,
                plan,
                sites,
            }
        }
        Workload::Corpus => Inputs::Corpus(span(tr, "scenario.compile_ms", load_corpus)?),
        Workload::Localize => {
            let scene = Scene::paper_building();
            let trials = span(tr, "channel.reader_search_ms", || {
                seeds
                    .map(|s| Trial::draw(&scene, s))
                    .collect::<Result<_, _>>()
            })?;
            Inputs::Localize { scene, trials }
        }
        Workload::DurableStorm => Inputs::DurableStorm(
            seeds
                .map(|s| {
                    let scn = Scenario::small(s);
                    let storm = FaultSchedule::storm(s, scn.n_relays, STORM_STEPS);
                    (scn, storm)
                })
                .collect(),
        ),
    };
    Ok(Setup { first, inputs })
}

/// Runs unit `u` (which must belong to the set-up slice): the library
/// entry point untraced, or its step-by-step replica with spans when
/// `tr` is given.
pub fn run_unit(setup: &Setup, u: usize, tr: Option<&mut Trace>) -> Result<Output, String> {
    let k = u - setup.first;
    match &setup.inputs {
        Inputs::FleetSite {
            scene,
            cells,
            plan,
            sites,
        } => Ok(sites[k].fly(scene, cells, plan, tr)),
        Inputs::Corpus(files) => files[u % CORPUS_FILES].fly(tr),
        Inputs::Localize { scene, trials } => Ok(trials[k].fly(&scene.environment, tr)),
        Inputs::DurableStorm(units) => durable_storm_unit(&units[k].0, &units[k].1, tr),
    }
}

fn inventory_output(out: &mut Output, inv: &FleetInventory, steps: usize, duration_s: f64) {
    for r in inv.records() {
        out.bytes(&r.epc.0);
        for s in [r.first_seen, r.last_seen] {
            out.usize(s.step);
            out.usize(s.relay);
        }
        out.usize(r.reads);
        out.usize(r.handoffs);
        out.f64(r.best_snr.value());
    }
    for &reads in &inv.per_relay_reads {
        out.usize(reads);
    }
    out.usize(steps);
    out.f64(duration_s);
}

// ---- fleet-site: one 8-relay site of ext_fleet_scaling's 128-relay row.

const SITE_RELAYS: usize = 8;
const SITE_TAGS: usize = 640;
/// `ext_fleet_scaling`'s channel-plan seed: one plan every site reuses.
const PLAN_SEED: u64 = 7;

/// One warehouse site: its seed and its items' shelf positions.
#[derive(Debug)]
struct Site {
    seed: u64,
    positions: Vec<Point2>,
}

impl Site {
    /// Items on random shelf spots: ±0.8 m along the shelf, up to 0.5 m
    /// deep into the rack.
    fn draw(scene: &Scene, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = (0..SITE_TAGS)
            .map(|_| {
                let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
                Point2::new(
                    spot.x + rng.gen_range(-0.8..0.8),
                    spot.y - rng.gen_range(0.0..0.5),
                )
            })
            .collect();
        Self { seed, positions }
    }

    /// Flies the site's three-stop, one-round mission.
    fn fly(
        &self,
        scene: &Scene,
        cells: &Partition,
        plan: &ChannelPlan,
        tr: Option<&mut Trace>,
    ) -> Output {
        let budget = paper_budget();
        let cfg = MissionConfig {
            sample_interval_s: 4.0,
            max_rounds: 1,
            seed: self.seed,
            time_budget_s: Some(8.0),
        };
        let tags = TagPopulation::generate(SITE_TAGS, &self.positions, self.seed ^ 0xF1EE7);
        let mut world = mission_world(scene, Point2::new(1.0, 1.0), tags, plan, &budget, self.seed);
        let outcome = match tr {
            None => run_mission(&mut world, plan, cells, &budget, &cfg),
            Some(tr) => mission_replica(
                &mut world,
                plan,
                cells,
                &budget,
                &cfg,
                &TagMotion::none(),
                tr,
            ),
        };
        let mut out = Output::default();
        inventory_output(
            &mut out,
            &outcome.inventory,
            outcome.steps,
            outcome.duration_s,
        );
        out
    }
}

/// `run_mission_with_motion`, step by step from public calls.
fn mission_replica(
    world: &mut PhasorWorld,
    plan: &ChannelPlan,
    part: &Partition,
    budget: &IsolationBudget,
    cfg: &MissionConfig,
    motion: &TagMotion,
    tr: &mut Trace,
) -> MissionOutcome {
    let n = part.len();
    let duration = match cfg.time_budget_s {
        Some(cap) => part.duration().min(cap),
        None => part.duration(),
    };
    let steps = (duration / cfg.sample_interval_s).ceil() as usize + 1;
    let homes: Vec<Point2> = if motion.is_empty() {
        Vec::new()
    } else {
        world.tags.tags().iter().map(|t| t.position()).collect()
    };
    let mut inventory = FleetInventory::new(n);
    for step in 0..steps {
        let t = (step as f64 * cfg.sample_interval_s).min(duration);
        if !motion.is_empty() {
            for (tag, &home) in world.tags.tags_mut().iter_mut().zip(&homes) {
                tag.set_position(motion.position_at(home, t));
            }
        }
        let positions: Vec<Point2> = part
            .plans
            .iter()
            .map(|p| p.position_at(t.min(p.duration())))
            .collect();
        let fleet = plan.fleet(budget, &positions);
        let rf = tr.time("sim.rf_plan_ms", || FleetRf::trace(world, fleet));
        for serving in 0..n {
            let mut controller = InventoryController::new(
                world.config.clone(),
                StdRng::seed_from_u64(cfg.seed ^ (((step as u64) << 8) | serving as u64)),
            );
            let tags = world.tags.len();
            let (w, rf) = (&mut *world, &rf);
            let medium = tr.time("sim.medium_build_ms", move || {
                WorldMedium::fleet_planned(w, rf, serving)
            });
            let reads = inventory_stop(
                &mut Some(&mut *tr),
                &mut controller,
                medium,
                cfg.max_rounds,
                tags,
            );
            tr.time("fleet.merge_ms", || {
                for read in &reads {
                    if read.epc != PhasorWorld::embedded_epc() {
                        inventory.observe(read, serving, step);
                    }
                }
            });
            world.power_cycle_tags();
        }
    }
    MissionOutcome {
        inventory,
        steps,
        duration_s: duration,
    }
}

// ---- corpus: every committed scenario file, flown as the corpus gate
// flies it.

pub const CORPUS_FILES: usize = 10;
const CORPUS_PASSES: usize = 5;
const CORPUS_DIR: &str = "scenarios";
const CORPUS_GOLDEN: &str = "results/bench/scenario_corpus.json";

/// One compiled scenario file and its committed golden metrics.
#[derive(Debug)]
pub struct CorpusFile {
    compiled: CompiledScenario,
    /// `(unique_tags, read_rate, steps, handoffs)` from the golden file.
    golden: (f64, f64, f64, f64),
}

fn load_corpus() -> Result<Vec<CorpusFile>, String> {
    let golden_text = std::fs::read_to_string(CORPUS_GOLDEN)
        .map_err(|e| format!("{CORPUS_GOLDEN}: {e} (run from the repository root)"))?;
    let golden = Json::parse(&golden_text).map_err(|e| format!("{CORPUS_GOLDEN}: {e}"))?;
    let metrics = golden.get("metrics").ok_or("golden file has no metrics")?;
    let mut files: Vec<PathBuf> = std::fs::read_dir(CORPUS_DIR)
        .map_err(|e| format!("{CORPUS_DIR}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    if files.len() != CORPUS_FILES {
        return Err(format!(
            "{CORPUS_DIR}/ holds {} scenario files, the corpus workload flies {CORPUS_FILES}",
            files.len()
        ));
    }
    files.iter().map(|p| compile_file(p, metrics)).collect()
}

fn compile_file(path: &Path, golden: &Json) -> Result<CorpusFile, String> {
    let spec = rfly_scenario::load(path).map_err(|e| e.to_string())?;
    let compiled = rfly_scenario::compile(&spec).map_err(|e| format!("{}: {e}", path.display()))?;
    let name = &compiled.spec.name;
    let metric = |m: &str| {
        golden
            .get(&format!("{name}.{m}"))
            .and_then(Json::as_f64)
            .ok_or(format!("{CORPUS_GOLDEN} has no {name}.{m}"))
    };
    let golden = (
        metric("unique_tags")?,
        metric("read_rate")?,
        metric("steps")?,
        metric("handoffs")?,
    );
    Ok(CorpusFile { compiled, golden })
}

impl CorpusFile {
    /// One flight: supervised when the file schedules faults, with tag
    /// motion otherwise; checked against the committed golden metrics.
    fn fly(&self, tr: Option<&mut Trace>) -> Result<Output, String> {
        let c = &self.compiled;
        let mut world = c.world();
        let mut out = Output::default();
        let (inventory, steps, duration_s) = if c.spec.faults.any() {
            let sup = SupervisorConfig::default();
            let o = match tr {
                None => rfly_faults::supervisor::run_supervised(
                    &mut world,
                    &c.plan,
                    &c.partition,
                    &c.mission_env(),
                    &c.mission,
                    &c.faults,
                    &sup,
                ),
                Some(tr) => supervised_replica(
                    MissionState::new(&c.plan, &c.partition, &c.mission),
                    &mut world,
                    &c.mission_env(),
                    &c.mission,
                    &c.faults,
                    &sup,
                    tr,
                ),
            };
            supervision_output(&mut out, &o);
            (o.inventory, o.steps, o.duration_s)
        } else {
            let o = match tr {
                None => run_mission_with_motion(
                    &mut world,
                    &c.plan,
                    &c.partition,
                    &c.budget,
                    &c.mission,
                    &c.motion,
                ),
                Some(tr) => mission_replica(
                    &mut world,
                    &c.plan,
                    &c.partition,
                    &c.budget,
                    &c.mission,
                    &c.motion,
                    tr,
                ),
            };
            (o.inventory, o.steps, o.duration_s)
        };
        let flown = (
            inventory.unique_tags() as f64,
            inventory.read_rate(c.n_tags()),
            steps as f64,
            inventory.handoffs() as f64,
        );
        if flown != self.golden {
            return Err(format!(
                "{}: (unique_tags, read_rate, steps, handoffs) = {flown:?}, golden {:?}",
                c.spec.name, self.golden
            ));
        }
        inventory_output(&mut out, &inventory, steps, duration_s);
        Ok(out)
    }
}

/// What the supervisor adds to a mission's output: how much it had to
/// do, per-relay track coherence, and the end-of-mission localization.
fn supervision_output(out: &mut Output, o: &ResilientOutcome) {
    out.usize(o.log.faults.len());
    out.usize(o.log.recoveries.len());
    for &c in &o.coherence {
        out.f64(c);
    }
    for loc in &o.localization {
        out.bytes(&loc.epc.0);
        out.usize(loc.relay);
        out.u64(match loc.method {
            LocMethod::Sar => 0,
            LocMethod::RssiFallback => 1,
            LocMethod::Unavailable => 2,
        });
        match loc.estimate {
            Some(p) => {
                out.f64(p.x);
                out.f64(p.y);
            }
            None => out.u64(u64::MAX),
        }
    }
}

/// `run_supervised` from a fresh `state`, step by step through the
/// public stepper.
fn supervised_replica(
    mut state: MissionState,
    world: &mut PhasorWorld,
    env: &MissionEnv<'_>,
    cfg: &MissionConfig,
    schedule: &FaultSchedule,
    sup: &SupervisorConfig,
    tr: &mut Trace,
) -> ResilientOutcome {
    while !state.finished() {
        tr.time("faults.advance_ms", || {
            state.advance(world, env, cfg, schedule, Some(sup))
        });
    }
    tr.time("faults.outcome_ms", || state.into_outcome(env, Some(sup)))
}

// ---- localize: one Fig. 12 building-wide localization trial.

/// Waypoints of the single-relay pass (3 m at ~10 cm spacing).
const TRAJECTORY_POINTS: usize = 31;
/// Candidate reader positions drawn before falling back.
const READER_DRAWS: usize = 150;
/// SAR and RSSI grid resolution, meters.
const LOC_RESOLUTION: f64 = 0.04;
/// Gen2 rounds per waypoint stop.
const LOC_MAX_ROUNDS: usize = 6;

/// One trial's geometry: where the tag sits, where the reader stands,
/// the drone's pass, and the one-sided search region.
#[derive(Debug)]
struct Trial {
    seed: u64,
    tag: Point2,
    reader: Point2,
    traj: Trajectory,
    region: (Point2, Point2),
}

impl Trial {
    fn draw(scene: &Scene, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        // A tag on a random shelf face, 0.15–0.9 m deep and ±1 m along
        // it; the drone flies a 3 m pass down the nearest aisle.
        let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
        let tag = Point2::new(
            spot.x + rng.gen_range(-1.0..1.0),
            spot.y + 0.3 - rng.gen_range(0.15..0.9),
        );
        let aisle = scene
            .aisles
            .iter()
            .min_by(|a, b| {
                a.midpoint()
                    .distance(tag)
                    .total_cmp(&b.midpoint().distance(tag))
            })
            .ok_or("the scene has no aisles")?;
        let y = aisle.a.y;
        let traj = Trajectory::line(
            Point2::new(tag.x - 1.5, y),
            Point2::new(tag.x + 1.5, y),
            TRAJECTORY_POINTS,
        );
        // The reader stands anywhere in the building from which the
        // relay is reachable: rejection-sample against the traced
        // reader→relay loss.
        let center = Point2::new(tag.x, y);
        let f = Hertz::mhz(915.0);
        let reader = (0..READER_DRAWS)
            .map(|_| Point2::new(rng.gen_range(1.0..29.0), rng.gen_range(1.0..39.0)))
            .find(|&cand| {
                let h = scene.environment.trace(cand, center, f).channel(f);
                cand.distance(tag) > 8.0 && -10.0 * h.norm_sq().log10() <= 72.0
            })
            .unwrap_or(Point2::new((tag.x - 10.0).max(1.0), y));
        let region = if tag.y > y {
            (
                Point2::new(tag.x - 3.0, y + 0.1),
                Point2::new(tag.x + 3.0, y + 4.0),
            )
        } else {
            (
                Point2::new(tag.x - 3.0, y - 4.0),
                Point2::new(tag.x + 3.0, y - 0.1),
            )
        };
        Ok(Self {
            seed,
            tag,
            reader,
            traj,
            region,
        })
    }

    /// The trial's output: SAR and RSSI error bits, or "not localized".
    fn fly(&self, env: &Environment, tr: Option<&mut Trace>) -> Output {
        let mut out = Output::default();
        match self.localize(env, tr) {
            Some((sar, rssi)) => {
                out.u64(1);
                out.f64(sar);
                out.f64(rssi);
            }
            None => out.u64(0),
        }
        out
    }

    /// Flies the pass, disentangles, and localizes by SAR and by RSSI:
    /// `(sar_error_m, rssi_error_m)`, or `None` when not localized.
    fn localize(&self, env: &Environment, mut tr: Option<&mut Trace>) -> Option<(f64, f64)> {
        let Trial {
            seed,
            tag,
            reader,
            ref traj,
            region,
        } = *self;
        let config = ReaderConfig::usrp_default();
        let mut tags = TagPopulation::new();
        tags.add(
            PassiveTag::new(Epc::from_index(0), seed, tag),
            "trial-tag".into(),
        );
        let relay = RelayModel::prototype(config.frequency);
        let f2 = relay.f2;
        let local_mag = relay.embedded_local.abs();
        let mut world = PhasorWorld::new(env.clone(), reader, config.clone(), tags, relay, seed);

        let mut tag_track: Vec<Option<Complex>> = vec![None; traj.len()];
        let mut emb_track: Vec<Option<Complex>> = vec![None; traj.len()];
        for (i, &pos) in traj.points().iter().enumerate() {
            world.power_cycle_tags();
            let mut controller = InventoryController::new(
                config.clone(),
                StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37)),
            );
            let n_tags = world.tags.len();
            let w = &mut world;
            let medium = span(&mut tr, "sim.medium_build_ms", move || {
                WorldMedium::relayed(w, pos)
            });
            for read in inventory_stop(&mut tr, &mut controller, medium, LOC_MAX_ROUNDS, n_tags) {
                if read.epc == PhasorWorld::embedded_epc() {
                    emb_track[i] = Some(read.channel);
                } else {
                    tag_track[i] = Some(read.channel);
                }
            }
        }

        let (used, channels) = span(&mut tr, "loc.disentangle_ms", || {
            let mut pairs = Vec::new();
            let mut pts = Vec::new();
            for (i, (t, e)) in tag_track.iter().zip(&emb_track).enumerate() {
                if let (Some(t), Some(e)) = (t, e) {
                    pairs.push(PairedMeasurement {
                        tag: *t,
                        embedded: *e,
                    });
                    pts.push(traj.points()[i]);
                }
            }
            if pairs.len() < 3 {
                return None;
            }
            let (kept, channels) = disentangle_filtered(&pairs);
            Some((
                Trajectory::from_points(kept.iter().map(|&i| pts[i]).collect()),
                channels,
            ))
        })?;

        let sar = SarLocalizer::new(f2, region.0, region.1, LOC_RESOLUTION);
        let (est, map) = span(&mut tr, "loc.sar_ms", || sar.localize(&used, &channels))?;
        let sar_err = est.distance(tag);
        if let Some(tr) = tr.as_deref_mut() {
            tr.add(
                "loc.sar_cells",
                (map.nx() * map.ny() * channels.len()) as f64,
            );
            tr.sample("loc.sar_err_m", sar_err);
        }

        // The disentangled channel is h₂²/local, so its 1 m reference
        // amplitude is the free-space round-trip amplitude over `local`.
        let rssi = RssiLocalizer {
            frequency: f2,
            region_min: region.0,
            region_max: region.1,
            resolution: LOC_RESOLUTION,
            reference_amplitude_1m: rfly_channel::pathloss::free_space_amplitude(
                Meters::new(1.0),
                f2,
            )
            .powi(2)
                / local_mag,
        };
        let rssi_err =
            span(&mut tr, "loc.rssi_ms", || rssi.localize(&used, &channels))?.distance(tag);
        Some((sar_err, rssi_err))
    }
}

// ---- durable-storm: the journaled supervised mission, stored and then
// recovered from a torn tail.

/// Mission steps the storm schedule spans.
const STORM_STEPS: usize = 12;
/// Checkpoint after every step.
const CHECKPOINT_EVERY: usize = 1;

fn durable_storm_unit(
    scn: &Scenario,
    storm: &FaultSchedule,
    mut tr: Option<&mut Trace>,
) -> Result<Output, String> {
    let paths = StorePaths::default();
    let (store, run) = match tr.as_deref_mut() {
        None => {
            let mut store = MemStorage::new();
            let run = run_stored(scn, storm, &mut store, &paths, CHECKPOINT_EVERY)?;
            (store, run)
        }
        Some(tr) => {
            let mut store = TimedStorage::new(MemStorage::new());
            let run = stored_replica(scn, storm, &mut store, &paths, tr)?;
            tr.merge(&store.trace);
            tr.add("faults.recoveries", run.outcome.log.recoveries.len() as f64);
            (store.inner, run)
        }
    };

    // Power dies mid-append: the journal keeps a seeded byte prefix and
    // no checkpoint, and recovery must rebuild the uncrashed bytes.
    let journal_bytes = store.read(&paths.journal).map_err(|e| e.to_string())?;
    let cut = StdRng::seed_from_u64(scn.seed ^ 0xC0FFEE).gen_range(0..journal_bytes.len() + 1);
    let torn = &journal_bytes[..cut];
    if let Some(tr) = tr.as_deref_mut() {
        tr.time("replay.salvage_ms", || salvage_journal(torn));
    }
    let mut crashed = MemStorage::new();
    crashed
        .append(&paths.journal, torn)
        .map_err(|e| e.to_string())?;
    let recovered = span(&mut tr, "replay.recover_ms", || {
        recover_stored(scn, storm, &mut crashed, &paths, CHECKPOINT_EVERY)
    })?;
    if let Some(diff) = crashed.first_difference(&store) {
        return Err(format!("recovery is not byte-identical: {diff}"));
    }
    if recovered.journal != run.journal {
        return Err("recovered journal differs from the uncrashed run".to_string());
    }

    let mut out = Output::default();
    for (path, bytes) in store.files() {
        out.bytes(path.as_bytes());
        out.bytes(bytes);
    }
    Ok(out)
}

/// `run_stored`, step by step from public calls.
fn stored_replica(
    scn: &Scenario,
    storm: &FaultSchedule,
    storage: &mut TimedStorage<MemStorage>,
    paths: &StorePaths,
    tr: &mut Trace,
) -> Result<Run, String> {
    let mut m = tr.time("replay.build_ms", || scn.build())?;
    let sup = SupervisorConfig::default();
    let sup_opt = scn.supervised.then_some(&sup);
    let env = MissionEnv {
        scene: &m.scene,
        budget: m.budget,
        margin: m.margin,
        limits: m.limits,
    };
    let io = |e: rfly_chaos::StorageError| e.to_string();
    let header = tr.time("replay.journal_encode_ms", || journal::header_text(scn));
    storage
        .append(&paths.journal, header.as_bytes())
        .map_err(io)?;
    let mut state = MissionState::new(&m.plan, &m.part, &m.cfg);
    let mut jrnl = Journal::begin(scn.clone());
    while !state.finished() {
        let step = state.step();
        let rec = tr.time("faults.advance_ms", || {
            state.advance(&mut m.world, &env, &m.cfg, storm, sup_opt)
        });
        let block = tr.time("replay.journal_encode_ms", || journal::step_block(&rec));
        storage
            .append(&paths.journal, block.as_bytes())
            .map_err(io)?;
        jrnl.push(&rec);
        if (step + 1).is_multiple_of(CHECKPOINT_EVERY) {
            let text = tr.time("replay.checkpoint_encode_ms", || {
                Checkpoint {
                    mission: state.snapshot(),
                    world: m.world.snapshot(),
                }
                .to_text()
            });
            storage
                .write_atomic(&paths.checkpoint, text.as_bytes())
                .map_err(io)?;
        }
    }
    let final_cp = tr.time("replay.checkpoint_encode_ms", || {
        Checkpoint {
            mission: state.snapshot(),
            world: m.world.snapshot(),
        }
        .to_text()
    });
    let outcome = tr.time("faults.outcome_ms", || state.into_outcome(&env, sup_opt));
    jrnl.seal(outcome.steps, Seconds::new(outcome.duration_s));
    let seal = jrnl.sealed.ok_or("sealed journal lost its seal")?;
    let seal = tr.time("replay.journal_encode_ms", || journal::seal_text(&seal));
    storage
        .append(&paths.journal, seal.as_bytes())
        .map_err(io)?;
    storage
        .write_atomic(&paths.checkpoint, final_cp.as_bytes())
        .map_err(io)?;
    Ok(Run {
        journal: jrnl,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_sim::motion::Belt;

    /// A 2-relay, 20-tag mission over a 16 × 12 m warehouse.
    fn small_mission(seed: u64) -> (Partition, ChannelPlan, PhasorWorld, MissionConfig) {
        let scene = Scene::warehouse(16.0, 12.0, 2);
        let part = partition(&scene, 2, MotionLimits::indoor_drone()).expect("cells fit");
        let hover: Vec<Point2> = part.cells.iter().map(|c| c.center()).collect();
        let plan = assign(&hover, &paper_budget(), Db::new(10.0), seed).expect("feasible");
        let tags = TagPopulation::generate(20, &scene.tag_spots, seed);
        let world = mission_world(
            &scene,
            Point2::new(1.0, 1.0),
            tags,
            &plan,
            &paper_budget(),
            seed,
        );
        let cfg = MissionConfig {
            sample_interval_s: 8.0,
            max_rounds: 2,
            seed,
            time_budget_s: None,
        };
        (part, plan, world, cfg)
    }

    #[test]
    fn mission_replica_equals_run_mission() {
        // The shelf face at y = 3.7 m rides a belt in the second case.
        let belt = Belt {
            y: Meters::new(3.7),
            x_min: Meters::new(2.0),
            x_max: Meters::new(14.0),
            speed: 0.5,
        };
        for motion in [TagMotion::none(), TagMotion::from_belts(vec![belt])] {
            let (part, plan, mut lib_world, cfg) = small_mission(5);
            let (_, _, mut rep_world, _) = small_mission(5);
            let budget = paper_budget();
            let lib = run_mission_with_motion(&mut lib_world, &plan, &part, &budget, &cfg, &motion);
            let mut tr = Trace::default();
            let rep = mission_replica(
                &mut rep_world,
                &plan,
                &part,
                &budget,
                &cfg,
                &motion,
                &mut tr,
            );
            assert!(lib.inventory.unique_tags() > 0, "the mission reads tags");
            assert_eq!(lib, rep);
            assert_eq!(lib_world.snapshot(), rep_world.snapshot());
            assert!(tr.sums["sim.transactions"] > 0.0);
            assert!(tr.sums["sim.rf_plan_ms"] > 0.0);
        }
    }

    #[test]
    fn supervised_replica_equals_run_supervised() {
        let scn = Scenario::small(3);
        let storm = FaultSchedule::storm(3, scn.n_relays, STORM_STEPS);
        let sup = SupervisorConfig::default();
        let run = |tr: Option<&mut Trace>| {
            let mut m = scn.build().expect("builds");
            let env = MissionEnv {
                scene: &m.scene,
                budget: m.budget,
                margin: m.margin,
                limits: m.limits,
            };
            let o = match tr {
                None => rfly_faults::supervisor::run_supervised(
                    &mut m.world,
                    &m.plan,
                    &m.part,
                    &env,
                    &m.cfg,
                    &storm,
                    &sup,
                ),
                Some(tr) => supervised_replica(
                    MissionState::new(&m.plan, &m.part, &m.cfg),
                    &mut m.world,
                    &env,
                    &m.cfg,
                    &storm,
                    &sup,
                    tr,
                ),
            };
            let mut out = Output::default();
            supervision_output(&mut out, &o);
            inventory_output(&mut out, &o.inventory, o.steps, o.duration_s);
            out
        };
        let mut tr = Trace::default();
        assert_eq!(run(None), run(Some(&mut tr)));
        assert!(tr.sums["faults.advance_ms"] > 0.0);
    }

    #[test]
    fn stored_replica_equals_run_stored() {
        let scn = Scenario::small(1);
        let storm = FaultSchedule::storm(1, scn.n_relays, STORM_STEPS);
        let paths = StorePaths::default();
        let mut lib_store = MemStorage::new();
        let lib =
            run_stored(&scn, &storm, &mut lib_store, &paths, CHECKPOINT_EVERY).expect("stored run");
        let mut tr = Trace::default();
        let mut rep_store = TimedStorage::new(MemStorage::new());
        let rep = stored_replica(&scn, &storm, &mut rep_store, &paths, &mut tr).expect("replica");
        assert_eq!(lib_store, rep_store.inner);
        assert_eq!(lib.journal, rep.journal);
        assert_eq!(
            rep_store.trace.sums["chaos.storage_calls"],
            // header, one block and one checkpoint per step, seal, final
            // checkpoint
            (2 * lib.outcome.steps + 3) as f64
        );
    }

    #[test]
    fn durable_storm_unit_recovers_and_traces_identically() {
        let scn = Scenario::small(9);
        let storm = FaultSchedule::storm(9, scn.n_relays, STORM_STEPS);
        let mut tr = Trace::default();
        let plain = durable_storm_unit(&scn, &storm, None).expect("recovers");
        let traced = durable_storm_unit(&scn, &storm, Some(&mut tr)).expect("recovers");
        assert_eq!(plain, traced);
        assert!(tr.sums["replay.recover_ms"] > 0.0);
        assert!(tr.sums["chaos.bytes_written"] > 0.0);
    }

    #[test]
    fn traced_localize_trial_equals_untraced() {
        let scene = Scene::paper_building();
        let trial = Trial::draw(&scene, unit_seed(DEFAULT_SEED, 0)).expect("trial");
        let mut tr = Trace::default();
        let plain = trial.fly(&scene.environment, None);
        let traced = trial.fly(&scene.environment, Some(&mut tr));
        assert_eq!(plain, traced);
        assert_eq!(plain.0[..8], 1u64.to_le_bytes(), "the trial localizes");
        assert!(tr.sums["loc.sar_cells"] > 0.0);
        assert!(tr.sums["sim.transactions"] > 0.0);
    }

    #[test]
    fn slices_cover_every_unit_once() {
        for w in Workload::ALL {
            let covered: Vec<usize> = (0..SLICES).flat_map(|i| w.slice(i)).collect();
            assert_eq!(covered, (0..w.units()).collect::<Vec<_>>(), "{}", w.name());
        }
    }
}

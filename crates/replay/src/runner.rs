//! The deterministic mission runner: a self-contained [`Scenario`]
//! spec that rebuilds the *identical* world from its parameters alone,
//! the [`MissionRun`] stepper that journals every step and checkpoints
//! at any step boundary, and [`run_full`], which flies it start to
//! finish in memory. Resuming a killed mission is the durable engine's
//! job: [`crate::store::recover_stored`] restores a [`MissionRun`] from
//! its checkpoint and salvaged journal.
//!
//! The scenario line is the root of reproducibility: a repro file or a
//! journal header carries it verbatim, so a triage session months later
//! reconstructs the same warehouse, tag population, channel plan, and
//! RNG streams from one line of text.

use std::fmt;

use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::units::{Db, Seconds};
use rfly_faults::supervisor::{MissionEnv, MissionState, StepRecord, SupervisorConfig};
use rfly_faults::text::{Fields, ParseError, Shortest};
use rfly_faults::{FaultSchedule, ResilientOutcome};
use rfly_fleet::channels::ChannelPlan;
use rfly_fleet::inventory::{seeded_mission, MissionConfig};
use rfly_fleet::partition::Partition;
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;

use crate::checkpoint::{Checkpoint, CheckpointWriter};
use crate::journal::Journal;

/// Everything needed to rebuild a mission deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Fleet size.
    pub n_relays: usize,
    /// Tag population size.
    pub n_tags: usize,
    /// The master seed: world noise, tag placement, channel hopping.
    pub seed: u64,
    /// Warehouse width, meters.
    pub width_m: f64,
    /// Warehouse depth, meters.
    pub depth_m: f64,
    /// Shelf rows in the warehouse.
    pub shelves: usize,
    /// Seconds of flight between inventory stops.
    pub sample_interval_s: f64,
    /// Gen2 rounds per (stop, relay).
    pub max_rounds: usize,
    /// The Eq. 3 design margin, dB.
    pub margin_db: f64,
    /// Whether the recovery ladder is active.
    pub supervised: bool,
}

/// The stable one-line form embedded in journals and repro files.
impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario relays={} tags={} seed={} w={} d={} shelves={} interval={} rounds={} \
             margin={} supervised={}",
            self.n_relays,
            self.n_tags,
            self.seed,
            Shortest(self.width_m),
            Shortest(self.depth_m),
            self.shelves,
            Shortest(self.sample_interval_s),
            self.max_rounds,
            Shortest(self.margin_db),
            u8::from(self.supervised),
        )
    }
}

impl Scenario {
    /// The small triage scenario: 2 relays, 10 tags, a 16×12 m
    /// warehouse — big enough to exercise every recovery rung, small
    /// enough that a shrink session's dozens of re-runs stay cheap.
    pub fn small(seed: u64) -> Self {
        Self {
            n_relays: 2,
            n_tags: 10,
            seed,
            width_m: 16.0,
            depth_m: 12.0,
            shelves: 2,
            sample_interval_s: 8.0,
            max_rounds: 2,
            margin_db: 10.0,
            supervised: true,
        }
    }

    /// Parses the [`Display`](fmt::Display) line.
    pub fn from_line(line: &str, line_no: usize) -> Result<Self, ParseError> {
        let mut f = Fields::new(line, line_no);
        f.expect_tok("scenario")?;
        let scn = Self {
            n_relays: f.kv_usize("relays")?,
            n_tags: f.kv_usize("tags")?,
            seed: {
                let v = f.kv("seed")?;
                v.parse().map_err(|_| f.error(format!("bad seed {v:?}")))?
            },
            width_m: f.kv_f64("w")?,
            depth_m: f.kv_f64("d")?,
            shelves: f.kv_usize("shelves")?,
            sample_interval_s: f.kv_f64("interval")?,
            max_rounds: f.kv_usize("rounds")?,
            margin_db: f.kv_f64("margin")?,
            supervised: f.kv_usize("supervised")? != 0,
        };
        f.finish()?;
        Ok(scn)
    }

    /// Builds the full mission context: scene, partition, channel plan,
    /// phasor world, and pacing config — a pure function of `self`.
    pub fn build(&self) -> Result<Mission, String> {
        let scene = Scene::warehouse(self.width_m, self.depth_m, self.shelves);
        let budget = IsolationBudget::fig9();
        let margin = Db::new(self.margin_db);
        let (part, plan, world) = seeded_mission(
            &scene,
            self.n_relays,
            self.n_tags,
            &budget,
            margin,
            self.seed,
        )?;
        let cfg = MissionConfig {
            sample_interval_s: self.sample_interval_s,
            max_rounds: self.max_rounds,
            seed: self.seed,
            time_budget_s: None,
        };
        Ok(Mission {
            scene,
            plan,
            part,
            world,
            cfg,
            budget,
            margin,
            limits: MotionLimits::indoor_drone(),
        })
    }
}

/// A built mission: the world plus every static input the supervisor
/// needs.
#[derive(Debug)]
pub struct Mission {
    /// The warehouse floor.
    pub scene: Scene,
    /// The Δf channel plan.
    pub plan: ChannelPlan,
    /// The coverage partition.
    pub part: Partition,
    /// The phasor-level world.
    pub world: PhasorWorld,
    /// Mission pacing.
    pub cfg: MissionConfig,
    /// The relays' isolation budget.
    pub budget: IsolationBudget,
    /// The Eq. 3 design margin.
    pub margin: Db,
    /// Drone motion limits.
    pub limits: MotionLimits,
}

impl Mission {
    /// The supervisor's static context, beside the world it flies: the
    /// two borrow disjoint fields, so a step can hold both at once.
    pub fn env(&mut self) -> (MissionEnv<'_>, &mut PhasorWorld) {
        let env = MissionEnv {
            scene: &self.scene,
            budget: self.budget,
            margin: self.margin,
            limits: self.limits,
        };
        (env, &mut self.world)
    }
}

/// A completed, journaled mission.
#[derive(Debug)]
pub struct Run {
    /// The step-by-step record.
    pub journal: Journal,
    /// The mission outcome.
    pub outcome: ResilientOutcome,
}

/// A journaled mission in flight: the step-by-step form of
/// [`run_full`], and the stepper [`crate::store`] makes durable.
#[derive(Debug)]
pub struct MissionRun<'a> {
    pub(crate) scenario: &'a Scenario,
    schedule: &'a FaultSchedule,
    mission: Mission,
    pub(crate) state: MissionState,
    pub(crate) journal: Journal,
    /// Encodes this run's checkpoints, reusing the text of the tracks
    /// and log it has already written.
    writer: CheckpointWriter,
}

impl<'a> MissionRun<'a> {
    /// Builds `scenario` at step zero, to fly under `schedule`.
    pub fn new(scenario: &'a Scenario, schedule: &'a FaultSchedule) -> Result<Self, String> {
        let mission = scenario.build()?;
        let state = MissionState::new(&mission.plan, &mission.part, &mission.cfg);
        Ok(Self {
            scenario,
            schedule,
            mission,
            state,
            journal: Journal::begin(scenario.clone()),
            writer: CheckpointWriter::default(),
        })
    }

    /// Restores the world and the supervisor to `checkpoint`.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), String> {
        self.mission
            .world
            .restore(&checkpoint.world)
            .map_err(|e| format!("world restore failed: {e}"))?;
        self.state = checkpoint.mission.clone();
        // The restored history need not extend what the writer cached.
        self.writer = CheckpointWriter::default();
        Ok(())
    }

    /// Whether the mission has finished.
    pub fn finished(&self) -> bool {
        self.state.finished()
    }

    /// Executes one step, journals it, and returns its record.
    pub fn advance(&mut self) -> StepRecord {
        let sup = self.scenario.supervised.then_some(&SupervisorConfig);
        let cfg = self.mission.cfg;
        let (env, world) = self.mission.env();
        let rec = self.state.advance(world, &env, &cfg, self.schedule, sup);
        rfly_obs::counter_add("replay.steps_journaled", 1);
        self.journal.push(&rec);
        rec
    }

    /// The full mission state at the current step boundary.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            mission: self.state.snapshot(),
            world: self.mission.world.snapshot(),
        }
    }

    /// The text of [`Self::checkpoint`], encoded from the live state by
    /// the run's writer: only the track and log entries added since the
    /// last call are formatted.
    pub fn checkpoint_text(&mut self) -> String {
        self.writer
            .encode(&self.state, &self.mission.world.snapshot())
    }

    /// Ends the mission: localization, the outcome, and the sealed
    /// journal.
    pub fn into_run(self) -> Run {
        let mut mission = self.mission;
        let sup = self.scenario.supervised.then_some(&SupervisorConfig);
        let outcome = self.state.into_outcome(&mission.env().0, sup);
        let mut journal = self.journal;
        journal.seal(outcome.steps, Seconds::new(outcome.duration_s));
        Run { journal, outcome }
    }
}

/// Flies `scenario` under `schedule` start to finish, journaling every
/// step.
pub fn run_full(scenario: &Scenario, schedule: &FaultSchedule) -> Result<Run, String> {
    let _span = rfly_obs::span("replay.run_full");
    let mut run = MissionRun::new(scenario, schedule)?;
    while !run.finished() {
        run.advance();
    }
    Ok(run.into_run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_line_round_trips() {
        let scn = Scenario::small(42);
        let line = scn.to_string();
        let back = Scenario::from_line(&line, 1).expect("parses");
        assert_eq!(back, scn);
        assert_eq!(back.to_string(), line);
    }

    #[test]
    fn scenario_line_rejects_garbage() {
        assert!(Scenario::from_line("scenario relays=x", 3).is_err());
        assert!(Scenario::from_line("scene relays=2", 3).is_err());
    }

    #[test]
    fn build_is_deterministic() {
        let scn = Scenario::small(7);
        let a = scn.build().expect("builds");
        let b = scn.build().expect("builds");
        assert_eq!(a.plan.f1, b.plan.f1);
        assert_eq!(a.world.snapshot().rng, b.world.snapshot().rng);
        assert_eq!(a.part.cells.len(), scn.n_relays);
    }
}

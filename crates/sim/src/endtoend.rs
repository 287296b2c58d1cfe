//! End-to-end scenarios: fly the relay, inventory, disentangle,
//! localize — the whole RFly pipeline in one call.

use rfly_dsp::rng::StdRng;

use rfly_channel::geometry::Point2;
use rfly_core::loc::disentangle::{isolate_track, paired_reads};
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::units::Hertz;
use rfly_dsp::Complex;
use rfly_protocol::epc::Epc;
use rfly_reader::config::ReaderConfig;
use rfly_reader::inventory::InventoryController;
use rfly_tag::population::TagPopulation;
use rfly_tag::tag::PassiveTag;

use crate::medium::WorldMedium;
use crate::scene::Scene;
use crate::world::{PhasorWorld, RelayModel};

/// Cell size of the SAR grid search, meters.
const SAR_GRID_RESOLUTION_M: f64 = 0.05;

/// Builder for a complete experiment scenario.
#[derive(Debug)]
pub struct ScenarioBuilder {
    scene: Scene,
    reader_pos: Point2,
    tag_positions: Vec<Point2>,
    trajectory: Option<Trajectory>,
    seed: u64,
    config: ReaderConfig,
    relay: Option<RelayModel>,
    search_region: Option<(Point2, Point2)>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Starts a scenario on a default 60 × 12 m open floor.
    pub fn new() -> Self {
        Self {
            scene: Scene::open_floor(60.0, 12.0),
            reader_pos: Point2::new(1.0, 1.0),
            tag_positions: Vec::new(),
            trajectory: None,
            seed: 0,
            config: ReaderConfig::usrp_default(),
            relay: None,
            search_region: None,
        }
    }

    /// Replaces the scene.
    pub fn scene(mut self, scene: Scene) -> Self {
        self.scene = scene;
        self
    }

    /// Places the reader antenna.
    pub fn reader_at(mut self, p: Point2) -> Self {
        self.reader_pos = p;
        self
    }

    /// Adds a tag (repeatable).
    pub fn tag_at(mut self, p: Point2) -> Self {
        self.tag_positions.push(p);
        self
    }

    /// Sets the drone's measurement trajectory.
    pub fn flight_path(mut self, t: Trajectory) -> Self {
        self.trajectory = Some(t);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the relay model (e.g. a no-mirror ablation).
    pub fn relay_model(mut self, relay: RelayModel) -> Self {
        self.relay = Some(relay);
        self
    }

    /// Overrides the SAR search region (otherwise derived from the
    /// tag/trajectory geometry).
    pub fn search_region(mut self, min: Point2, max: Point2) -> Self {
        self.search_region = Some((min, max));
        self
    }

    /// Finalizes the scenario.
    ///
    /// Panics if no trajectory was provided or no tag placed.
    pub fn build(self) -> Scenario {
        #[expect(
            clippy::expect_used,
            reason = "documented builder contract: build() panics without a flight path"
        )]
        let trajectory = self.trajectory.expect("a scenario needs a flight path");
        assert!(
            !self.tag_positions.is_empty(),
            "a scenario needs at least one tag"
        );
        let mut tags = TagPopulation::new();
        for (i, p) in self.tag_positions.iter().enumerate() {
            tags.add(
                PassiveTag::new(Epc::from_index(i as u64), self.seed ^ (i as u64 + 1), *p),
                format!("scenario-tag-{i}"),
            );
        }
        let relay = self
            .relay
            .unwrap_or_else(|| RelayModel::prototype(self.config.frequency));
        let region = self
            .search_region
            .unwrap_or_else(|| auto_region(&self.scene, &trajectory, &self.tag_positions));
        let world = PhasorWorld::new(
            self.scene.environment.clone(),
            self.reader_pos,
            self.config.clone(),
            tags,
            relay,
            self.seed,
        );
        Scenario {
            world,
            trajectory,
            config: self.config,
            region,
            seed: self.seed,
            truths: self.tag_positions,
        }
    }
}

/// Derives a search region: the bounding box of tags + trajectory
/// expanded by 2 m and clamped to the scene — one-sided against the
/// trajectory's mirror axis when the trajectory is a straight
/// horizontal/vertical line with every tag on one side (the linear-array
/// mirror ambiguity cannot be broken by measurements alone).
fn auto_region(scene: &Scene, traj: &Trajectory, tags: &[Point2]) -> (Point2, Point2) {
    let mut min = Point2::new(f64::MAX, f64::MAX);
    let mut max = Point2::new(f64::MIN, f64::MIN);
    for p in traj.points().iter().chain(tags) {
        min = Point2::new(min.x.min(p.x), min.y.min(p.y));
        max = Point2::new(max.x.max(p.x), max.y.max(p.y));
    }
    let mut lo = Point2::new(
        (min.x - 2.0).max(scene.min.x),
        (min.y - 2.0).max(scene.min.y),
    );
    let mut hi = Point2::new(
        (max.x + 2.0).min(scene.max.x),
        (max.y + 2.0).min(scene.max.y),
    );

    let ty: Vec<f64> = traj.points().iter().map(|p| p.y).collect();
    let tx: Vec<f64> = traj.points().iter().map(|p| p.x).collect();
    let y_span =
        ty.iter().cloned().fold(f64::MIN, f64::max) - ty.iter().cloned().fold(f64::MAX, f64::min);
    let x_span =
        tx.iter().cloned().fold(f64::MIN, f64::max) - tx.iter().cloned().fold(f64::MAX, f64::min);
    if y_span < 0.1 {
        let line_y = ty[0];
        if tags.iter().all(|p| p.y > line_y) {
            lo = Point2::new(lo.x, lo.y.max(line_y + 0.1));
        } else if tags.iter().all(|p| p.y < line_y) {
            hi = Point2::new(hi.x, hi.y.min(line_y - 0.1));
        }
    } else if x_span < 0.1 {
        let line_x = tx[0];
        if tags.iter().all(|p| p.x > line_x) {
            lo = Point2::new(lo.x.max(line_x + 0.1), lo.y);
        } else if tags.iter().all(|p| p.x < line_x) {
            hi = Point2::new(hi.x.min(line_x - 0.1), hi.y);
        }
    }
    (lo, hi)
}

/// A built scenario, ready to run.
#[derive(Debug)]
pub struct Scenario {
    world: PhasorWorld,
    trajectory: Trajectory,
    config: ReaderConfig,
    region: (Point2, Point2),
    seed: u64,
    truths: Vec<Point2>,
}

/// One tag's reads along the trajectory: `Some((channel, position_idx))`
/// entries where the tag decoded.
type ReadTrack = Vec<Option<Complex>>;

impl Scenario {
    /// Flies the trajectory, inventorying at every position through the
    /// relay.
    pub fn run(mut self) -> ScenarioOutcome {
        let k = self.trajectory.len();
        let mut tracks: std::collections::BTreeMap<Epc, ReadTrack> = Default::default();
        for (idx, pos) in self.trajectory.points().to_vec().into_iter().enumerate() {
            self.world.power_cycle_tags();
            let mut controller = InventoryController::new(
                self.config.clone(),
                StdRng::seed_from_u64(self.seed ^ (idx as u64).wrapping_mul(0x9E3779B9)),
            );
            let mut medium = WorldMedium::relayed(&mut self.world, pos);
            let reads = controller.run_until_quiet(&mut medium, 6);
            for r in reads {
                tracks.entry(r.epc).or_insert_with(|| vec![None; k])[idx] = Some(r.channel);
            }
        }
        ScenarioOutcome {
            trajectory: self.trajectory,
            tracks,
            region: self.region,
            frequency: self.world.relay.f2,
            truths: self.truths,
        }
    }
}

/// A localization result for one tag.
#[derive(Debug, Clone, Copy)]
pub struct LocalizationResult {
    /// The SAR estimate.
    pub estimate: Point2,
    /// The ground-truth position.
    pub truth: Point2,
    /// Euclidean error, meters.
    pub error_m: f64,
}

/// The data a scenario run produces.
#[derive(Debug)]
pub struct ScenarioOutcome {
    trajectory: Trajectory,
    tracks: std::collections::BTreeMap<Epc, ReadTrack>,
    region: (Point2, Point2),
    frequency: Hertz,
    truths: Vec<Point2>,
}

impl ScenarioOutcome {
    /// Fraction of trajectory positions at which the first tag was
    /// successfully read.
    pub fn read_rate(&self) -> f64 {
        self.read_rate_of(Epc::from_index(0))
    }

    /// Read rate of a specific tag.
    pub fn read_rate_of(&self, epc: Epc) -> f64 {
        let k = self.trajectory.len() as f64;
        match self.tracks.get(&epc) {
            Some(track) => track.iter().filter(|c| c.is_some()).count() as f64 / k,
            None => 0.0,
        }
    }

    /// Whether the relay was ever within the reader's range (the
    /// embedded tag decoded at least once).
    pub fn relay_seen(&self) -> bool {
        self.tracks.contains_key(&PhasorWorld::embedded_epc())
    }

    /// The per-position channels of a tag (for custom processing).
    pub fn track(&self, epc: Epc) -> Option<&ReadTrack> {
        self.tracks.get(&epc)
    }

    /// The trajectory flown.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// Localizes the first tag.
    pub fn localization(&self) -> Option<LocalizationResult> {
        self.localize_epc(Epc::from_index(0))
    }

    /// Localizes a specific tag: pairs its channels with the embedded
    /// tag's, disentangles (Eq. 10), and runs the SAR grid search with
    /// nearest-peak selection.
    pub fn localize_epc(&self, epc: Epc) -> Option<LocalizationResult> {
        let tag_track = self.tracks.get(&epc)?;
        let emb_track = self.tracks.get(&PhasorWorld::embedded_epc())?;
        let (traj, channels) =
            isolate_track(paired_reads(self.trajectory.points(), tag_track, emb_track))?;
        let localizer = SarLocalizer::new(
            self.frequency,
            self.region.0,
            self.region.1,
            SAR_GRID_RESOLUTION_M,
        );
        let (estimate, _) = localizer.localize(&traj, &channels)?;
        let truth = self
            .truths
            .get(epc_index(epc)?)
            .copied()
            .unwrap_or(Point2::ORIGIN);
        Some(LocalizationResult {
            estimate,
            truth,
            error_m: estimate.distance(truth),
        })
    }
}

/// Recovers the builder-assigned index from a scenario tag EPC.
fn epc_index(epc: Epc) -> Option<usize> {
    let bytes = epc.0;
    if &bytes[..4] != b"RFLY" {
        return None;
    }
    let mut idx = [0u8; 8];
    idx.copy_from_slice(&bytes[4..]);
    Some(u64::from_be_bytes(idx) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scenario(seed: u64) -> Scenario {
        ScenarioBuilder::new()
            .reader_at(Point2::new(1.0, 1.0))
            .tag_at(Point2::new(40.0, 3.0))
            .flight_path(Trajectory::line(
                Point2::new(38.0, 1.0),
                Point2::new(41.0, 1.0),
                31,
            ))
            .seed(seed)
            .build()
    }

    #[test]
    fn long_range_scenario_reads_and_localizes() {
        let outcome = quick_scenario(1).run();
        assert!(outcome.relay_seen());
        assert!(
            outcome.read_rate() > 0.9,
            "read rate {}",
            outcome.read_rate()
        );
        let loc = outcome.localization().expect("localizes");
        assert!(loc.error_m < 0.5, "error {} m", loc.error_m);
        assert_eq!(loc.truth, Point2::new(40.0, 3.0));
    }

    #[test]
    fn out_of_relay_range_tag_is_unread() {
        let outcome = ScenarioBuilder::new()
            .reader_at(Point2::new(1.0, 1.0))
            .tag_at(Point2::new(40.0, 3.0))
            .tag_at(Point2::new(10.0, 6.0)) // 30 m from the flight path
            .flight_path(Trajectory::line(
                Point2::new(38.0, 1.0),
                Point2::new(41.0, 1.0),
                11,
            ))
            .seed(2)
            .build()
            .run();
        assert!(outcome.read_rate_of(Epc::from_index(0)) > 0.5);
        assert_eq!(outcome.read_rate_of(Epc::from_index(1)), 0.0);
        assert!(outcome.localize_epc(Epc::from_index(1)).is_none());
    }

    #[test]
    fn auto_region_is_one_sided_for_horizontal_line() {
        let scene = Scene::open_floor(60.0, 12.0);
        let traj = Trajectory::line(Point2::new(38.0, 1.0), Point2::new(41.0, 1.0), 5);
        let (lo, hi) = auto_region(&scene, &traj, &[Point2::new(40.0, 3.0)]);
        assert!(lo.y >= 1.1, "region must exclude the mirror side");
        assert!(hi.y >= 5.0);
        assert!(lo.x <= 38.0 && hi.x >= 41.0);
    }

    #[test]
    fn auto_region_keeps_both_sides_for_lawnmower() {
        let scene = Scene::open_floor(60.0, 12.0);
        let traj = Trajectory::lawnmower(Point2::new(5.0, 2.0), Point2::new(10.0, 6.0), 3, 5);
        let (lo, hi) = auto_region(&scene, &traj, &[Point2::new(7.0, 4.0)]);
        assert!(lo.y < 2.0 && hi.y > 6.0);
    }

    #[test]
    #[should_panic(expected = "flight path")]
    fn missing_trajectory_rejected() {
        let _ = ScenarioBuilder::new().tag_at(Point2::new(1.0, 1.0)).build();
    }

    #[test]
    #[should_panic(expected = "at least one tag")]
    fn missing_tags_rejected() {
        let _ = ScenarioBuilder::new()
            .flight_path(Trajectory::line(
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                2,
            ))
            .build();
    }
}

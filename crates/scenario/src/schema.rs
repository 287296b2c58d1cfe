//! The typed scenario schema and its validation rules.
//!
//! [`ScenarioSpec`] is the fully-resolved form of a scenario file:
//! every optional key has its default filled in, every quantity is a
//! typed unit newtype, and every cross-field rule (unique relay IDs,
//! complete cell assignments, in-bounds positions, storm feasibility)
//! has been checked with a `file:line` diagnostic. A spec that exists
//! is valid; the compiler ([`crate::compile()`]) can lower it without
//! re-validating.

use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::units::{Db, Dbm, Meters, Seconds};
use rfly_faults::FaultKind;

use crate::toml::{Document, Entry, Section, Value};
use crate::ScenarioError;

/// A fully-validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used as the bench metric prefix).
    pub name: String,
    /// The master seed: tag placement, channel assignment, the mission
    /// controllers, and any fault schedule all derive from it.
    pub seed: u64,
    /// The world geometry.
    pub world: WorldSpec,
    /// External interferer field (count 0 = none).
    pub interferers: InterfererSpec,
    /// Conveyor belts carrying tags (empty = static world).
    pub belts: Vec<BeltSpec>,
    /// The reader's position.
    pub reader: Point2,
    /// The relay fleet, in file order.
    pub relays: Vec<RelaySpec>,
    /// Tag population groups, in file order.
    pub tags: Vec<TagGroupSpec>,
    /// Mission pacing and platform.
    pub mission: MissionSpec,
    /// The relays' isolation budget (defaults to the Fig. 9 medians,
    /// [`IsolationBudget::fig9`]).
    pub budget: IsolationBudget,
    /// Battery/charging model for continuous operation (`None` =
    /// single-sortie mission, no energy accounting).
    pub energy: Option<EnergySpec>,
    /// Charging docks, in file order (empty = no rotation possible).
    pub docks: Vec<DockSpec>,
    /// The fault schedule request.
    pub faults: FaultsSpec,
}

impl ScenarioSpec {
    /// The same scenario under a different master seed (the fault
    /// matrix flies one scenario file across several seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total tag count across all groups.
    pub fn n_tags(&self) -> usize {
        self.tags.iter().map(|g| g.count).sum()
    }

    /// Fleet size.
    pub fn n_relays(&self) -> usize {
        self.relays.len()
    }
}

/// World geometry families.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldSpec {
    /// A shelved warehouse floor ([`rfly_sim::scene::Scene::warehouse`]).
    Warehouse {
        /// Floor width, m.
        width: Meters,
        /// Floor depth, m.
        depth: Meters,
        /// Steel shelf rows.
        shelves: usize,
    },
    /// An empty walled floor.
    OpenFloor {
        /// Floor width, m.
        width: Meters,
        /// Floor depth, m.
        depth: Meters,
    },
    /// Stacked warehouse floors split by concrete slabs.
    MultiFloor {
        /// Floor width, m.
        width: Meters,
        /// Depth of each floor, m.
        floor_depth: Meters,
        /// Number of floors.
        floors: usize,
        /// Shelf rows per floor.
        shelves: usize,
    },
    /// An outdoor pallet yard (no perimeter walls).
    OutdoorAisles {
        /// Yard width, m.
        width: Meters,
        /// Yard depth, m.
        depth: Meters,
        /// Pallet rows.
        rows: usize,
    },
    /// A radio-environment-map-style occupancy grid.
    OccupancyGrid {
        /// Cell edge length, m.
        cell: Meters,
        /// Rows of `#`/`.` cells, row 0 at y = 0.
        rows: Vec<String>,
    },
}

impl WorldSpec {
    /// The world's outer bounds `(width, depth)` in meters.
    pub fn bounds(&self) -> (f64, f64) {
        match self {
            WorldSpec::Warehouse { width, depth, .. }
            | WorldSpec::OpenFloor { width, depth }
            | WorldSpec::OutdoorAisles { width, depth, .. } => (width.value(), depth.value()),
            WorldSpec::MultiFloor {
                width,
                floor_depth,
                floors,
                ..
            } => (width.value(), floor_depth.value() * *floors as f64),
            WorldSpec::OccupancyGrid { cell, rows } => {
                let cols = rows.first().map(|r| r.len()).unwrap_or(0);
                (cell.value() * cols as f64, cell.value() * rows.len() as f64)
            }
        }
    }

    /// Whether the world provides shelf-face tag spots.
    pub fn has_tag_spots(&self) -> bool {
        !matches!(self, WorldSpec::OpenFloor { .. })
    }
}

/// An external interferer field: `count` uncoordinated emitters, each
/// contributing `level` of the noise floor around every relay.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfererSpec {
    /// Number of interferers.
    pub count: usize,
    /// Per-interferer noise-floor contribution (linear, relative).
    pub level: f64,
}

impl Default for InterfererSpec {
    fn default() -> Self {
        Self {
            count: 0,
            level: 0.5,
        }
    }
}

impl InterfererSpec {
    /// The fleet-wide SNR penalty: noise floor raised from N₀ to
    /// N₀·(1 + count · level), i.e. 10·log₁₀(1 + count·level) dB.
    pub fn penalty(&self) -> Db {
        Db::new(10.0 * (1.0 + self.count as f64 * self.level).log10())
    }
}

/// One conveyor belt (see [`rfly_sim::motion::Belt`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BeltSpec {
    /// Belt centerline height, m.
    pub y: Meters,
    /// Span start, m.
    pub x_min: Meters,
    /// Span end, m.
    pub x_max: Meters,
    /// Carry speed, m/s, +x.
    pub speed: f64,
}

/// One relay of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaySpec {
    /// Unique relay identifier.
    pub id: String,
    /// The partition cell this relay covers (cells are x-strips in
    /// index order; the assignment must be a permutation of `0..n`).
    pub cell: usize,
    /// Extra per-relay SNR penalty, dB (local interference).
    pub snr_penalty: Db,
}

/// How one tag group is placed.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Random shelf spots with lateral and rack-depth scatter — the
    /// defaults reproduce the historic `examples/` draw exactly.
    Shelf {
        /// Lateral scatter, ± m around the spot.
        lateral: Meters,
        /// Offset above the shelf face line, m.
        offset: Meters,
        /// Minimum rack-depth draw, m.
        depth_min: Meters,
        /// Maximum rack-depth draw, m.
        depth_max: Meters,
    },
    /// Uniform over the floor, `margin` m inside the bounds.
    Uniform {
        /// Keep-out margin from the bounds, m.
        margin: Meters,
    },
    /// A deterministic evenly-spaced grid, `margin` m inside the bounds.
    Grid {
        /// Keep-out margin from the bounds, m.
        margin: Meters,
    },
    /// On the conveyor belts (round-robin across belts).
    Belt,
    /// Explicit positions.
    At(Vec<Point2>),
}

/// One group of tags sharing placement and physics.
#[derive(Debug, Clone, PartialEq)]
pub struct TagGroupSpec {
    /// Number of tags in the group.
    pub count: usize,
    /// Group placement seed (defaults to the scenario seed).
    pub seed: Option<u64>,
    /// Where the tags go.
    pub placement: Placement,
    /// Harvester power-up threshold override, dBm.
    pub power_up: Option<Dbm>,
}

/// Mission pacing and platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionSpec {
    /// The Eq. 3 design margin for channel assignment.
    pub margin: Db,
    /// Seconds of flight between inventory stops.
    pub sample_interval: Seconds,
    /// Inventory rounds per (stop, relay).
    pub max_rounds: usize,
    /// Optional cap on simulated mission time, s (not wall-clock time).
    pub time_budget: Option<Seconds>,
    /// The carrier platform.
    pub platform: Platform,
}

impl Default for MissionSpec {
    fn default() -> Self {
        Self {
            margin: Db::new(10.0),
            sample_interval: Seconds::new(4.0),
            max_rounds: 3,
            time_budget: None,
            platform: Platform::IndoorDrone,
        }
    }
}

/// The relay carrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Platform {
    /// Bebop-2-class indoor drone.
    IndoorDrone,
    /// Create-2-class ground robot.
    GroundRobot,
}

impl Platform {
    /// The platform's motion limits.
    pub fn limits(&self) -> MotionLimits {
        match self {
            Platform::IndoorDrone => MotionLimits::indoor_drone(),
            Platform::GroundRobot => MotionLimits::ground_robot(),
        }
    }

    /// The stable token used in scenario files.
    pub fn token(&self) -> &'static str {
        match self {
            Platform::IndoorDrone => "indoor-drone",
            Platform::GroundRobot => "ground-robot",
        }
    }
}

/// The per-relay battery and charging model for continuous-operation
/// scenarios (defaults mirror `rfly_ops::EnergyModel`).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySpec {
    /// Usable pack capacity, J.
    pub capacity_j: f64,
    /// Hover draw, W.
    pub hover_w: f64,
    /// Relay TX draw at the reference gain, W.
    pub tx_w: f64,
    /// The gain at which `tx_w` is quoted, dB.
    pub ref_gain: Db,
    /// Extra TX draw per dB above the reference gain, W/dB.
    pub tx_w_per_db: f64,
    /// Energy per successful tag read, J.
    pub per_read_j: f64,
    /// Dock charging rate, W.
    pub charge_w: f64,
    /// Reserve fraction: a serving relay at or below this charge must
    /// rotate out.
    pub reserve_frac: f64,
    /// Launch-ready fraction: a docked relay below this cannot launch.
    pub ready_frac: f64,
}

impl Default for EnergySpec {
    fn default() -> Self {
        Self {
            capacity_j: 108_000.0,
            hover_w: 72.0,
            tx_w: 3.0,
            ref_gain: Db::new(90.0),
            tx_w_per_db: 0.05,
            per_read_j: 0.5,
            charge_w: 90.0,
            reserve_frac: 0.2,
            ready_frac: 0.9,
        }
    }
}

/// One charging dock ([`rfly_sim::scene::Dock`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DockSpec {
    /// Dock position on the floor.
    pub position: Point2,
    /// Simultaneous charging slots.
    pub slots: usize,
}

/// One explicit fault event (relay referenced by ID).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEventSpec {
    /// Mission step at which the fault strikes.
    pub step: usize,
    /// The afflicted relay's ID.
    pub relay: String,
    /// What breaks.
    pub kind: FaultKind,
}

/// The fault schedule request: at most one of the three forms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultsSpec {
    /// Fly the standard [`rfly_faults::FaultSchedule::storm`].
    pub storm: bool,
    /// Fly a [`rfly_faults::FaultSchedule::random`] schedule of this
    /// many events.
    pub random_events: Option<usize>,
    /// Explicit events.
    pub events: Vec<FaultEventSpec>,
}

impl FaultsSpec {
    /// True when any faults are requested.
    pub fn any(&self) -> bool {
        self.storm || self.random_events.is_some() || !self.events.is_empty()
    }
}

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError::new(line, message)
}

/// A section reader that tracks consumed keys so leftovers (typos)
/// become diagnostics.
struct Keys<'a> {
    section: &'a Section,
    used: Vec<bool>,
}

impl<'a> Keys<'a> {
    fn new(section: &'a Section) -> Self {
        Self {
            used: vec![false; section.entries.len()],
            section,
        }
    }

    fn label(&self) -> String {
        if self.section.name.is_empty() {
            "the file prologue".to_string()
        } else if self.section.is_array {
            format!("[[{}]]", self.section.name)
        } else {
            format!("[{}]", self.section.name)
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Entry> {
        for (i, e) in self.section.entries.iter().enumerate() {
            if e.key == key {
                self.used[i] = true;
                return Some(e);
            }
        }
        None
    }

    fn require(&mut self, key: &str) -> Result<&'a Entry, ScenarioError> {
        let label = self.label();
        self.get(key)
            .ok_or_else(|| err_missing(self.section.line, key, &label))
    }

    fn str(&mut self, key: &str) -> Result<(String, usize), ScenarioError> {
        let e = self.require(key)?;
        as_str(e).map(|s| (s, e.line))
    }

    fn f64(&mut self, key: &str) -> Result<(f64, usize), ScenarioError> {
        let e = self.require(key)?;
        as_f64(e).map(|v| (v, e.line))
    }

    fn f64_or(&mut self, key: &str, default: f64) -> Result<(f64, usize), ScenarioError> {
        match self.get(key) {
            Some(e) => as_f64(e).map(|v| (v, e.line)),
            None => Ok((default, self.section.line)),
        }
    }

    fn usize(&mut self, key: &str) -> Result<(usize, usize), ScenarioError> {
        let e = self.require(key)?;
        as_usize(e).map(|v| (v, e.line))
    }

    fn usize_or(&mut self, key: &str, default: usize) -> Result<(usize, usize), ScenarioError> {
        match self.get(key) {
            Some(e) => as_usize(e).map(|v| (v, e.line)),
            None => Ok((default, self.section.line)),
        }
    }

    fn finish(self) -> Result<(), ScenarioError> {
        for (i, e) in self.section.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(err(
                    e.line,
                    format!("unknown key `{}` in {}", e.key, self.label()),
                ));
            }
        }
        Ok(())
    }
}

fn err_missing(line: usize, key: &str, label: &str) -> ScenarioError {
    err(line, format!("{label} is missing required key `{key}`"))
}

fn as_str(e: &Entry) -> Result<String, ScenarioError> {
    match &e.value {
        Value::Str(s) => Ok(s.clone()),
        v => Err(err(
            e.line,
            format!("`{}` must be a string, got {}", e.key, v.kind()),
        )),
    }
}

fn as_f64(e: &Entry) -> Result<f64, ScenarioError> {
    match e.value {
        Value::Float(f) => Ok(f),
        Value::Int(i) => Ok(i as f64),
        ref v => Err(err(
            e.line,
            format!("`{}` must be a number, got {}", e.key, v.kind()),
        )),
    }
}

fn as_usize(e: &Entry) -> Result<usize, ScenarioError> {
    match e.value {
        Value::Int(i) if i >= 0 => Ok(i as usize),
        Value::Int(_) => Err(err(e.line, format!("`{}` must be non-negative", e.key))),
        ref v => Err(err(
            e.line,
            format!("`{}` must be an integer, got {}", e.key, v.kind()),
        )),
    }
}

fn as_u64(e: &Entry) -> Result<u64, ScenarioError> {
    match e.value {
        Value::Int(i) if i >= 0 => Ok(i as u64),
        Value::Int(_) => Err(err(e.line, format!("`{}` must be non-negative", e.key))),
        ref v => Err(err(
            e.line,
            format!("`{}` must be an integer, got {}", e.key, v.kind()),
        )),
    }
}

fn as_point(e: &Entry) -> Result<Point2, ScenarioError> {
    point_from_value(&e.value)
        .ok_or_else(|| err(e.line, format!("`{}` must be a [x, y] pair", e.key)))
}

fn point_from_value(v: &Value) -> Option<Point2> {
    let Value::Array(items) = v else { return None };
    let [x, y] = items.as_slice() else {
        return None;
    };
    Some(Point2::new(num(x)?, num(y)?))
}

fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::Int(i) => Some(i as f64),
        _ => None,
    }
}

fn positive(value: f64, line: usize, what: &str) -> Result<f64, ScenarioError> {
    if value > 0.0 {
        Ok(value)
    } else {
        Err(err(line, format!("{what} must be positive, got {value}")))
    }
}

/// Builds and validates a [`ScenarioSpec`] from a parsed document.
pub fn from_document(doc: &Document) -> Result<ScenarioSpec, ScenarioError> {
    check_section_names(doc)?;

    // [scenario]
    let scenario = single(doc, "scenario")?.ok_or_else(|| err(1, "missing [scenario] section"))?;
    let mut keys = Keys::new(scenario);
    let (name, name_line) = keys.str("name")?;
    if name.is_empty() {
        return Err(err(name_line, "scenario name must be non-empty"));
    }
    let seed = as_u64(keys.require("seed")?)?;
    keys.finish()?;

    // [world]
    let world_section =
        single(doc, "world")?.ok_or_else(|| err(scenario.line, "missing [world] section"))?;
    let world = world_spec(world_section)?;
    let (bw, bd) = world.bounds();
    let in_bounds = |p: Point2| p.x >= 0.0 && p.x <= bw && p.y >= 0.0 && p.y <= bd;
    let bounds_msg = |p: Point2| {
        format!(
            "position ({}, {}) lies outside the {bw} x {bd} m world",
            p.x, p.y
        )
    };

    // [interferers] (optional)
    let interferers = match single(doc, "interferers")? {
        Some(s) => {
            let mut keys = Keys::new(s);
            let (count, _) = keys.usize("count")?;
            let (level, level_line) = keys.f64_or("level", 0.5)?;
            keys.finish()?;
            positive(level, level_line, "interferer `level`")?;
            InterfererSpec { count, level }
        }
        None => InterfererSpec::default(),
    };

    // [[belt]]
    let mut belts = Vec::new();
    for s in doc.all("belt") {
        let mut keys = Keys::new(s);
        let (y, y_line) = keys.f64("y_m")?;
        let (x_min, _) = keys.f64("x_min_m")?;
        let (x_max, x_line) = keys.f64("x_max_m")?;
        let (speed, speed_line) = keys.f64("speed")?;
        keys.finish()?;
        if x_max <= x_min {
            return Err(err(x_line, "belt `x_max_m` must exceed `x_min_m`"));
        }
        positive(speed, speed_line, "belt `speed`")?;
        let lo = Point2::new(x_min, y);
        let hi = Point2::new(x_max, y);
        if !in_bounds(lo) || !in_bounds(hi) {
            return Err(err(y_line, format!("belt {}", bounds_msg(lo))));
        }
        belts.push(BeltSpec {
            y: Meters::new(y),
            x_min: Meters::new(x_min),
            x_max: Meters::new(x_max),
            speed,
        });
    }

    // [[reader]] — exactly one.
    let readers: Vec<&Section> = doc.all("reader");
    let reader = match readers.as_slice() {
        [] => return Err(err(world_section.line, "missing [[reader]] section")),
        [one] => {
            let mut keys = Keys::new(one);
            let e = keys.require("position")?;
            let p = as_point(e)?;
            keys.finish()?;
            if !in_bounds(p) {
                return Err(err(e.line, format!("reader {}", bounds_msg(p))));
            }
            p
        }
        [_, second, ..] => return Err(err(second.line, "more than one [[reader]] section")),
    };

    // [[relay]]
    let relay_sections: Vec<&Section> = doc.all("relay");
    if relay_sections.is_empty() {
        return Err(err(
            world_section.line,
            "at least one [[relay]] is required",
        ));
    }
    let n_relays = relay_sections.len();
    let mut relays: Vec<RelaySpec> = Vec::with_capacity(n_relays);
    let mut id_lines: Vec<(String, usize)> = Vec::new();
    let mut cell_owners: Vec<Option<(String, usize)>> = vec![None; n_relays];
    for s in &relay_sections {
        let mut keys = Keys::new(s);
        let (id, id_line) = keys.str("id")?;
        if let Some((_, first)) = id_lines.iter().find(|(seen, _)| *seen == id) {
            return Err(err(
                id_line,
                format!("duplicate relay id {id:?} (first declared at line {first})"),
            ));
        }
        id_lines.push((id.clone(), id_line));
        let (cell, cell_line) = keys.usize("cell")?;
        if cell >= n_relays {
            return Err(err(
                cell_line,
                format!("cell {cell} out of range for a {n_relays}-relay fleet"),
            ));
        }
        if let Some((owner, _)) = &cell_owners[cell] {
            return Err(err(
                cell_line,
                format!("relay {id:?}: cell {cell} is already assigned to relay {owner:?}"),
            ));
        }
        cell_owners[cell] = Some((id.clone(), cell_line));
        let (penalty, penalty_line) = keys.f64_or("snr_penalty_db", 0.0)?;
        keys.finish()?;
        if penalty < 0.0 {
            return Err(err(penalty_line, "`snr_penalty_db` must be non-negative"));
        }
        relays.push(RelaySpec {
            id,
            cell,
            snr_penalty: Db::new(penalty),
        });
    }

    // [[tag]]
    let tag_sections: Vec<&Section> = doc.all("tag");
    if tag_sections.is_empty() {
        return Err(err(
            world_section.line,
            "at least one [[tag]] group is required",
        ));
    }
    let mut tags = Vec::new();
    for s in &tag_sections {
        tags.push(tag_group(s, &world, &belts, &in_bounds, &bounds_msg)?);
    }

    // [mission] (optional)
    let mission = match single(doc, "mission")? {
        Some(s) => {
            let defaults = MissionSpec::default();
            let mut keys = Keys::new(s);
            let (margin, _) = keys.f64_or("margin_db", defaults.margin.value())?;
            let (interval, interval_line) =
                keys.f64_or("sample_interval_s", defaults.sample_interval.value())?;
            positive(interval, interval_line, "`sample_interval_s`")?;
            let (max_rounds, rounds_line) = keys.usize_or("max_rounds", defaults.max_rounds)?;
            if max_rounds == 0 {
                return Err(err(rounds_line, "`max_rounds` must be at least 1"));
            }
            let time_budget = match keys.get("time_budget_s") {
                Some(e) => Some(Seconds::new(positive(
                    as_f64(e)?,
                    e.line,
                    "`time_budget_s`",
                )?)),
                None => None,
            };
            let platform = match keys.get("platform") {
                Some(e) => match as_str(e)?.as_str() {
                    "indoor-drone" => Platform::IndoorDrone,
                    "ground-robot" => Platform::GroundRobot,
                    other => {
                        return Err(err(
                            e.line,
                            format!(
                                "unknown platform {other:?} (expected \"indoor-drone\" or \"ground-robot\")"
                            ),
                        ))
                    }
                },
                None => defaults.platform,
            };
            keys.finish()?;
            MissionSpec {
                margin: Db::new(margin),
                sample_interval: Seconds::new(interval),
                max_rounds,
                time_budget,
                platform,
            }
        }
        None => MissionSpec::default(),
    };

    // [budget] (optional)
    let budget = match single(doc, "budget")? {
        Some(s) => {
            let d = IsolationBudget::fig9();
            let mut keys = Keys::new(s);
            let (intra_downlink, _) = keys.f64_or("intra_downlink_db", d.intra_downlink.value())?;
            let (intra_uplink, _) = keys.f64_or("intra_uplink_db", d.intra_uplink.value())?;
            let (inter_downlink, _) = keys.f64_or("inter_downlink_db", d.inter_downlink.value())?;
            let (inter_uplink, _) = keys.f64_or("inter_uplink_db", d.inter_uplink.value())?;
            keys.finish()?;
            IsolationBudget {
                intra_downlink: Db::new(intra_downlink),
                intra_uplink: Db::new(intra_uplink),
                inter_downlink: Db::new(inter_downlink),
                inter_uplink: Db::new(inter_uplink),
            }
        }
        None => IsolationBudget::fig9(),
    };

    // [energy] (optional)
    let energy = match single(doc, "energy")? {
        Some(s) => {
            let d = EnergySpec::default();
            let mut keys = Keys::new(s);
            let (capacity, cl) = keys.f64_or("capacity_j", d.capacity_j)?;
            let (hover, hl) = keys.f64_or("hover_w", d.hover_w)?;
            let (tx, tl) = keys.f64_or("tx_w", d.tx_w)?;
            let (ref_gain, _) = keys.f64_or("ref_gain_db", d.ref_gain.value())?;
            let (slope, slope_line) = keys.f64_or("tx_w_per_db", d.tx_w_per_db)?;
            let (per_read, read_line) = keys.f64_or("per_read_j", d.per_read_j)?;
            let (charge, chl) = keys.f64_or("charge_w", d.charge_w)?;
            let (reserve, reserve_line) = keys.f64_or("reserve_frac", d.reserve_frac)?;
            let (ready, ready_line) = keys.f64_or("ready_frac", d.ready_frac)?;
            keys.finish()?;
            positive(capacity, cl, "`capacity_j`")?;
            positive(hover, hl, "`hover_w`")?;
            positive(tx, tl, "`tx_w`")?;
            positive(charge, chl, "`charge_w`")?;
            if slope < 0.0 {
                return Err(err(slope_line, "`tx_w_per_db` must be non-negative"));
            }
            if per_read < 0.0 {
                return Err(err(read_line, "`per_read_j` must be non-negative"));
            }
            if !(0.0..1.0).contains(&reserve) {
                return Err(err(reserve_line, "`reserve_frac` must be in [0, 1)"));
            }
            if !(reserve < ready && ready <= 1.0) {
                return Err(err(
                    ready_line,
                    format!(
                        "`ready_frac` = {ready} must exceed `reserve_frac` = {reserve} and \
                         be at most 1 (a standby must launch with more than the reserve)"
                    ),
                ));
            }
            Some(EnergySpec {
                capacity_j: capacity,
                hover_w: hover,
                tx_w: tx,
                ref_gain: Db::new(ref_gain),
                tx_w_per_db: slope,
                per_read_j: per_read,
                charge_w: charge,
                reserve_frac: reserve,
                ready_frac: ready,
            })
        }
        None => None,
    };

    // [[dock]]
    let mut docks = Vec::new();
    for s in doc.all("dock") {
        let mut keys = Keys::new(s);
        let e = keys.require("position")?;
        let p = as_point(e)?;
        let p_line = e.line;
        let (slots, slots_line) = keys.usize_or("slots", 1)?;
        keys.finish()?;
        if !in_bounds(p) {
            return Err(err(p_line, format!("dock {}", bounds_msg(p))));
        }
        if slots == 0 {
            return Err(err(slots_line, "a dock needs at least one `slots`"));
        }
        docks.push(DockSpec { position: p, slots });
    }

    // [faults] + [[fault]]
    let known_ids: Vec<&str> = relays.iter().map(|r| r.id.as_str()).collect();
    let faults = faults_spec(doc, n_relays, &known_ids)?;
    if faults.any() && !belts.is_empty() {
        let line = doc
            .one("faults")
            .map(|s| s.line)
            .or_else(|| doc.one("fault").map(|s| s.line))
            .unwrap_or(1);
        return Err(err(
            line,
            "fault schedules cannot be combined with conveyor belts (moving tags fly \
             unsupervised missions only)",
        ));
    }

    Ok(ScenarioSpec {
        name,
        seed,
        world,
        interferers,
        belts,
        reader,
        relays,
        tags,
        mission,
        budget,
        energy,
        docks,
        faults,
    })
}

/// Every section name the schema knows.
const SECTIONS: &[&str] = &[
    "scenario",
    "world",
    "interferers",
    "belt",
    "reader",
    "relay",
    "tag",
    "mission",
    "budget",
    "energy",
    "dock",
    "faults",
    "fault",
];

/// Sections that must not repeat.
const SINGLETONS: &[&str] = &[
    "scenario",
    "world",
    "interferers",
    "mission",
    "budget",
    "energy",
    "faults",
];

fn check_section_names(doc: &Document) -> Result<(), ScenarioError> {
    for s in &doc.sections {
        if s.name.is_empty() {
            let line = s.entries.first().map(|e| e.line).unwrap_or(s.line);
            return Err(err(line, "keys must live inside a [section]"));
        }
        if !SECTIONS.contains(&s.name.as_str()) {
            return Err(err(s.line, format!("unknown section [{}]", s.name)));
        }
    }
    Ok(())
}

fn single<'a>(doc: &'a Document, name: &str) -> Result<Option<&'a Section>, ScenarioError> {
    let mut found: Vec<&Section> = doc.all(name);
    if SINGLETONS.contains(&name) && found.len() > 1 {
        return Err(err(
            found[1].line,
            format!("section [{name}] appears more than once"),
        ));
    }
    Ok(if found.is_empty() {
        None
    } else {
        Some(found.remove(0))
    })
}

fn world_spec(section: &Section) -> Result<WorldSpec, ScenarioError> {
    let mut keys = Keys::new(section);
    let (kind, kind_line) = keys.str("kind")?;
    let spec = match kind.as_str() {
        "warehouse" => {
            let (width, wl) = keys.f64("width_m")?;
            let (depth, dl) = keys.f64("depth_m")?;
            let (shelves, sl) = keys.usize("shelves")?;
            positive(width, wl, "`width_m`")?;
            positive(depth, dl, "`depth_m`")?;
            if shelves == 0 {
                return Err(err(sl, "a warehouse needs at least one shelf row"));
            }
            WorldSpec::Warehouse {
                width: Meters::new(width),
                depth: Meters::new(depth),
                shelves,
            }
        }
        "open-floor" => {
            let (width, wl) = keys.f64("width_m")?;
            let (depth, dl) = keys.f64("depth_m")?;
            positive(width, wl, "`width_m`")?;
            positive(depth, dl, "`depth_m`")?;
            WorldSpec::OpenFloor {
                width: Meters::new(width),
                depth: Meters::new(depth),
            }
        }
        "multi-floor" => {
            let (width, wl) = keys.f64("width_m")?;
            let (floor_depth, dl) = keys.f64("floor_depth_m")?;
            let (floors, fl) = keys.usize("floors")?;
            let (shelves, sl) = keys.usize("shelves")?;
            positive(width, wl, "`width_m`")?;
            positive(floor_depth, dl, "`floor_depth_m`")?;
            if floors == 0 {
                return Err(err(fl, "`floors` must be at least 1"));
            }
            if shelves == 0 {
                return Err(err(sl, "`shelves` must be at least 1"));
            }
            WorldSpec::MultiFloor {
                width: Meters::new(width),
                floor_depth: Meters::new(floor_depth),
                floors,
                shelves,
            }
        }
        "outdoor-aisles" => {
            let (width, wl) = keys.f64("width_m")?;
            let (depth, dl) = keys.f64("depth_m")?;
            let (rows, rl) = keys.usize("rows")?;
            positive(width, wl, "`width_m`")?;
            positive(depth, dl, "`depth_m`")?;
            if rows == 0 {
                return Err(err(rl, "`rows` must be at least 1"));
            }
            WorldSpec::OutdoorAisles {
                width: Meters::new(width),
                depth: Meters::new(depth),
                rows,
            }
        }
        "occupancy-grid" => {
            let (cell, cl) = keys.f64("cell_m")?;
            positive(cell, cl, "`cell_m`")?;
            let e = keys.require("rows")?;
            let Value::Array(items) = &e.value else {
                return Err(err(e.line, "`rows` must be an array of strings"));
            };
            let mut rows = Vec::with_capacity(items.len());
            for item in items {
                let Value::Str(s) = item else {
                    return Err(err(e.line, "`rows` must be an array of strings"));
                };
                rows.push(s.clone());
            }
            if rows.is_empty() {
                return Err(err(e.line, "`rows` must be non-empty"));
            }
            let cols = rows[0].len();
            if cols == 0 || rows.iter().any(|r| r.len() != cols) {
                return Err(err(
                    e.line,
                    "occupancy rows must be equally long and non-empty",
                ));
            }
            if let Some(bad) = rows
                .iter()
                .flat_map(|r| r.chars())
                .find(|c| *c != '#' && *c != '.')
            {
                return Err(err(
                    e.line,
                    format!("occupancy cells must be '#' or '.', got {bad:?}"),
                ));
            }
            if !rows.iter().any(|r| r.chars().all(|c| c == '.')) {
                return Err(err(
                    e.line,
                    "occupancy grid needs at least one fully-free row to fly",
                ));
            }
            WorldSpec::OccupancyGrid {
                cell: Meters::new(cell),
                rows,
            }
        }
        other => return Err(err(kind_line, format!("unknown world kind {other:?}"))),
    };
    keys.finish()?;
    Ok(spec)
}

fn tag_group(
    section: &Section,
    world: &WorldSpec,
    belts: &[BeltSpec],
    in_bounds: &impl Fn(Point2) -> bool,
    bounds_msg: &impl Fn(Point2) -> String,
) -> Result<TagGroupSpec, ScenarioError> {
    let mut keys = Keys::new(section);
    let seed = match keys.get("seed") {
        Some(e) => Some(as_u64(e)?),
        None => None,
    };
    let power_up = match keys.get("power_up_dbm") {
        Some(e) => Some(Dbm::new(as_f64(e)?)),
        None => None,
    };
    let at = keys.get("at");
    let placement_key = keys.get("placement");
    let (placement, count) = match (at, placement_key) {
        (Some(a), Some(p)) => {
            let _ = (a, p);
            return Err(err(p.line, "`placement` and `at` are mutually exclusive"));
        }
        (Some(e), None) => {
            let Value::Array(items) = &e.value else {
                return Err(err(e.line, "`at` must be an array of [x, y] pairs"));
            };
            let mut points = Vec::with_capacity(items.len());
            for item in items {
                let p = point_from_value(item)
                    .ok_or_else(|| err(e.line, "`at` must be an array of [x, y] pairs"))?;
                if !in_bounds(p) {
                    return Err(err(e.line, format!("tag {}", bounds_msg(p))));
                }
                points.push(p);
            }
            if points.is_empty() {
                return Err(err(e.line, "`at` must list at least one position"));
            }
            let (count, count_line) = keys.usize_or("count", points.len())?;
            if count != points.len() {
                return Err(err(
                    count_line,
                    format!(
                        "`count` = {count} disagrees with {} `at` positions",
                        points.len()
                    ),
                ));
            }
            (Placement::At(points), count)
        }
        (None, placement_entry) => {
            let (token, token_line) = match placement_entry {
                Some(e) => (as_str(e)?, e.line),
                None => ("shelf".to_string(), section.line),
            };
            let placement = match token.as_str() {
                "shelf" => {
                    if !world.has_tag_spots() {
                        return Err(err(
                            token_line,
                            "placement \"shelf\" needs a world with shelf rows (open-floor has none)",
                        ));
                    }
                    let (lateral, _) = keys.f64_or("lateral_m", 0.8)?;
                    let (offset, _) = keys.f64_or("offset_m", 0.3)?;
                    let (depth_min, _) = keys.f64_or("depth_min_m", 0.2)?;
                    let (depth_max, dmax_line) = keys.f64_or("depth_max_m", 0.8)?;
                    if depth_max <= depth_min {
                        return Err(err(dmax_line, "`depth_max_m` must exceed `depth_min_m`"));
                    }
                    if lateral <= 0.0 {
                        return Err(err(token_line, "`lateral_m` must be positive"));
                    }
                    Placement::Shelf {
                        lateral: Meters::new(lateral),
                        offset: Meters::new(offset),
                        depth_min: Meters::new(depth_min),
                        depth_max: Meters::new(depth_max),
                    }
                }
                "uniform" => {
                    let (margin, ml) = keys.f64_or("margin_m", 1.0)?;
                    check_margin(margin, ml, world)?;
                    Placement::Uniform {
                        margin: Meters::new(margin),
                    }
                }
                "grid" => {
                    let (margin, ml) = keys.f64_or("margin_m", 1.0)?;
                    check_margin(margin, ml, world)?;
                    Placement::Grid {
                        margin: Meters::new(margin),
                    }
                }
                "belt" => {
                    if belts.is_empty() {
                        return Err(err(
                            token_line,
                            "placement \"belt\" needs at least one [[belt]] section",
                        ));
                    }
                    Placement::Belt
                }
                other => {
                    return Err(err(
                        token_line,
                        format!(
                            "unknown placement {other:?} (expected \"shelf\", \"uniform\", \
                             \"grid\", \"belt\", or explicit `at`)"
                        ),
                    ))
                }
            };
            let (count, count_line) = keys.usize("count")?;
            if count == 0 {
                return Err(err(count_line, "`count` must be at least 1"));
            }
            (placement, count)
        }
    };
    keys.finish()?;
    Ok(TagGroupSpec {
        count,
        seed,
        placement,
        power_up,
    })
}

fn check_margin(margin: f64, line: usize, world: &WorldSpec) -> Result<(), ScenarioError> {
    positive(margin, line, "`margin_m`")?;
    let (w, d) = world.bounds();
    if 2.0 * margin >= w.min(d) {
        return Err(err(
            line,
            format!("`margin_m` = {margin} leaves no interior in a {w} x {d} m world"),
        ));
    }
    Ok(())
}

fn faults_spec(
    doc: &Document,
    n_relays: usize,
    known_ids: &[&str],
) -> Result<FaultsSpec, ScenarioError> {
    let mut spec = FaultsSpec::default();
    if let Some(s) = single(doc, "faults")? {
        let mut keys = Keys::new(s);
        if let Some(e) = keys.get("storm") {
            spec.storm = match e.value {
                Value::Bool(b) => b,
                ref v => {
                    return Err(err(
                        e.line,
                        format!("`storm` must be a boolean, got {}", v.kind()),
                    ))
                }
            };
            if spec.storm && n_relays < 2 {
                return Err(err(e.line, "a fault storm needs at least two relays"));
            }
        }
        if let Some(e) = keys.get("random_events") {
            spec.random_events = Some(as_usize(e)?);
            if spec.storm {
                return Err(err(
                    e.line,
                    "`storm` and `random_events` are mutually exclusive",
                ));
            }
        }
        keys.finish()?;
    }
    for s in doc.all("fault") {
        if spec.storm || spec.random_events.is_some() {
            return Err(err(
                s.line,
                "[[fault]] events cannot be combined with `storm`/`random_events`",
            ));
        }
        let mut keys = Keys::new(s);
        let (step, _) = keys.usize("step")?;
        let (relay, relay_line) = keys.str("relay")?;
        if !known_ids.contains(&relay.as_str()) {
            return Err(err(
                relay_line,
                format!("unknown relay id {relay:?} in [[fault]]"),
            ));
        }
        let kind = fault_kind(&mut keys)?;
        keys.finish()?;
        spec.events.push(FaultEventSpec { step, relay, kind });
    }
    Ok(spec)
}

fn fault_kind(keys: &mut Keys<'_>) -> Result<FaultKind, ScenarioError> {
    let (kind, kind_line) = keys.str("kind")?;
    let prob = |keys: &mut Keys<'_>, key: &str| -> Result<f64, ScenarioError> {
        let (p, line) = keys.f64(key)?;
        if !(0.0..=1.0).contains(&p) {
            return Err(err(line, format!("`{key}` must be in [0, 1]")));
        }
        Ok(p)
    };
    let steps = |keys: &mut Keys<'_>| -> Result<usize, ScenarioError> {
        let (s, line) = keys.usize("steps")?;
        if s == 0 {
            return Err(err(line, "`steps` must be at least 1"));
        }
        Ok(s)
    };
    Ok(match kind.as_str() {
        "phase-glitch" => FaultKind::PhaseGlitch {
            rad: keys.f64("rad")?.0,
        },
        "cfo-drift" => FaultKind::CfoDrift {
            rad: keys.f64("rad")?.0,
            steps: steps(keys)?,
        },
        "gain-drift" => FaultKind::GainDrift {
            db: keys.f64("db")?.0,
        },
        "pa-sag" => FaultKind::PaSag {
            db: keys.f64("db")?.0,
        },
        "deep-fade" => FaultKind::DeepFade {
            db: keys.f64("db")?.0,
            steps: steps(keys)?,
        },
        "noise-burst" => FaultKind::NoiseBurst {
            p_corrupt: prob(keys, "p")?,
            steps: steps(keys)?,
        },
        "gen2-drop" => FaultKind::Gen2Drop {
            p_drop: prob(keys, "p")?,
            steps: steps(keys)?,
        },
        "tracking-dropout" => FaultKind::TrackingDropout {
            steps: steps(keys)?,
        },
        "wind-gust" => FaultKind::WindGust {
            dx_m: keys.f64("dx_m")?.0,
            dy_m: keys.f64("dy_m")?.0,
            steps: steps(keys)?,
        },
        "battery-sag" => FaultKind::BatterySag,
        other => return Err(err(kind_line, format!("unknown fault kind {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use crate::parse_str;

    const MINIMAL: &str = r#"
[scenario]
name = "minimal"
seed = 1

[world]
kind = "warehouse"
width_m = 20.0
depth_m = 16.0
shelves = 3

[[reader]]
position = [1.0, 1.0]

[[relay]]
id = "r0"
cell = 0

[[relay]]
id = "r1"
cell = 1

[[tag]]
count = 12
"#;

    #[test]
    fn minimal_scenario_fills_defaults() {
        let spec = parse_str(MINIMAL).expect("valid");
        assert_eq!(spec.name, "minimal");
        assert_eq!(spec.n_relays(), 2);
        assert_eq!(spec.n_tags(), 12);
        assert_eq!(spec.mission, super::MissionSpec::default());
        assert_eq!(spec.budget, super::IsolationBudget::fig9());
        assert_eq!(spec.energy, None);
        assert!(spec.docks.is_empty());
        assert!(!spec.faults.any());
        assert!(matches!(
            spec.tags[0].placement,
            super::Placement::Shelf { .. }
        ));
    }

    #[test]
    fn duplicate_relay_id_is_rejected_with_both_lines() {
        let src = MINIMAL.replace("id = \"r1\"", "id = \"r0\"");
        let e = parse_str(&src).unwrap_err();
        assert!(e.message.contains("duplicate relay id \"r0\""), "{e}");
        assert!(e.message.contains("first declared at line"), "{e}");
    }

    #[test]
    fn overlapping_cells_are_rejected() {
        let src = MINIMAL.replace("cell = 1", "cell = 0");
        let e = parse_str(&src).unwrap_err();
        assert!(e.message.contains("cell 0 is already assigned"), "{e}");
    }

    #[test]
    fn out_of_range_cell_is_rejected() {
        let src = MINIMAL.replace("cell = 1", "cell = 7");
        let e = parse_str(&src).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn out_of_bounds_tag_is_rejected() {
        let src = format!("{MINIMAL}\n[[tag]]\nat = [[25.0, 5.0]]\n");
        let e = parse_str(&src).unwrap_err();
        assert!(e.message.contains("outside the 20 x 16 m world"), "{e}");
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let e = parse_str(&format!("{MINIMAL}\nbogus = 1\n")).unwrap_err();
        assert!(e.message.contains("unknown key `bogus`"), "{e}");
        // The retired tag-modulation keys are ordinary unknown keys.
        let e = parse_str(&format!("{MINIMAL}modulation = \"ideal\"\n")).unwrap_err();
        assert!(e.message.contains("unknown key `modulation`"), "{e}");
        assert_eq!(e.line, 25, "{e}");
        let e = parse_str(&format!("{MINIMAL}\n[warp]\nx = 1\n")).unwrap_err();
        assert!(e.message.contains("unknown section [warp]"), "{e}");
    }

    #[test]
    fn storm_needs_two_relays() {
        let one_relay = r#"
[scenario]
name = "t"
seed = 1
[world]
kind = "open-floor"
width_m = 10.0
depth_m = 8.0
[[reader]]
position = [1.0, 1.0]
[[relay]]
id = "solo"
cell = 0
[[tag]]
count = 1
at = [[5.0, 4.0]]
[faults]
storm = true
"#;
        let e = parse_str(one_relay).unwrap_err();
        assert!(e.message.contains("at least two relays"), "{e}");
    }

    #[test]
    fn belts_and_faults_are_mutually_exclusive() {
        let src = format!(
            "{MINIMAL}\n[[belt]]\ny_m = 8.0\nx_min_m = 2.0\nx_max_m = 18.0\nspeed = 0.5\n\
             \n[faults]\nstorm = true\n"
        );
        let e = parse_str(&src).unwrap_err();
        assert!(
            e.message.contains("cannot be combined with conveyor"),
            "{e}"
        );
    }

    #[test]
    fn explicit_fault_events_resolve_relay_ids() {
        let src = format!(
            "{MINIMAL}\n[[fault]]\nstep = 2\nrelay = \"r1\"\nkind = \"deep-fade\"\ndb = 12.0\nsteps = 3\n"
        );
        let spec = parse_str(&src).expect("valid");
        assert_eq!(spec.faults.events.len(), 1);
        assert_eq!(spec.faults.events[0].relay, "r1");
        let bad =
            format!("{MINIMAL}\n[[fault]]\nstep = 2\nrelay = \"ghost\"\nkind = \"battery-sag\"\n");
        let e = parse_str(&bad).unwrap_err();
        assert!(e.message.contains("unknown relay id \"ghost\""), "{e}");
    }

    #[test]
    fn energy_section_fills_defaults_and_checks_thresholds() {
        let src = format!("{MINIMAL}\n[energy]\ncapacity_j = 90000.0\n");
        let spec = parse_str(&src).expect("valid");
        let energy = spec.energy.expect("present");
        assert_eq!(energy.capacity_j, 90000.0);
        assert_eq!(energy.hover_w, super::EnergySpec::default().hover_w);

        let bad = format!("{MINIMAL}\n[energy]\nreserve_frac = 0.8\nready_frac = 0.5\n");
        let e = parse_str(&bad).unwrap_err();
        assert!(
            e.message
                .contains("`ready_frac` = 0.5 must exceed `reserve_frac` = 0.8"),
            "{e}"
        );
        let bad = format!("{MINIMAL}\n[energy]\nhover_w = 0.0\n");
        let e = parse_str(&bad).unwrap_err();
        assert!(e.message.contains("`hover_w` must be positive"), "{e}");
    }

    #[test]
    fn docks_are_bounds_checked_and_default_to_one_slot() {
        let src = format!(
            "{MINIMAL}\n[[dock]]\nposition = [2.0, 2.0]\n\n[[dock]]\nposition = [18.0, 2.0]\nslots = 2\n"
        );
        let spec = parse_str(&src).expect("valid");
        assert_eq!(spec.docks.len(), 2);
        assert_eq!(spec.docks[0].slots, 1);
        assert_eq!(spec.docks[1].slots, 2);

        let bad = format!("{MINIMAL}\n[[dock]]\nposition = [25.0, 2.0]\n");
        let e = parse_str(&bad).unwrap_err();
        assert!(e.message.contains("dock position (25, 2)"), "{e}");
        let bad = format!("{MINIMAL}\n[[dock]]\nposition = [2.0, 2.0]\nslots = 0\n");
        let e = parse_str(&bad).unwrap_err();
        assert!(e.message.contains("at least one `slots`"), "{e}");
    }

    #[test]
    fn error_lines_point_at_the_offending_entry() {
        // The duplicate id sits on line 22 of MINIMAL (1-based, after
        // the replace). Count it instead of hard-coding.
        let src = MINIMAL.replace("id = \"r1\"", "id = \"r0\"");
        let expect = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.trim() == "id = \"r0\"")
            .map(|(i, _)| i + 1)
            .nth(1)
            .expect("second r0 line");
        let e = crate::parse_str(&src).unwrap_err();
        assert_eq!(e.line, expect);
    }
}

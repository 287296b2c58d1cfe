//! Exhaustive state-space checker for the rotation supervisor.
//!
//! The soak bench samples trajectories; this module enumerates *all*
//! of them over a finite abstraction. Each relay is abstracted to its
//! duty (serving a cell / docked / dead), a four-bucket battery level,
//! and a retry counter; the environment nondeterministically drains,
//! charges, and fails inventory stops, and the supervisor's response
//! (promotion, rotation, repartition, retry escalation) is applied
//! deterministically and atomically after every environment move —
//! the same ordering the concrete campaign loop uses.
//!
//! A breadth-first search over this transition system proves, for the
//! configured fleet shape, that **no reachable state**:
//!
//! - leaves a cell unserved (stranded) — including while a
//!   launch-ready standby idles on a dock,
//! - keeps a relay serving on an empty battery,
//! - parks more relays than the docks have slots,
//! - lets the per-stop retry counter exceed its bound (retry-backoff
//!   divergence), or
//! - deadlocks (a non-terminal state with no successor; the all-dead
//!   fleet is the one terminal state and is reported, not failed).
//!
//! Everything is `BTreeMap`/`BTreeSet` over plain enums: zero
//! dependencies, deterministic iteration, counterexample traces
//! reconstructed from a predecessor map.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write;

/// Fleet shape and bounds for the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Total relays (servers + standbys).
    pub relays: usize,
    /// Coverage cells at full strength.
    pub cells: usize,
    /// Total dock slots across the floor.
    pub dock_slots: usize,
    /// Consecutive silent stops the supervisor tolerates before
    /// escalating off the retry rung.
    pub max_retries: u8,
}

impl Default for ModelConfig {
    /// The smallest shape with every behaviour: two cells, one
    /// standby, one dock slot (maximum contention), two retries.
    fn default() -> Self {
        Self {
            relays: 3,
            cells: 2,
            dock_slots: 1,
            max_retries: 2,
        }
    }
}

/// Battery level, four buckets: the reserve boundary and the
/// launch-ready boundary are the two thresholds the planner tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Bucket {
    /// Flat — a serving relay here is down.
    Empty,
    /// At or below the reserve margin — must rotate out.
    Reserve,
    /// Enough to launch.
    Ok,
    /// Fresh off the charger.
    Full,
}

impl Bucket {
    fn drop(self) -> Bucket {
        match self {
            Bucket::Full => Bucket::Ok,
            Bucket::Ok => Bucket::Reserve,
            _ => Bucket::Empty,
        }
    }
    fn rise(self) -> Bucket {
        match self {
            Bucket::Empty => Bucket::Reserve,
            Bucket::Reserve => Bucket::Ok,
            _ => Bucket::Full,
        }
    }
    fn label(self) -> &'static str {
        match self {
            Bucket::Empty => "empty",
            Bucket::Reserve => "reserve",
            Bucket::Ok => "ok",
            Bucket::Full => "full",
        }
    }
}

/// Abstract duty (dock identity is erased; only the slot count
/// matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ADuty {
    Serving(u8),
    Docked,
    Dead,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RelayAbs {
    duty: ADuty,
    bucket: Bucket,
    retries: u8,
}

/// One abstract fleet state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    /// Cells currently partitioned (shrinks on repartition).
    cells: u8,
    relays: Vec<RelayAbs>,
}

impl State {
    fn render(&self) -> String {
        let mut out = format!("cells={}", self.cells);
        for (i, r) in self.relays.iter().enumerate() {
            let _ = match r.duty {
                ADuty::Serving(c) => {
                    write!(out, " r{i}=serve({c})/{}/{}", r.bucket.label(), r.retries)
                }
                ADuty::Docked => write!(out, " r{i}=dock/{}", r.bucket.label()),
                ADuty::Dead => write!(out, " r{i}=dead"),
            };
        }
        out
    }

    fn all_dead(&self) -> bool {
        self.relays.iter().all(|r| r.duty == ADuty::Dead)
    }
}

/// A property violation with the path that reaches it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which property failed.
    pub property: String,
    /// States from the initial state to the violating one, rendered.
    pub trace: Vec<String>,
}

/// What the search visited and found.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// Terminal (all-dead) states reached — reported, not failed.
    pub terminal_states: usize,
    /// Every property violation found (empty = the supervisor is
    /// safe for this fleet shape).
    pub violations: Vec<Counterexample>,
}

/// Which supervisor rungs are active. The real checker runs with all
/// of them; tests disable rungs to prove the checker catches the
/// resulting violations.
#[derive(Debug, Clone, Copy)]
struct Rules {
    promote_on_death: bool,
    repartition_on_exhaustion: bool,
    escalate_retries: bool,
}

const SOUND_RULES: Rules = Rules {
    promote_on_death: true,
    repartition_on_exhaustion: true,
    escalate_retries: true,
};

/// The deterministic supervisor response, mirroring the campaign
/// loop's order: deaths (promote or repartition), then rotations,
/// then retry escalation.
fn supervise(mut s: State, cfg: &ModelConfig, rules: Rules) -> State {
    // 1. Deaths: a serving relay on an empty bucket is down.
    let mut lost_cells: Vec<u8> = Vec::new();
    for i in 0..s.relays.len() {
        let ADuty::Serving(cell) = s.relays[i].duty else {
            continue;
        };
        if s.relays[i].bucket != Bucket::Empty {
            continue;
        }
        s.relays[i].duty = ADuty::Dead;
        s.relays[i].retries = 0;
        let standby = best_standby(&s);
        match standby {
            Some(j) if rules.promote_on_death => {
                s.relays[j].duty = ADuty::Serving(cell);
                s.relays[j].retries = 0;
            }
            _ => lost_cells.push(cell),
        }
    }
    // 2. Repartition: shrink the cell count around unfilled holes and
    // renumber the survivors densely.
    if !lost_cells.is_empty() && rules.repartition_on_exhaustion {
        let mut served: Vec<u8> = s
            .relays
            .iter()
            .filter_map(|r| match r.duty {
                ADuty::Serving(c) => Some(c),
                _ => None,
            })
            .collect();
        served.sort_unstable();
        for r in &mut s.relays {
            if let ADuty::Serving(c) = r.duty {
                let Ok(new) = served.binary_search(&c) else {
                    continue;
                };
                r.duty = ADuty::Serving(new as u8);
            }
        }
        s.cells = served.len() as u8;
    }
    // 3. Reserve-margin rotations (make-before-break: one atomic swap).
    for cell in 0..s.cells {
        let server = s.relays.iter().position(|r| r.duty == ADuty::Serving(cell));
        let Some(i) = server else { continue };
        if s.relays[i].bucket != Bucket::Reserve {
            continue;
        }
        let Some(j) = best_standby(&s) else { continue };
        s.relays[j].duty = ADuty::Serving(cell);
        s.relays[j].retries = 0;
        s.relays[i].duty = ADuty::Docked;
        s.relays[i].retries = 0;
    }
    // 4. Retry escalation: past the bound, the supervisor moves off
    // the retry rung (Δf-reassign in the concrete ladder) and the
    // counter restarts.
    if rules.escalate_retries {
        for r in &mut s.relays {
            if r.retries > cfg.max_retries {
                r.retries = 0;
            }
        }
    }
    s
}

/// Launch-ready docked relay with the fullest bucket, lowest index.
fn best_standby(s: &State) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, r) in s.relays.iter().enumerate() {
        if r.duty != ADuty::Docked || r.bucket < Bucket::Ok {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) if r.bucket > s.relays[b].bucket => best = Some(i),
            _ => {}
        }
    }
    best
}

/// All environment moves from `s`: per-relay drain/hold × stop
/// ok/silent for servers, charge/hold for docked, nothing for dead —
/// the full product. The retry counter saturates one past the bound,
/// which is exactly enough to exercise escalation while keeping the
/// state space finite even under a (test-injected) broken supervisor.
fn environment_moves(s: &State, cfg: &ModelConfig) -> Vec<State> {
    let mut frontier = vec![Vec::<RelayAbs>::new()];
    for r in &s.relays {
        let options: Vec<RelayAbs> = match r.duty {
            ADuty::Serving(_) => {
                let mut o = Vec::with_capacity(4);
                for bucket in [r.bucket, r.bucket.drop()] {
                    // Stop succeeded: counter clears.
                    o.push(RelayAbs {
                        bucket,
                        retries: 0,
                        ..*r
                    });
                    // Stop silent: counter grows (one past the bound
                    // is enough to exercise escalation).
                    o.push(RelayAbs {
                        bucket,
                        retries: (r.retries + 1).min(cfg.max_retries + 1),
                        ..*r
                    });
                }
                o.sort_unstable();
                o.dedup();
                o
            }
            ADuty::Docked => {
                let mut o = vec![
                    RelayAbs { ..*r },
                    RelayAbs {
                        bucket: r.bucket.rise(),
                        ..*r
                    },
                ];
                o.sort_unstable();
                o.dedup();
                o
            }
            ADuty::Dead => vec![*r],
        };
        let mut next = Vec::with_capacity(frontier.len() * options.len());
        for prefix in &frontier {
            for opt in &options {
                let mut p = prefix.clone();
                p.push(*opt);
                next.push(p);
            }
        }
        frontier = next;
    }
    frontier
        .into_iter()
        .map(|relays| State {
            cells: s.cells,
            relays,
        })
        .collect()
}

/// Checks a post-supervisor state against every safety property.
fn violated(s: &State, cfg: &ModelConfig) -> Option<String> {
    // Unserved cell — stranded outright, or stranded while a ready
    // standby idles (the sharper form the issue names).
    for cell in 0..s.cells {
        let served = s.relays.iter().any(|r| r.duty == ADuty::Serving(cell));
        if !served {
            return Some(if best_standby(s).is_some() {
                format!("stranded-cell: cell {cell} unserved while a ready standby is docked")
            } else {
                format!("stranded-cell: cell {cell} unserved")
            });
        }
    }
    for (i, r) in s.relays.iter().enumerate() {
        if matches!(r.duty, ADuty::Serving(_)) && r.bucket == Bucket::Empty {
            return Some(format!(
                "serving-on-empty: relay {i} serves with a flat pack"
            ));
        }
        if r.retries > cfg.max_retries {
            return Some(format!(
                "retry-divergence: relay {i} at {} retries (bound {})",
                r.retries, cfg.max_retries
            ));
        }
    }
    let docked = s.relays.iter().filter(|r| r.duty == ADuty::Docked).count();
    if docked > cfg.dock_slots {
        return Some(format!(
            "dock-overflow: {docked} parked on {} slots",
            cfg.dock_slots
        ));
    }
    None
}

fn initial_state(cfg: &ModelConfig) -> Result<State, String> {
    if cfg.relays < cfg.cells {
        return Err(format!(
            "model needs at least one relay per cell ({} relays, {} cells)",
            cfg.relays, cfg.cells
        ));
    }
    if cfg.relays - cfg.cells > cfg.dock_slots {
        return Err(format!(
            "{} standbys but only {} dock slots",
            cfg.relays - cfg.cells,
            cfg.dock_slots
        ));
    }
    if cfg.cells == 0 || cfg.cells > u8::MAX as usize {
        return Err("cell count must be in 1..=255".into());
    }
    Ok(State {
        cells: cfg.cells as u8,
        relays: (0..cfg.relays)
            .map(|i| RelayAbs {
                duty: if i < cfg.cells {
                    ADuty::Serving(i as u8)
                } else {
                    ADuty::Docked
                },
                bucket: Bucket::Full,
                retries: 0,
            })
            .collect(),
    })
}

fn trace_to(state: &State, preds: &BTreeMap<State, Option<State>>) -> Vec<String> {
    let mut chain = vec![state.clone()];
    let mut cur = state.clone();
    while let Some(Some(prev)) = preds.get(&cur) {
        chain.push(prev.clone());
        cur = prev.clone();
    }
    chain.reverse();
    chain.iter().map(State::render).collect()
}

fn check_with(cfg: &ModelConfig, rules: Rules) -> Result<CheckResult, String> {
    let _span = rfly_obs::span("ops.model_check");
    let init = supervise(initial_state(cfg)?, cfg, rules);
    let mut preds: BTreeMap<State, Option<State>> = BTreeMap::new();
    preds.insert(init.clone(), None);
    let mut queue: VecDeque<State> = VecDeque::new();
    queue.push_back(init.clone());
    let mut result = CheckResult {
        states: 0,
        transitions: 0,
        terminal_states: 0,
        violations: Vec::new(),
    };
    let mut seen_properties: BTreeSet<String> = BTreeSet::new();

    if let Some(prop) = violated(&init, cfg) {
        seen_properties.insert(prop.clone());
        result.violations.push(Counterexample {
            property: prop,
            trace: vec![init.render()],
        });
    }

    while let Some(state) = queue.pop_front() {
        result.states += 1;
        if state.all_dead() {
            // The one legitimate terminal state: nothing left to fly.
            result.terminal_states += 1;
            continue;
        }
        let mut successors = 0usize;
        for env in environment_moves(&state, cfg) {
            let next = supervise(env, cfg, rules);
            result.transitions += 1;
            successors += 1;
            if preds.contains_key(&next) {
                continue;
            }
            preds.insert(next.clone(), Some(state.clone()));
            if let Some(prop) = violated(&next, cfg) {
                // One counterexample per property class keeps the
                // report readable; the search still covers everything.
                let class = prop.split(':').next().unwrap_or("").to_string();
                if seen_properties.insert(class) {
                    result.violations.push(Counterexample {
                        property: prop,
                        trace: trace_to(&next, &preds),
                    });
                }
            }
            queue.push_back(next);
        }
        if successors == 0 {
            let class = "deadlock".to_string();
            if seen_properties.insert(class) {
                result.violations.push(Counterexample {
                    property: "deadlock: non-terminal state has no successor".to_string(),
                    trace: trace_to(&state, &preds),
                });
            }
        }
    }
    Ok(result)
}

/// Exhaustively checks the rotation supervisor over `cfg`'s fleet
/// shape. An empty [`CheckResult::violations`] is a proof (for this
/// shape and abstraction) that no stranded cell, flat server, dock
/// overflow, retry divergence, or deadlock is reachable.
pub fn check(cfg: &ModelConfig) -> Result<CheckResult, String> {
    check_with(cfg, SOUND_RULES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_is_safe_and_nontrivial() {
        let result = check(&ModelConfig::default()).unwrap();
        assert!(
            result.violations.is_empty(),
            "unexpected violations: {:?}",
            result
                .violations
                .iter()
                .map(|v| &v.property)
                .collect::<Vec<_>>()
        );
        // The search must actually explore: hundreds of states, more
        // transitions than states, and it must reach fleet death.
        assert!(result.states > 100, "only {} states", result.states);
        assert!(result.transitions > result.states);
        assert!(result.terminal_states > 0);
    }

    #[test]
    fn bigger_shapes_stay_safe() {
        for cfg in [
            ModelConfig {
                relays: 4,
                cells: 2,
                dock_slots: 2,
                max_retries: 1,
            },
            ModelConfig {
                relays: 3,
                cells: 1,
                dock_slots: 2,
                max_retries: 3,
            },
        ] {
            let result = check(&cfg).unwrap();
            assert!(result.violations.is_empty(), "{cfg:?}");
        }
    }

    #[test]
    fn checker_catches_a_supervisor_without_promotion() {
        // Disable the promote-on-death and repartition rungs: a dead
        // server must now strand its cell, and the checker must find
        // the trace.
        let rules = Rules {
            promote_on_death: false,
            repartition_on_exhaustion: false,
            escalate_retries: true,
        };
        let result = check_with(&ModelConfig::default(), rules).unwrap();
        let stranded = result
            .violations
            .iter()
            .find(|v| v.property.starts_with("stranded-cell"))
            .expect("stranded cell must be reachable without promotion");
        assert!(stranded.trace.len() >= 2, "trace: {:?}", stranded.trace);
        assert!(stranded.trace[0].starts_with("cells=2"));
    }

    #[test]
    fn checker_catches_retry_divergence_without_escalation() {
        let rules = Rules {
            promote_on_death: true,
            repartition_on_exhaustion: true,
            escalate_retries: false,
        };
        let result = check_with(&ModelConfig::default(), rules).unwrap();
        assert!(
            result
                .violations
                .iter()
                .any(|v| v.property.starts_with("retry-divergence")),
            "violations: {:?}",
            result
                .violations
                .iter()
                .map(|v| &v.property)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn impossible_shapes_are_rejected() {
        assert!(check(&ModelConfig {
            relays: 1,
            cells: 2,
            dock_slots: 1,
            max_retries: 2,
        })
        .is_err());
        assert!(check(&ModelConfig {
            relays: 5,
            cells: 2,
            dock_slots: 1,
            max_retries: 2,
        })
        .is_err());
    }
}

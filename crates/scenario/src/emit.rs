//! Canonical scenario serialization.
//!
//! [`emit`] renders any [`ScenarioSpec`] as scenario text such that
//! `parse(emit(spec)) == spec` — the property the corpus tests assert.
//! The output is fully explicit (defaults are written out) except for
//! fields whose *absence* is the spec's own representation (optional
//! seeds, time budgets, harvester overrides).

use std::fmt::{self, Write};

use rfly_faults::FaultKind;

use crate::schema::{Placement, ScenarioSpec, WorldSpec};

/// A string as a quoted, escaped scenario-text literal.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Renders `spec` as canonical scenario text.
///
/// Writing to a `String` cannot fail; the `let _ =` bindings keep the
/// call sites tidy under the workspace's no-unwrap rule.
pub fn emit(spec: &ScenarioSpec) -> String {
    let mut s = String::new();
    let w = &mut s;

    let _ = writeln!(w, "[scenario]");
    let _ = writeln!(w, "name = {}", Quoted(&spec.name));
    let _ = writeln!(w, "seed = {}", spec.seed);

    let _ = writeln!(w, "\n[world]");
    match &spec.world {
        WorldSpec::Warehouse {
            width,
            depth,
            shelves,
        } => {
            let _ = writeln!(w, "kind = \"warehouse\"");
            let _ = writeln!(w, "width_m = {}", width.value());
            let _ = writeln!(w, "depth_m = {}", depth.value());
            let _ = writeln!(w, "shelves = {shelves}");
        }
        WorldSpec::OpenFloor { width, depth } => {
            let _ = writeln!(w, "kind = \"open-floor\"");
            let _ = writeln!(w, "width_m = {}", width.value());
            let _ = writeln!(w, "depth_m = {}", depth.value());
        }
        WorldSpec::MultiFloor {
            width,
            floor_depth,
            floors,
            shelves,
        } => {
            let _ = writeln!(w, "kind = \"multi-floor\"");
            let _ = writeln!(w, "width_m = {}", width.value());
            let _ = writeln!(w, "floor_depth_m = {}", floor_depth.value());
            let _ = writeln!(w, "floors = {floors}");
            let _ = writeln!(w, "shelves = {shelves}");
        }
        WorldSpec::OutdoorAisles { width, depth, rows } => {
            let _ = writeln!(w, "kind = \"outdoor-aisles\"");
            let _ = writeln!(w, "width_m = {}", width.value());
            let _ = writeln!(w, "depth_m = {}", depth.value());
            let _ = writeln!(w, "rows = {rows}");
        }
        WorldSpec::OccupancyGrid { cell, rows } => {
            let _ = writeln!(w, "kind = \"occupancy-grid\"");
            let _ = writeln!(w, "cell_m = {}", cell.value());
            let _ = write!(w, "rows = [");
            for (k, r) in rows.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(w, "{sep}{}", Quoted(r));
            }
            let _ = writeln!(w, "]");
        }
    }

    if spec.interferers != Default::default() {
        let _ = writeln!(w, "\n[interferers]");
        let _ = writeln!(w, "count = {}", spec.interferers.count);
        let _ = writeln!(w, "level = {}", spec.interferers.level);
    }

    for belt in &spec.belts {
        let _ = writeln!(w, "\n[[belt]]");
        let _ = writeln!(w, "y_m = {}", belt.y.value());
        let _ = writeln!(w, "x_min_m = {}", belt.x_min.value());
        let _ = writeln!(w, "x_max_m = {}", belt.x_max.value());
        let _ = writeln!(w, "speed = {}", belt.speed);
    }

    let _ = writeln!(w, "\n[budget]");
    let _ = writeln!(
        w,
        "intra_downlink_db = {}",
        spec.budget.intra_downlink.value()
    );
    let _ = writeln!(w, "intra_uplink_db = {}", spec.budget.intra_uplink.value());
    let _ = writeln!(
        w,
        "inter_downlink_db = {}",
        spec.budget.inter_downlink.value()
    );
    let _ = writeln!(w, "inter_uplink_db = {}", spec.budget.inter_uplink.value());

    if let Some(e) = &spec.energy {
        let _ = writeln!(w, "\n[energy]");
        let _ = writeln!(w, "capacity_j = {}", e.capacity_j);
        let _ = writeln!(w, "hover_w = {}", e.hover_w);
        let _ = writeln!(w, "tx_w = {}", e.tx_w);
        let _ = writeln!(w, "ref_gain_db = {}", e.ref_gain.value());
        let _ = writeln!(w, "tx_w_per_db = {}", e.tx_w_per_db);
        let _ = writeln!(w, "per_read_j = {}", e.per_read_j);
        let _ = writeln!(w, "charge_w = {}", e.charge_w);
        let _ = writeln!(w, "reserve_frac = {}", e.reserve_frac);
        let _ = writeln!(w, "ready_frac = {}", e.ready_frac);
    }

    let _ = writeln!(w, "\n[mission]");
    let _ = writeln!(w, "margin_db = {}", spec.mission.margin.value());
    let _ = writeln!(
        w,
        "sample_interval_s = {}",
        spec.mission.sample_interval.value()
    );
    let _ = writeln!(w, "max_rounds = {}", spec.mission.max_rounds);
    if let Some(t) = spec.mission.time_budget {
        let _ = writeln!(w, "time_budget_s = {}", t.value());
    }
    let _ = writeln!(w, "platform = {}", Quoted(spec.mission.platform.token()));

    let _ = writeln!(w, "\n[[reader]]");
    let _ = writeln!(w, "position = [{}, {}]", spec.reader.x, spec.reader.y);

    for relay in &spec.relays {
        let _ = writeln!(w, "\n[[relay]]");
        let _ = writeln!(w, "id = {}", Quoted(&relay.id));
        let _ = writeln!(w, "cell = {}", relay.cell);
        let _ = writeln!(w, "snr_penalty_db = {}", relay.snr_penalty.value());
    }

    for dock in &spec.docks {
        let _ = writeln!(w, "\n[[dock]]");
        let _ = writeln!(w, "position = [{}, {}]", dock.position.x, dock.position.y);
        let _ = writeln!(w, "slots = {}", dock.slots);
    }

    for group in &spec.tags {
        let _ = writeln!(w, "\n[[tag]]");
        if let Some(seed) = group.seed {
            let _ = writeln!(w, "seed = {seed}");
        }
        match &group.placement {
            Placement::At(points) => {
                let _ = write!(w, "at = [");
                for (k, p) in points.iter().enumerate() {
                    let sep = if k == 0 { "" } else { ", " };
                    let _ = write!(w, "{sep}[{}, {}]", p.x, p.y);
                }
                let _ = writeln!(w, "]");
            }
            Placement::Shelf {
                lateral,
                offset,
                depth_min,
                depth_max,
            } => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"shelf\"");
                let _ = writeln!(w, "lateral_m = {}", lateral.value());
                let _ = writeln!(w, "offset_m = {}", offset.value());
                let _ = writeln!(w, "depth_min_m = {}", depth_min.value());
                let _ = writeln!(w, "depth_max_m = {}", depth_max.value());
            }
            Placement::Uniform { margin } => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"uniform\"");
                let _ = writeln!(w, "margin_m = {}", margin.value());
            }
            Placement::Grid { margin } => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"grid\"");
                let _ = writeln!(w, "margin_m = {}", margin.value());
            }
            Placement::Belt => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"belt\"");
            }
        }
        if let Some(p) = group.power_up {
            let _ = writeln!(w, "power_up_dbm = {}", p.value());
        }
    }

    if spec.faults.storm {
        let _ = writeln!(w, "\n[faults]");
        let _ = writeln!(w, "storm = true");
    } else if let Some(n) = spec.faults.random_events {
        let _ = writeln!(w, "\n[faults]");
        let _ = writeln!(w, "random_events = {n}");
    }
    for event in &spec.faults.events {
        let _ = writeln!(w, "\n[[fault]]");
        let _ = writeln!(w, "step = {}", event.step);
        let _ = writeln!(w, "relay = {}", Quoted(&event.relay));
        write_fault_kind(w, &event.kind);
    }

    s
}

/// Appends the `kind = …` lines and parameters of a `[[fault]]` table.
fn write_fault_kind(w: &mut String, kind: &FaultKind) {
    match *kind {
        FaultKind::PhaseGlitch { rad } => {
            let _ = writeln!(w, "kind = \"phase-glitch\"");
            let _ = writeln!(w, "rad = {}", rad);
        }
        FaultKind::CfoDrift { rad, steps } => {
            let _ = writeln!(w, "kind = \"cfo-drift\"");
            let _ = writeln!(w, "rad = {}", rad);
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::GainDrift { db } => {
            let _ = writeln!(w, "kind = \"gain-drift\"");
            let _ = writeln!(w, "db = {}", db);
        }
        FaultKind::PaSag { db } => {
            let _ = writeln!(w, "kind = \"pa-sag\"");
            let _ = writeln!(w, "db = {}", db);
        }
        FaultKind::DeepFade { db, steps } => {
            let _ = writeln!(w, "kind = \"deep-fade\"");
            let _ = writeln!(w, "db = {}", db);
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::NoiseBurst { p_corrupt, steps } => {
            let _ = writeln!(w, "kind = \"noise-burst\"");
            let _ = writeln!(w, "p = {}", p_corrupt);
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::Gen2Drop { p_drop, steps } => {
            let _ = writeln!(w, "kind = \"gen2-drop\"");
            let _ = writeln!(w, "p = {}", p_drop);
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::TrackingDropout { steps } => {
            let _ = writeln!(w, "kind = \"tracking-dropout\"");
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::WindGust { dx_m, dy_m, steps } => {
            let _ = writeln!(w, "kind = \"wind-gust\"");
            let _ = writeln!(w, "dx_m = {}", dx_m);
            let _ = writeln!(w, "dy_m = {}", dy_m);
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::BatterySag => {
            let _ = writeln!(w, "kind = \"battery-sag\"");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_str;

    #[test]
    fn emit_then_parse_is_identity() {
        let src = r#"
[scenario]
name = "round \"trip\""
seed = 99

[world]
kind = "multi-floor"
width_m = 18.0
floor_depth_m = 9.0
floors = 2
shelves = 2

[interferers]
count = 3
level = 0.25

[[reader]]
position = [1.5, 1.5]

[[relay]]
id = "east"
cell = 1
snr_penalty_db = 2.5

[[relay]]
id = "west"
cell = 0

[energy]
capacity_j = 90000.0
reserve_frac = 0.25

[[dock]]
position = [2.0, 2.0]
slots = 2

[[tag]]
count = 24
seed = 7
placement = "shelf"
lateral_m = 0.5

[[tag]]
count = 4
placement = "uniform"
margin_m = 2.0
power_up_dbm = -18.5

[[fault]]
step = 2
relay = "east"
kind = "wind-gust"
dx_m = 0.4
dy_m = -0.2
steps = 3
"#;
        let spec = parse_str(src).expect("valid");
        let text = emit(&spec);
        let back = parse_str(&text).expect("emitted text parses");
        assert_eq!(spec, back);
        // Emission is canonical: emitting the re-parsed spec is
        // byte-identical.
        assert_eq!(text, emit(&back));
    }

    #[test]
    fn every_fault_kind_round_trips() {
        use rfly_faults::FaultKind as K;
        let kinds = [
            K::PhaseGlitch { rad: 1.25 },
            K::CfoDrift { rad: 0.3, steps: 4 },
            K::GainDrift { db: 6.0 },
            K::PaSag { db: 3.5 },
            K::DeepFade { db: 15.0, steps: 2 },
            K::NoiseBurst {
                p_corrupt: 0.5,
                steps: 3,
            },
            K::Gen2Drop {
                p_drop: 0.25,
                steps: 2,
            },
            K::TrackingDropout { steps: 5 },
            K::WindGust {
                dx_m: 0.5,
                dy_m: 0.125,
                steps: 2,
            },
            K::BatterySag,
        ];
        let base = r#"
[scenario]
name = "kinds"
seed = 1
[world]
kind = "warehouse"
width_m = 20.0
depth_m = 16.0
shelves = 2
[[reader]]
position = [1.0, 1.0]
[[relay]]
id = "a"
cell = 0
[[relay]]
id = "b"
cell = 1
[[tag]]
count = 4
"#;
        let mut spec = parse_str(base).expect("valid");
        for (step, kind) in kinds.iter().enumerate() {
            spec.faults.events.push(crate::schema::FaultEventSpec {
                step,
                relay: "a".to_string(),
                kind: *kind,
            });
        }
        let back = parse_str(&emit(&spec)).expect("parses");
        assert_eq!(spec, back);
    }
}

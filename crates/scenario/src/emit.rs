//! Canonical scenario serialization.
//!
//! [`emit`] renders any [`ScenarioSpec`] as scenario text such that
//! `parse(emit(spec)) == spec` — the property the corpus tests assert.
//! The output is fully explicit (defaults are written out) except for
//! fields whose *absence* is the spec's own representation (optional
//! seeds, time budgets, harvester overrides).

use std::fmt::Write;

use rfly_faults::text::fmt_f64;
use rfly_faults::FaultKind;

use crate::schema::{Placement, ScenarioSpec, WorldSpec};

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `spec` as canonical scenario text.
///
/// Writing to a `String` cannot fail; the `let _ =` bindings keep the
/// call sites tidy under the workspace's no-unwrap rule.
pub fn emit(spec: &ScenarioSpec) -> String {
    let mut s = String::new();
    let w = &mut s;

    let _ = writeln!(w, "[scenario]");
    let _ = writeln!(w, "name = {}", quoted(&spec.name));
    let _ = writeln!(w, "seed = {}", spec.seed);

    let _ = writeln!(w, "\n[world]");
    match &spec.world {
        WorldSpec::Warehouse {
            width,
            depth,
            shelves,
        } => {
            let _ = writeln!(w, "kind = \"warehouse\"");
            let _ = writeln!(w, "width_m = {}", fmt_f64(width.value()));
            let _ = writeln!(w, "depth_m = {}", fmt_f64(depth.value()));
            let _ = writeln!(w, "shelves = {shelves}");
        }
        WorldSpec::OpenFloor { width, depth } => {
            let _ = writeln!(w, "kind = \"open-floor\"");
            let _ = writeln!(w, "width_m = {}", fmt_f64(width.value()));
            let _ = writeln!(w, "depth_m = {}", fmt_f64(depth.value()));
        }
        WorldSpec::MultiFloor {
            width,
            floor_depth,
            floors,
            shelves,
        } => {
            let _ = writeln!(w, "kind = \"multi-floor\"");
            let _ = writeln!(w, "width_m = {}", fmt_f64(width.value()));
            let _ = writeln!(w, "floor_depth_m = {}", fmt_f64(floor_depth.value()));
            let _ = writeln!(w, "floors = {floors}");
            let _ = writeln!(w, "shelves = {shelves}");
        }
        WorldSpec::OutdoorAisles { width, depth, rows } => {
            let _ = writeln!(w, "kind = \"outdoor-aisles\"");
            let _ = writeln!(w, "width_m = {}", fmt_f64(width.value()));
            let _ = writeln!(w, "depth_m = {}", fmt_f64(depth.value()));
            let _ = writeln!(w, "rows = {rows}");
        }
        WorldSpec::OccupancyGrid { cell, rows } => {
            let _ = writeln!(w, "kind = \"occupancy-grid\"");
            let _ = writeln!(w, "cell_m = {}", fmt_f64(cell.value()));
            let quoted_rows: Vec<String> = rows.iter().map(|r| quoted(r)).collect();
            let _ = writeln!(w, "rows = [{}]", quoted_rows.join(", "));
        }
    }

    if spec.interferers != Default::default() {
        let _ = writeln!(w, "\n[interferers]");
        let _ = writeln!(w, "count = {}", spec.interferers.count);
        let _ = writeln!(w, "level = {}", fmt_f64(spec.interferers.level));
    }

    for belt in &spec.belts {
        let _ = writeln!(w, "\n[[belt]]");
        let _ = writeln!(w, "y_m = {}", fmt_f64(belt.y.value()));
        let _ = writeln!(w, "x_min_m = {}", fmt_f64(belt.x_min.value()));
        let _ = writeln!(w, "x_max_m = {}", fmt_f64(belt.x_max.value()));
        let _ = writeln!(w, "speed = {}", fmt_f64(belt.speed));
    }

    let _ = writeln!(w, "\n[budget]");
    let _ = writeln!(
        w,
        "intra_downlink_db = {}",
        fmt_f64(spec.budget.intra_downlink.value())
    );
    let _ = writeln!(
        w,
        "intra_uplink_db = {}",
        fmt_f64(spec.budget.intra_uplink.value())
    );
    let _ = writeln!(
        w,
        "inter_downlink_db = {}",
        fmt_f64(spec.budget.inter_downlink.value())
    );
    let _ = writeln!(
        w,
        "inter_uplink_db = {}",
        fmt_f64(spec.budget.inter_uplink.value())
    );

    if let Some(e) = &spec.energy {
        let _ = writeln!(w, "\n[energy]");
        let _ = writeln!(w, "capacity_j = {}", fmt_f64(e.capacity_j));
        let _ = writeln!(w, "hover_w = {}", fmt_f64(e.hover_w));
        let _ = writeln!(w, "tx_w = {}", fmt_f64(e.tx_w));
        let _ = writeln!(w, "ref_gain_db = {}", fmt_f64(e.ref_gain.value()));
        let _ = writeln!(w, "tx_w_per_db = {}", fmt_f64(e.tx_w_per_db));
        let _ = writeln!(w, "per_read_j = {}", fmt_f64(e.per_read_j));
        let _ = writeln!(w, "charge_w = {}", fmt_f64(e.charge_w));
        let _ = writeln!(w, "reserve_frac = {}", fmt_f64(e.reserve_frac));
        let _ = writeln!(w, "ready_frac = {}", fmt_f64(e.ready_frac));
    }

    let _ = writeln!(w, "\n[mission]");
    let _ = writeln!(w, "margin_db = {}", fmt_f64(spec.mission.margin.value()));
    let _ = writeln!(
        w,
        "sample_interval_s = {}",
        fmt_f64(spec.mission.sample_interval.value())
    );
    let _ = writeln!(w, "max_rounds = {}", spec.mission.max_rounds);
    if let Some(t) = spec.mission.time_budget {
        let _ = writeln!(w, "time_budget_s = {}", fmt_f64(t.value()));
    }
    let _ = writeln!(w, "platform = {}", quoted(spec.mission.platform.token()));

    let _ = writeln!(w, "\n[[reader]]");
    let _ = writeln!(
        w,
        "position = [{}, {}]",
        fmt_f64(spec.reader.x),
        fmt_f64(spec.reader.y)
    );

    for relay in &spec.relays {
        let _ = writeln!(w, "\n[[relay]]");
        let _ = writeln!(w, "id = {}", quoted(&relay.id));
        let _ = writeln!(w, "cell = {}", relay.cell);
        let _ = writeln!(w, "snr_penalty_db = {}", fmt_f64(relay.snr_penalty.value()));
    }

    for dock in &spec.docks {
        let _ = writeln!(w, "\n[[dock]]");
        let _ = writeln!(
            w,
            "position = [{}, {}]",
            fmt_f64(dock.position.x),
            fmt_f64(dock.position.y)
        );
        let _ = writeln!(w, "slots = {}", dock.slots);
    }

    for group in &spec.tags {
        let _ = writeln!(w, "\n[[tag]]");
        if let Some(seed) = group.seed {
            let _ = writeln!(w, "seed = {seed}");
        }
        match &group.placement {
            Placement::At(points) => {
                let pairs: Vec<String> = points
                    .iter()
                    .map(|p| format!("[{}, {}]", fmt_f64(p.x), fmt_f64(p.y)))
                    .collect();
                let _ = writeln!(w, "at = [{}]", pairs.join(", "));
            }
            Placement::Shelf {
                lateral,
                offset,
                depth_min,
                depth_max,
            } => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"shelf\"");
                let _ = writeln!(w, "lateral_m = {}", fmt_f64(lateral.value()));
                let _ = writeln!(w, "offset_m = {}", fmt_f64(offset.value()));
                let _ = writeln!(w, "depth_min_m = {}", fmt_f64(depth_min.value()));
                let _ = writeln!(w, "depth_max_m = {}", fmt_f64(depth_max.value()));
            }
            Placement::Uniform { margin } => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"uniform\"");
                let _ = writeln!(w, "margin_m = {}", fmt_f64(margin.value()));
            }
            Placement::Grid { margin } => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"grid\"");
                let _ = writeln!(w, "margin_m = {}", fmt_f64(margin.value()));
            }
            Placement::Belt => {
                let _ = writeln!(w, "count = {}", group.count);
                let _ = writeln!(w, "placement = \"belt\"");
            }
        }
        if let Some(p) = group.power_up {
            let _ = writeln!(w, "power_up_dbm = {}", fmt_f64(p.value()));
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
        let _ = writeln!(w, "relay = {}", quoted(&event.relay));
        let _ = write!(w, "{}", fault_kind_text(&event.kind));
    }

    s
}

fn fault_kind_text(kind: &FaultKind) -> String {
    let mut s = String::new();
    let w = &mut s;
    match *kind {
        FaultKind::PhaseGlitch { rad } => {
            let _ = writeln!(w, "kind = \"phase-glitch\"");
            let _ = writeln!(w, "rad = {}", fmt_f64(rad));
        }
        FaultKind::CfoDrift { rad, steps } => {
            let _ = writeln!(w, "kind = \"cfo-drift\"");
            let _ = writeln!(w, "rad = {}", fmt_f64(rad));
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::GainDrift { db } => {
            let _ = writeln!(w, "kind = \"gain-drift\"");
            let _ = writeln!(w, "db = {}", fmt_f64(db));
        }
        FaultKind::PaSag { db } => {
            let _ = writeln!(w, "kind = \"pa-sag\"");
            let _ = writeln!(w, "db = {}", fmt_f64(db));
        }
        FaultKind::DeepFade { db, steps } => {
            let _ = writeln!(w, "kind = \"deep-fade\"");
            let _ = writeln!(w, "db = {}", fmt_f64(db));
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::NoiseBurst { p_corrupt, steps } => {
            let _ = writeln!(w, "kind = \"noise-burst\"");
            let _ = writeln!(w, "p = {}", fmt_f64(p_corrupt));
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::Gen2Drop { p_drop, steps } => {
            let _ = writeln!(w, "kind = \"gen2-drop\"");
            let _ = writeln!(w, "p = {}", fmt_f64(p_drop));
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::TrackingDropout { steps } => {
            let _ = writeln!(w, "kind = \"tracking-dropout\"");
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::WindGust { dx_m, dy_m, steps } => {
            let _ = writeln!(w, "kind = \"wind-gust\"");
            let _ = writeln!(w, "dx_m = {}", fmt_f64(dx_m));
            let _ = writeln!(w, "dy_m = {}", fmt_f64(dy_m));
            let _ = writeln!(w, "steps = {steps}");
        }
        FaultKind::BatterySag => {
            let _ = writeln!(w, "kind = \"battery-sag\"");
        }
    }
    s
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

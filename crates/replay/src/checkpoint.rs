//! Mission checkpoints: the full supervised-mission state at a step
//! boundary, serialized in the workspace's line-oriented text form.
//!
//! A checkpoint has two halves: the supervisor half
//! ([`rfly_faults::MissionState`] — health, log, inventory, tracks,
//! channel plan, flight plans) and the world half
//! ([`rfly_sim::world::WorldSnapshot`] — the RNG stream states and
//! persistent Gen2 flags that survive a power cycle). Everything else
//! about the world is rebuilt from the [`crate::runner::Scenario`], so
//! checkpoints stay small: state that is a pure function of the
//! scenario line is never serialized.
//!
//! Like the journal, every float is written in shortest-round-trip
//! form (the bytes of its `Display`, through
//! [`rfly_faults::text::Line`]); `Checkpoint::from_text(c.to_text())` reproduces every field
//! bit for bit, and resuming from the *parsed* checkpoint is
//! bit-identical to resuming from the in-memory one.
//!
//! There is one encoder, [`CheckpointWriter`]. A durable mission keeps
//! one for its whole flight and formats only the track and log lines
//! each step added; [`Checkpoint::to_text`] is a fresh one. Both give
//! the same bytes.

use std::fmt::Write;

use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::GainPlan;
use rfly_drone::flightplan::FlightPlan;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::units::{Db, Hertz};
use rfly_dsp::Complex;
use rfly_faults::supervisor::{MissionState, StepTrack};
use rfly_faults::text::{parse_epc_hex, write_world, Fields, Line, ParseError, WorldLines};
use rfly_faults::{RelayHealth, ResilienceLog};
use rfly_fleet::inventory::{FleetInventory, Sighting, TagRecord};
use rfly_fleet::partition::Cell;
use rfly_sim::world::WorldSnapshot;

/// A full mission checkpoint, taken at a step boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The supervisor half.
    pub mission: MissionState,
    /// The world half (RNG streams + persistent Gen2 flags).
    pub world: WorldSnapshot,
}

/// The one checkpoint encoder. [`Checkpoint::to_text`] is a fresh
/// writer; a durable run keeps one for the whole mission.
///
/// It keeps the text of the two append-only sections of
/// [`MissionState`] that it has already formatted: each relay's `trk`
/// lines, and the resilience log's fault (`f`) and recovery (`a`)
/// lines, each with the count of entries the text covers. An encode
/// formats only the entries added since the last one, formats every
/// other section in full, and returns exactly the bytes a fresh writer
/// would.
///
/// The reuse rests on one invariant: between two encodes, a mission's
/// tracks and log only grow at their ends. [`MissionState::advance`]
/// keeps it. Any other change of history needs a fresh writer, which
/// [`crate::runner::MissionRun::restore`] takes. A shorter section or a
/// changed relay count is caught here and rebuilt from scratch.
#[derive(Debug, Default)]
pub struct CheckpointWriter {
    /// Per relay: its `trk` lines.
    tracks: Vec<Cached>,
    /// The log's `f` lines.
    faults: Cached,
    /// The log's `a` lines.
    recoveries: Cached,
    /// The length of the last text, so the next one is allocated once.
    last_len: usize,
}

/// The encoded lines of an append-only list's first `covers` entries.
#[derive(Debug, Clone, Default)]
struct Cached {
    text: String,
    covers: usize,
}

impl Cached {
    /// Appends the lines of all of `items` to `out`: the cached text,
    /// then the entries past `covers` (all of them when `items` shrank),
    /// formatted by `line` straight into `out` and kept. Returns how
    /// many bytes came from the cache.
    fn write<T>(
        &mut self,
        out: &mut String,
        items: &[T],
        mut line: impl FnMut(&mut String, &T),
    ) -> usize {
        if items.len() < self.covers {
            *self = Self::default();
        }
        let reused = self.text.len();
        out.push_str(&self.text);
        let start = out.len();
        for item in &items[self.covers..] {
            line(out, item);
        }
        self.text.push_str(&out[start..]);
        self.covers = items.len();
        reused
    }
}

impl CheckpointWriter {
    /// The checkpoint text of `m` and `world`, written into one buffer
    /// through [`Line`]. Bumps the `replay.checkpoint_bytes_formatted`
    /// counter by the bytes it formatted, cached text excluded.
    pub fn encode(&mut self, m: &MissionState, world: &WorldSnapshot) -> String {
        if self.tracks.len() != m.tracks.len() {
            self.tracks = vec![Cached::default(); m.tracks.len()];
        }
        let mut reused = 0;
        let mut s = String::with_capacity(self.last_len);
        s.push_str("rfly-checkpoint v1\n");
        Line::new(&mut s, "state")
            .kv_usize("step", m.step)
            .kv_usize("steps", m.steps)
            .kv_f64("duration", m.duration_s)
            .kv_usize("cap", m.step_cap)
            .kv_usize("done", usize::from(m.done))
            .end();
        Line::new(&mut s, "gains")
            .kv_f64("down", m.base_gains.downlink.value())
            .kv_f64("up", m.base_gains.uplink.value())
            .end();
        for (i, h) in m.health.iter().enumerate() {
            Line::new(&mut s, "relay")
                .usize(i)
                .kv_usize("alive", usize::from(h.alive))
                .kv_f64("phase", h.phase_noise_rad)
                .kv_f64("cfo", h.cfo_noise_rad)
                .kv_usize("cfoleft", h.cfo_steps_left)
                .kv_f64("gain", h.gain_drift_db)
                .kv_f64("pasag", h.pa_sag_db)
                .kv_f64("fade", h.fade_db)
                .kv_usize("fadeleft", h.fade_steps_left)
                .kv_f64("corruptp", h.corrupt_p)
                .kv_usize("corruptleft", h.corrupt_steps_left)
                .kv_f64("dropp", h.drop_p)
                .kv_usize("dropleft", h.drop_steps_left)
                .kv_usize("tracklost", h.tracking_lost_steps)
                .kv_f64("gustx", h.gust_m.0)
                .kv_f64("gusty", h.gust_m.1)
                .kv_usize("gustleft", h.gust_steps_left)
                .kv_opt_usize("lgain", h.last_gain_fault)
                .kv_opt_usize("luplink", h.last_uplink_fault)
                .kv_opt_usize("lphase", h.last_phase_fault)
                .kv_opt_usize("lbattery", h.battery_fault)
                .kv_opt_usize("ltrack", h.last_tracking_fault)
                .end();
        }
        for i in 0..m.f1.len() {
            Line::new(&mut s, "chan")
                .usize(i)
                .kv_f64("f1", m.f1[i].as_hz())
                .kv_f64("shift", m.shift[i].as_hz())
                .kv_f64("start", m.route_start[i])
                .kv_f64("hold", m.hold[i])
                .kv_f64("bx", m.believed[i].x)
                .kv_f64("by", m.believed[i].y)
                .end();
        }
        for (i, c) in m.cells.iter().enumerate() {
            Line::new(&mut s, "cell")
                .usize(i)
                .kv_usize("index", c.index)
                .kv_f64("minx", c.min.x)
                .kv_f64("miny", c.min.y)
                .kv_f64("maxx", c.max.x)
                .kv_f64("maxy", c.max.y)
                .end();
        }
        for (i, p) in m.plans.iter().enumerate() {
            let lim = p.limits();
            let mut line = Line::new(&mut s, "plan");
            line.usize(i)
                .kv_f64("speed", lim.max_speed)
                .kv_f64("accel", lim.max_accel);
            for wp in p.waypoints() {
                line.kv_f64("wp", wp.x).and_f64(wp.y);
            }
            line.end();
        }
        for (relay, (cache, track)) in self.tracks.iter_mut().zip(&m.tracks).enumerate() {
            reused += cache.write(&mut s, track, |out, st| {
                let mut line = Line::new(out, "trk");
                line.usize(relay)
                    .kv_f64("px", st.pos.x)
                    .kv_f64("py", st.pos.y);
                for e in &st.embedded {
                    line.kv_f64("emb", e.re).and_f64(e.im);
                }
                for &(epc, h) in &st.tags {
                    line.kv_epc("tag", epc).and_f64(h.re).and_f64(h.im);
                }
                line.end();
            });
        }
        let mut line = Line::new(&mut s, "inv");
        for &r in &m.inventory.per_relay_reads {
            line.usize(r);
        }
        line.end();
        for rec in m.inventory.records() {
            Line::new(&mut s, "tag")
                .epc(rec.epc)
                .kv_usize("fstep", rec.first_seen.step)
                .kv_usize("frelay", rec.first_seen.relay)
                .kv_usize("lstep", rec.last_seen.step)
                .kv_usize("lrelay", rec.last_seen.relay)
                .kv_usize("reads", rec.reads)
                .kv_usize("handoffs", rec.handoffs)
                .kv_f64("snr", rec.best_snr.value())
                .end();
        }
        // The bytes of `ResilienceLog`'s `Display`, a line at a time.
        s.push_str("resilience-log v1\n");
        reused += self.faults.write(&mut s, &m.log.faults, |out, ev| {
            let _ = writeln!(out, "{ev}");
        });
        reused += self.recoveries.write(&mut s, &m.log.recoveries, |out, r| {
            let _ = writeln!(out, "{r}");
        });
        s.push_str("end\n");
        write_world(&mut s, world);
        s.push_str("end\n");
        self.last_len = s.len();
        rfly_obs::counter_add(
            "replay.checkpoint_bytes_formatted",
            (s.len() - reused) as u64,
        );
        s
    }
}

impl Checkpoint {
    /// The full text form: [`CheckpointWriter::encode`] from an empty
    /// writer, so every byte is formatted.
    pub fn to_text(&self) -> String {
        CheckpointWriter::default().encode(&self.mission, &self.world)
    }

    /// Parses [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.lines().enumerate().map(|(n, l)| (n + 1, l.trim()));
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseError::new(1, "empty checkpoint text"))?;
        if header != "rfly-checkpoint v1" {
            return Err(ParseError::new(n, format!("bad header {header:?}")));
        }

        let mut state: Option<(usize, usize, f64, usize, bool)> = None;
        let mut base_gains: Option<GainPlan> = None;
        let mut health: Vec<RelayHealth> = Vec::new();
        let mut chans: Vec<(Hertz, Hertz, f64, f64, Point2)> = Vec::new();
        let mut cells: Vec<Cell> = Vec::new();
        let mut plans: Vec<FlightPlan> = Vec::new();
        let mut tracks: Vec<Vec<StepTrack>> = Vec::new();
        let mut per_relay_reads: Option<Vec<usize>> = None;
        let mut tag_records: Vec<TagRecord> = Vec::new();
        let mut log: Option<ResilienceLog> = None;
        let mut world = WorldLines::default();
        let mut ended = false;

        while let Some((n, line)) = lines.next() {
            if line.is_empty() {
                continue;
            }
            if line == "end" {
                ended = true;
                break;
            }
            if line == "resilience-log v1" {
                // Consume the embedded log block through its own `end`.
                let mut block = String::from("resilience-log v1\n");
                let mut closed = false;
                for (_, l) in lines.by_ref() {
                    block.push_str(l);
                    block.push('\n');
                    if l.trim() == "end" {
                        closed = true;
                        break;
                    }
                }
                if !closed {
                    return Err(ParseError::new(n, "unterminated resilience-log block"));
                }
                log = Some(ResilienceLog::from_text(&block)?);
                continue;
            }
            if world.parse(line, n)? {
                continue;
            }
            let mut f = Fields::new(line, n);
            match f.tok("record tag")? {
                "state" => {
                    state = Some((
                        f.kv_usize("step")?,
                        f.kv_usize("steps")?,
                        f.kv_f64("duration")?,
                        f.kv_usize("cap")?,
                        f.kv_usize("done")? != 0,
                    ));
                    f.finish()?;
                }
                "gains" => {
                    base_gains = Some(GainPlan {
                        downlink: Db::new(f.kv_f64("down")?),
                        uplink: Db::new(f.kv_f64("up")?),
                    });
                    f.finish()?;
                }
                "relay" => {
                    let i = f.usize("relay index")?;
                    if i != health.len() {
                        return Err(f.error(format!("relay lines out of order at index {i}")));
                    }
                    health.push(RelayHealth {
                        alive: f.kv_usize("alive")? != 0,
                        phase_noise_rad: f.kv_f64("phase")?,
                        cfo_noise_rad: f.kv_f64("cfo")?,
                        cfo_steps_left: f.kv_usize("cfoleft")?,
                        gain_drift_db: f.kv_f64("gain")?,
                        pa_sag_db: f.kv_f64("pasag")?,
                        fade_db: f.kv_f64("fade")?,
                        fade_steps_left: f.kv_usize("fadeleft")?,
                        corrupt_p: f.kv_f64("corruptp")?,
                        corrupt_steps_left: f.kv_usize("corruptleft")?,
                        drop_p: f.kv_f64("dropp")?,
                        drop_steps_left: f.kv_usize("dropleft")?,
                        tracking_lost_steps: f.kv_usize("tracklost")?,
                        gust_m: (f.kv_f64("gustx")?, f.kv_f64("gusty")?),
                        gust_steps_left: f.kv_usize("gustleft")?,
                        last_gain_fault: f.kv_opt_usize("lgain")?,
                        last_uplink_fault: f.kv_opt_usize("luplink")?,
                        last_phase_fault: f.kv_opt_usize("lphase")?,
                        battery_fault: f.kv_opt_usize("lbattery")?,
                        last_tracking_fault: f.kv_opt_usize("ltrack")?,
                    });
                    f.finish()?;
                }
                "chan" => {
                    let i = f.usize("channel index")?;
                    if i != chans.len() {
                        return Err(f.error(format!("chan lines out of order at index {i}")));
                    }
                    chans.push((
                        Hertz(f.kv_f64("f1")?),
                        Hertz(f.kv_f64("shift")?),
                        f.kv_f64("start")?,
                        f.kv_f64("hold")?,
                        Point2::new(f.kv_f64("bx")?, f.kv_f64("by")?),
                    ));
                    f.finish()?;
                }
                "cell" => {
                    let i = f.usize("cell slot")?;
                    if i != cells.len() {
                        return Err(f.error(format!("cell lines out of order at index {i}")));
                    }
                    cells.push(Cell {
                        index: f.kv_usize("index")?,
                        min: Point2::new(f.kv_f64("minx")?, f.kv_f64("miny")?),
                        max: Point2::new(f.kv_f64("maxx")?, f.kv_f64("maxy")?),
                    });
                    f.finish()?;
                }
                "plan" => {
                    let i = f.usize("plan index")?;
                    if i != plans.len() {
                        return Err(f.error(format!("plan lines out of order at index {i}")));
                    }
                    let limits = MotionLimits {
                        max_speed: f.kv_f64("speed")?,
                        max_accel: f.kv_f64("accel")?,
                    };
                    let mut waypoints = Vec::new();
                    while let Some(t) = f.opt_tok() {
                        let v = t.strip_prefix("wp=").ok_or_else(|| {
                            ParseError::new(n, format!("expected wp=<x>,<y>, found {t:?}"))
                        })?;
                        let (x, y) = v
                            .split_once(',')
                            .ok_or_else(|| ParseError::new(n, format!("bad waypoint {v:?}")))?;
                        let x: f64 = x
                            .parse()
                            .map_err(|_| ParseError::new(n, format!("bad waypoint x {x:?}")))?;
                        let y: f64 = y
                            .parse()
                            .map_err(|_| ParseError::new(n, format!("bad waypoint y {y:?}")))?;
                        waypoints.push(Point2::new(x, y));
                    }
                    let plan = FlightPlan::new(waypoints, limits)
                        .map_err(|e| ParseError::new(n, format!("bad flight plan: {e}")))?;
                    plans.push(plan);
                }
                "trk" => {
                    let relay = f.usize("relay index")?;
                    let mut st = StepTrack {
                        pos: Point2::new(f.kv_f64("px")?, f.kv_f64("py")?),
                        embedded: Vec::new(),
                        tags: Vec::new(),
                    };
                    while let Some(t) = f.opt_tok() {
                        if let Some(v) = t.strip_prefix("emb=") {
                            st.embedded.push(parse_complex(v, n)?);
                        } else if let Some(v) = t.strip_prefix("tag=") {
                            let (e, rest) = v.split_once(',').ok_or_else(|| {
                                ParseError::new(n, format!("bad track tag {v:?}"))
                            })?;
                            let epc = parse_epc_hex(e, n)?;
                            st.tags.push((epc, parse_complex(rest, n)?));
                        } else {
                            return Err(ParseError::new(
                                n,
                                format!("expected emb= or tag= group, found {t:?}"),
                            ));
                        }
                    }
                    if relay >= tracks.len() {
                        tracks.resize_with(relay + 1, Vec::new);
                    }
                    tracks[relay].push(st);
                }
                "inv" => {
                    let mut reads = Vec::new();
                    while let Some(t) = f.opt_tok() {
                        reads.push(t.parse().map_err(|_| {
                            ParseError::new(n, format!("bad per-relay read count {t:?}"))
                        })?);
                    }
                    per_relay_reads = Some(reads);
                }
                "tag" => {
                    let rec = TagRecord {
                        epc: f.epc("EPC")?,
                        first_seen: Sighting {
                            step: f.kv_usize("fstep")?,
                            relay: f.kv_usize("frelay")?,
                        },
                        last_seen: Sighting {
                            step: f.kv_usize("lstep")?,
                            relay: f.kv_usize("lrelay")?,
                        },
                        reads: f.kv_usize("reads")?,
                        handoffs: f.kv_usize("handoffs")?,
                        best_snr: Db::new(f.kv_f64("snr")?),
                    };
                    f.finish()?;
                    tag_records.push(rec);
                }
                other => {
                    return Err(ParseError::new(
                        n,
                        format!("unknown checkpoint record {other:?}"),
                    ))
                }
            }
        }
        if !ended {
            return Err(ParseError::new(
                text.lines().count(),
                "missing `end` footer",
            ));
        }

        let (step, steps, duration_s, step_cap, done) =
            state.ok_or_else(|| ParseError::new(0, "missing state line"))?;
        let base_gains = base_gains.ok_or_else(|| ParseError::new(0, "missing gains line"))?;
        let per_relay_reads =
            per_relay_reads.ok_or_else(|| ParseError::new(0, "missing inv line"))?;
        let log = log.ok_or_else(|| ParseError::new(0, "missing resilience-log block"))?;
        let world = world.finish()?;

        let n_relays = health.len();
        if chans.len() != n_relays || cells.len() != n_relays || plans.len() != n_relays {
            return Err(ParseError::new(
                0,
                format!(
                    "relay-count mismatch: {n_relays} relay, {} chan, {} cell, {} plan lines",
                    chans.len(),
                    cells.len(),
                    plans.len()
                ),
            ));
        }
        if tracks.len() < n_relays {
            tracks.resize_with(n_relays, Vec::new);
        }

        let mission = MissionState {
            step,
            steps,
            duration_s,
            step_cap,
            done,
            health,
            log,
            inventory: FleetInventory::from_parts(tag_records, per_relay_reads),
            tracks,
            f1: chans.iter().map(|c| c.0).collect(),
            shift: chans.iter().map(|c| c.1).collect(),
            base_gains,
            plans,
            cells,
            route_start: chans.iter().map(|c| c.2).collect(),
            hold: chans.iter().map(|c| c.3).collect(),
            believed: chans.iter().map(|c| c.4).collect(),
        };
        Ok(Checkpoint { mission, world })
    }
}

fn parse_complex(v: &str, line_no: usize) -> Result<Complex, ParseError> {
    let (re, im) = v
        .split_once(',')
        .ok_or_else(|| ParseError::new(line_no, format!("bad complex {v:?}")))?;
    let re: f64 = re
        .parse()
        .map_err(|_| ParseError::new(line_no, format!("bad complex re {re:?}")))?;
    let im: f64 = im
        .parse()
        .map_err(|_| ParseError::new(line_no, format!("bad complex im {im:?}")))?;
    Ok(Complex { re, im })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{MissionRun, Scenario};
    use rfly_faults::FaultSchedule;

    /// The checkpoint `scn` takes at the step boundary `step`.
    fn checkpoint_at(scn: &Scenario, storm: &FaultSchedule, step: usize) -> Checkpoint {
        let mut run = MissionRun::new(scn, storm).expect("builds");
        while !run.finished() && run.state.step() < step {
            run.advance();
        }
        run.checkpoint()
    }

    #[test]
    fn checkpoint_round_trips_byte_for_byte() {
        let scn = Scenario::small(13);
        let storm = FaultSchedule::storm(13, 2, 12);
        let cp = checkpoint_at(&scn, &storm, 3);
        let text = cp.to_text();
        let back = Checkpoint::from_text(&text).expect("parses");
        assert_eq!(back.to_text(), text, "re-serialization is byte-stable");
        assert_eq!(back.world.rng, cp.world.rng);
        assert_eq!(back.world.tags.len(), cp.world.tags.len());
        assert_eq!(back.mission.step, cp.mission.step);
        assert_eq!(back.mission.log, cp.mission.log);
        assert_eq!(back.mission.inventory, cp.mission.inventory);
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text("rfly-checkpoint v2\nend\n").is_err());
        assert!(
            Checkpoint::from_text("rfly-checkpoint v1\nend\n").is_err(),
            "missing required records"
        );
        let scn = Scenario::small(13);
        let cp = checkpoint_at(&scn, &FaultSchedule::none(), 2);
        let text = cp.to_text();
        let no_end = text.trim_end_matches("end\n");
        assert!(Checkpoint::from_text(no_end).is_err(), "missing footer");
        let garbled = text.replacen("state step=", "state stp=", 1);
        assert!(Checkpoint::from_text(&garbled).is_err());
    }
}

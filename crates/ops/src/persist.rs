//! Crash-consistent campaign persistence: resume-after-power-loss for
//! the continuous-operation loop.
//!
//! A long campaign is exactly the workload that meets a power loss —
//! hours of simulated duty cycles, dock rotations mid-swap, inventory
//! state accumulated over thousands of ticks. This module makes
//! [`CampaignRun`] a [`Durable`] stepper, so the engine in
//! [`rfly_chaos::durable`] persists it with the same protocol and code
//! as a mission:
//!
//! * the **campaign log** is a header (magic + the full config line),
//!   one [`TickRecord`] block per executed tick, and a seal footer;
//! * the **checkpoint** ([`CampaignCheckpoint`]) holds the duty roster,
//!   battery charges, current cell count, and the world RNG/Gen2 state;
//! * **recovery** restores the roster and world from the checkpoint,
//!   folds the salvaged blocks before it into the report aggregates,
//!   and re-drives [`CampaignRun::step`], byte-comparing every
//!   re-executed tick against its durable block. The final durable
//!   files are bit-identical to an uncrashed campaign's.
//!
//! A stored campaign is `durable::run(CampaignRun::new(scene, cfg)?,
//! storage, paths, every)`; `durable::recover` with a fresh run resumes
//! it.

use rfly_chaos::Durable;
use rfly_faults::text::{
    epc_hex, fmt_f64, opt_usize, parse_epc_hex, world_text, Fields, ParseError, WorldLines,
};
use rfly_fleet::channels::assign;
use rfly_fleet::partition::partition;
use rfly_sim::world::WorldSnapshot;

use crate::campaign::{CampaignRun, OpsConfig, OpsReport, TickRecord};
use crate::rotation::{Duty, Roster, Rotation};

/// The one-line config fingerprint embedded in the log header: every
/// [`OpsConfig`] and [`crate::energy::EnergyModel`] field in
/// shortest-round-trip form, so a recovery attempt against the wrong
/// config is caught by a string compare.
pub fn config_line(cfg: &OpsConfig) -> String {
    format!(
        "config relays={} cells={} tags={} tick={} dur={} floor={} margin={} rounds={} inv={} \
         seed={} cap={} hoverw={} txw={} refgain={} txdb={} readj={} chargew={} reserve={} ready={}",
        cfg.n_relays,
        cfg.n_cells,
        cfg.n_tags,
        fmt_f64(cfg.tick.value()),
        fmt_f64(cfg.duration.value()),
        fmt_f64(cfg.coverage_floor),
        fmt_f64(cfg.margin.value()),
        cfg.max_rounds,
        cfg.inventory_every,
        cfg.seed,
        fmt_f64(cfg.energy.capacity_j),
        fmt_f64(cfg.energy.hover_w),
        fmt_f64(cfg.energy.tx_w),
        fmt_f64(cfg.energy.ref_gain.value()),
        fmt_f64(cfg.energy.tx_w_per_db),
        fmt_f64(cfg.energy.per_read_j),
        fmt_f64(cfg.energy.charge_w),
        fmt_f64(cfg.energy.reserve_frac),
        fmt_f64(cfg.energy.ready_frac),
    )
}

/// One tick's log block: the `k` summary line, `rot` lines for every
/// rotation, an `n` line when new tags were inventoried, the `b`
/// battery line, and the `e` terminator salvage keys on.
pub fn tick_block(rec: &TickRecord) -> String {
    let mut s = format!(
        "k {} reads={} deaths={} repart={} coverage={}\n",
        rec.tick,
        rec.reads,
        rec.deaths,
        u8::from(rec.repartitioned),
        fmt_f64(rec.coverage),
    );
    for r in &rec.rotations {
        s.push_str(&format!(
            "rot tick={} cell={} incumbent={} standby={} dock={}\n",
            r.tick,
            r.cell,
            r.incumbent,
            r.standby,
            opt_usize(r.dock),
        ));
    }
    if !rec.new_tags.is_empty() {
        s.push('n');
        for epc in &rec.new_tags {
            s.push(' ');
            s.push_str(&epc_hex(*epc));
        }
        s.push('\n');
    }
    s.push('b');
    for c in &rec.charges {
        s.push(' ');
        s.push_str(&fmt_f64(*c));
    }
    s.push('\n');
    s.push_str("e\n");
    s
}

/// Parses one [`tick_block`] back into a [`TickRecord`].
pub fn parse_tick_block(text: &str) -> Result<TickRecord, ParseError> {
    let mut rec: Option<TickRecord> = None;
    let mut have_b = false;
    let mut ended = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if ended {
            return Err(ParseError::new(n, "records after the `e` terminator"));
        }
        let first = line.split_whitespace().next().unwrap_or("");
        if first == "k" {
            if rec.is_some() {
                return Err(ParseError::new(n, "duplicate `k` line in tick block"));
            }
            let mut f = Fields::new(line, n);
            f.expect_tok("k")?;
            rec = Some(TickRecord {
                tick: f.usize("tick index")?,
                reads: f.kv_usize("reads")?,
                deaths: f.kv_usize("deaths")?,
                repartitioned: f.kv_usize("repart")? != 0,
                coverage: f.kv_f64("coverage")?,
                rotations: Vec::new(),
                new_tags: Vec::new(),
                charges: Vec::new(),
            });
            f.finish()?;
            continue;
        }
        let Some(rec) = rec.as_mut() else {
            return Err(ParseError::new(n, format!("{first:?} before the `k` line")));
        };
        let mut f = Fields::new(line, n);
        match first {
            "rot" => {
                f.expect_tok("rot")?;
                rec.rotations.push(Rotation {
                    tick: f.kv_usize("tick")?,
                    cell: f.kv_usize("cell")?,
                    incumbent: f.kv_usize("incumbent")?,
                    standby: f.kv_usize("standby")?,
                    dock: f.kv_opt_usize("dock")?,
                });
                f.finish()?;
            }
            "n" => {
                f.expect_tok("n")?;
                while let Some(t) = f.opt_tok() {
                    rec.new_tags.push(parse_epc_hex(t, n)?);
                }
            }
            "b" => {
                f.expect_tok("b")?;
                while let Some(t) = f.opt_tok() {
                    rec.charges.push(
                        t.parse()
                            .map_err(|_| ParseError::new(n, format!("bad charge {t:?}")))?,
                    );
                }
                have_b = true;
            }
            "e" => {
                f.expect_tok("e")?;
                f.finish()?;
                ended = true;
            }
            other => {
                return Err(ParseError::new(
                    n,
                    format!("unknown campaign log record {other:?}"),
                ))
            }
        }
    }
    let rec = rec.ok_or_else(|| ParseError::new(1, "tick block has no `k` line"))?;
    if !have_b || !ended {
        return Err(ParseError::new(
            text.lines().count(),
            "tick block missing its `b` line or `e` terminator",
        ));
    }
    Ok(rec)
}

/// A campaign checkpoint: everything the resume path cannot rebuild
/// from `(scene, cfg)` and the salvaged log — the duty roster with
/// battery charges, the current partition size (it shrinks on
/// repartitions), the halt flag, and the world RNG/Gen2 state.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// The next tick to execute.
    pub next_tick: usize,
    /// Current partition size (cells being flown).
    pub cells: usize,
    /// Whether the campaign halted (floor went dark).
    pub halted: bool,
    /// `(duty, charge)` per relay, in relay order.
    pub duties: Vec<(Duty, f64)>,
    /// The world RNG streams and persistent Gen2 flags.
    pub world: WorldSnapshot,
}

impl CampaignCheckpoint {
    /// The full text form.
    pub fn to_text(&self) -> String {
        let mut s = String::from("rfly-campaign-ck v1\n");
        s.push_str(&format!(
            "tick {} cells={} halted={}\n",
            self.next_tick,
            self.cells,
            u8::from(self.halted),
        ));
        for (i, (duty, charge)) in self.duties.iter().enumerate() {
            let (kind, at) = match duty {
                Duty::Serving { cell } => ("serving", cell.to_string()),
                Duty::Docked { dock } => ("docked", dock.to_string()),
                Duty::Dead => ("dead", "-".to_string()),
            };
            s.push_str(&format!(
                "relay {i} duty={kind} at={at} charge={}\n",
                fmt_f64(*charge)
            ));
        }
        s.push_str(&world_text(&self.world));
        s.push_str("end\n");
        s
    }

    /// Parses [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.lines().enumerate().map(|(n, l)| (n + 1, l.trim()));
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseError::new(1, "empty checkpoint text"))?;
        if header != "rfly-campaign-ck v1" {
            return Err(ParseError::new(n, format!("bad header {header:?}")));
        }
        let mut tick: Option<(usize, usize, bool)> = None;
        let mut duties: Vec<(Duty, f64)> = Vec::new();
        let mut world = WorldLines::default();
        let mut ended = false;
        for (n, line) in lines {
            if line.is_empty() {
                continue;
            }
            if line == "end" {
                ended = true;
                break;
            }
            if world.parse(line, n)? {
                continue;
            }
            let mut f = Fields::new(line, n);
            match f.tok("record tag")? {
                "tick" => {
                    tick = Some((
                        f.usize("next tick")?,
                        f.kv_usize("cells")?,
                        f.kv_usize("halted")? != 0,
                    ));
                    f.finish()?;
                }
                "relay" => {
                    let i = f.usize("relay index")?;
                    if i != duties.len() {
                        return Err(f.error(format!("relay lines out of order at index {i}")));
                    }
                    let kind = f.kv("duty")?;
                    let at = f.kv("at")?;
                    let duty = match kind {
                        "serving" => Duty::Serving {
                            cell: at
                                .parse()
                                .map_err(|_| ParseError::new(n, format!("bad cell {at:?}")))?,
                        },
                        "docked" => Duty::Docked {
                            dock: at
                                .parse()
                                .map_err(|_| ParseError::new(n, format!("bad dock {at:?}")))?,
                        },
                        "dead" => Duty::Dead,
                        other => return Err(ParseError::new(n, format!("unknown duty {other:?}"))),
                    };
                    let charge = f.kv_f64("charge")?;
                    f.finish()?;
                    duties.push((duty, charge));
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
        let (next_tick, cells, halted) =
            tick.ok_or_else(|| ParseError::new(0, "missing tick line"))?;
        Ok(Self {
            next_tick,
            cells,
            halted,
            duties,
            world: world.finish()?,
        })
    }
}

fn checkpoint_of(run: &CampaignRun<'_>) -> CampaignCheckpoint {
    CampaignCheckpoint {
        next_tick: run.tick,
        cells: run.hover.len(),
        halted: run.halted,
        duties: run.roster.duties(),
        world: run.world.snapshot(),
    }
}

/// Parses the `end ticks=<n>` seal line.
fn parse_seal(line: &str) -> Result<usize, ParseError> {
    let mut f = Fields::new(line, 1);
    f.expect_tok("end")?;
    let ticks = f.kv_usize("ticks")?;
    f.finish()?;
    Ok(ticks)
}

impl Durable for CampaignRun<'_> {
    type Record = TickRecord;
    type Checkpoint = CampaignCheckpoint;
    type Output = OpsReport;

    const MAGIC: &'static str = "rfly-campaign v1";

    fn is_identity(line: &str) -> bool {
        line.split_whitespace().next() == Some("config")
    }

    fn parse_block(block: &str) -> Option<(usize, TickRecord)> {
        let rec = parse_tick_block(block).ok()?;
        Some((rec.tick, rec))
    }

    fn seal_steps(line: &str) -> Option<usize> {
        parse_seal(line).ok()
    }

    fn parse_checkpoint(text: &str) -> Option<(usize, CampaignCheckpoint)> {
        let ck = CampaignCheckpoint::from_text(text).ok()?;
        Some((ck.next_tick, ck))
    }

    fn identity(&self) -> String {
        config_line(&self.cfg)
    }

    fn position(&self) -> usize {
        self.tick
    }

    fn finished(&self) -> bool {
        CampaignRun::finished(self)
    }

    fn next_block(&mut self) -> Result<String, String> {
        self.step().map(|rec| tick_block(&rec))
    }

    fn checkpoint(&self) -> String {
        checkpoint_of(self).to_text()
    }

    /// Re-derives the partition at the checkpointed cell count and
    /// restores the roster and world verbatim.
    fn restore(&mut self, ck: CampaignCheckpoint) -> Result<(), String> {
        let cfg = &self.cfg;
        if ck.duties.len() != cfg.n_relays {
            return Err(format!(
                "checkpoint has {} relays, config has {}",
                ck.duties.len(),
                cfg.n_relays
            ));
        }
        if ck.cells == 0 || ck.cells > cfg.n_cells {
            return Err(format!(
                "checkpoint cell count {} out of range (config {})",
                ck.cells, cfg.n_cells
            ));
        }
        if ck.cells != self.hover.len() {
            // The campaign had repartitioned; re-derive the shrunken
            // partition and channel plan exactly as the live loop did.
            let part = partition(self.scene, ck.cells, self.limits)
                .map_err(|e| format!("repartition during restore failed: {e:?}"))?;
            self.hover = part.cells.iter().map(|c| c.center()).collect();
            self.plan = assign(&self.hover, &self.budget, cfg.margin, cfg.seed)
                .map_err(|e| format!("channel reassignment during restore failed: {e:?}"))?;
        }
        let dock_slots: Vec<usize> = self.scene.docks.iter().map(|d| d.slots).collect();
        self.roster = Roster::from_duties(&ck.duties, &dock_slots)?;
        self.world
            .restore(&ck.world)
            .map_err(|e| format!("world restore failed: {e}"))?;
        self.tick = ck.next_tick;
        self.halted = ck.halted;
        Ok(())
    }

    fn replay(&mut self, rec: TickRecord) {
        self.seen.extend(rec.new_tags);
        self.report.total_reads += rec.reads;
        self.report.deaths += rec.deaths;
        if rec.repartitioned {
            self.report.repartitions += 1;
        }
        self.report.rotations.extend(rec.rotations);
        if rec.coverage < self.report.min_coverage {
            self.report.min_coverage = rec.coverage;
        }
        for (row, charge) in self.report.trace.iter_mut().zip(rec.charges) {
            row.push(charge);
        }
    }

    fn finish(self) -> Result<(OpsReport, String), String> {
        let seal = format!("end ticks={}\n", self.tick);
        Ok((self.into_report(), seal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_channel::geometry::Point2;
    use rfly_chaos::durable::{self, StorePaths};
    use rfly_chaos::{MemStorage, Storage};
    use rfly_dsp::units::Seconds;
    use rfly_sim::scene::Scene;

    fn docked_scene() -> Scene {
        let mut scene = Scene::warehouse(16.0, 12.0, 2);
        scene.add_dock(Point2::new(1.0, 11.0), 2);
        scene
    }

    fn short_cfg(seed: u64) -> OpsConfig {
        let mut cfg = OpsConfig::small(seed);
        // A 2-hour horizon: long enough for deaths and a repartition
        // on this roster, short enough for the matrix.
        cfg.duration = Seconds::new(7200.0);
        cfg
    }

    fn paths() -> StorePaths {
        StorePaths::named("campaign")
    }

    fn reference(seed: u64, every: usize) -> (MemStorage, OpsReport) {
        let scene = docked_scene();
        let cfg = short_cfg(seed);
        let mut store = MemStorage::new();
        let run = CampaignRun::new(&scene, &cfg).expect("builds");
        let report =
            durable::run(run, &mut store, &paths(), every).expect("stored campaign completes");
        (store, report)
    }

    #[test]
    fn stored_campaign_matches_run_campaign() {
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let plain = crate::campaign::run_campaign(&scene, &cfg).expect("runs");
        let (_, stored) = reference(11, 4);
        assert_eq!(stored.trace_text(), plain.trace_text());
        assert_eq!(stored.rotations, plain.rotations);
        assert_eq!(stored.deaths, plain.deaths);
        assert_eq!(stored.repartitions, plain.repartitions);
        assert_eq!(stored.unique_tags, plain.unique_tags);
        assert_eq!(stored.total_reads, plain.total_reads);
        assert_eq!(stored.min_coverage, plain.min_coverage);
    }

    #[test]
    fn tick_blocks_round_trip() {
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let mut run = CampaignRun::new(&scene, &cfg).expect("builds");
        while !run.finished() {
            let rec = run.step().expect("steps");
            let text = tick_block(&rec);
            let back = parse_tick_block(&text).expect("parses");
            assert_eq!(back, rec);
            assert_eq!(tick_block(&back), text, "re-serialization is byte-stable");
        }
    }

    #[test]
    fn campaign_checkpoint_round_trips() {
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let mut run = CampaignRun::new(&scene, &cfg).expect("builds");
        for _ in 0..5 {
            run.step().expect("steps");
        }
        let ck = checkpoint_of(&run);
        let text = ck.to_text();
        let back = CampaignCheckpoint::from_text(&text).expect("parses");
        assert_eq!(back, ck);
        assert_eq!(back.to_text(), text, "re-serialization is byte-stable");
        assert!(CampaignCheckpoint::from_text("").is_err());
        assert!(CampaignCheckpoint::from_text("rfly-campaign-ck v2\nend\n").is_err());
    }

    #[test]
    fn salvage_truncates_torn_campaign_log() {
        let (store, report) = reference(11, 4);
        let cfg = short_cfg(11);
        let raw = store.read(&paths().journal).expect("log exists");
        let full = durable::salvage::<CampaignRun>(&raw);
        assert_eq!(full.identity, Some(config_line(&cfg)));
        assert_eq!(full.records.len(), report.ticks);
        assert!(full.seal.is_some());
        assert_eq!(full.dropped_bytes, 0);
        // Tear inside the last block's battery line.
        let text = String::from_utf8(raw.clone()).expect("utf8");
        let cut = text.rfind("\nb ").expect("has a battery line") + 3;
        let torn = durable::salvage::<CampaignRun>(&raw[..cut]);
        assert!(torn.identity.is_some());
        assert_eq!(torn.seal, None);
        assert!(torn.records.len() < full.records.len());
        assert!(torn.dropped_bytes > 0);
    }

    #[test]
    fn recovery_from_torn_log_is_bit_identical() {
        let (reference_store, report) = reference(11, 4);
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let paths = paths();
        let raw = reference_store.read(&paths.journal).expect("log exists");
        // Crash with half the log durable and no checkpoint.
        let mut crashed = MemStorage::new();
        crashed
            .append(&paths.journal, &raw[..raw.len() / 2])
            .expect("seed torn log");
        let run = CampaignRun::new(&scene, &cfg).expect("builds");
        let recovered = durable::recover(run, &mut crashed, &paths, 4).expect("recovery completes");
        assert_eq!(crashed, reference_store, "storage is bit-identical");
        assert_eq!(recovered.trace_text(), report.trace_text());
        assert_eq!(recovered.rotations, report.rotations);
        assert_eq!(recovered.unique_tags, report.unique_tags);
        assert_eq!(recovered.min_coverage, report.min_coverage);
    }

    #[test]
    fn recovery_refuses_a_foreign_log() {
        let (mut store, _) = reference(11, 4);
        let scene = docked_scene();
        let mut cfg = short_cfg(11);
        cfg.seed = 12;
        let run = CampaignRun::new(&scene, &cfg).expect("builds");
        let err = durable::recover(run, &mut store, &paths(), 4)
            .expect_err("foreign config must be refused");
        assert!(err.contains("different run (config "), "{err}");
    }
}

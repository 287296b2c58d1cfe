//! The append-only mission journal.
//!
//! One mission produces one journal: a header naming the scenario, then
//! one block per executed step, then (if the mission ran to completion)
//! a seal footer. Every float is written in shortest-round-trip form,
//! so `Journal::from_text(j.to_text())` reproduces every field bit for
//! bit — the property the divergence detector and the crash-consistency
//! tests lean on.
//!
//! Step block grammar (`<f>` = shortest-round-trip float):
//!
//! ```text
//! s <step>
//! f <id> <step> <relay> <kind…>      fault strike (schedule line form)
//! a <step> <trigger> <action…>       recovery (resilience-log line form)
//! m <i> <j> <margin-db>              worst alive pair margin
//! r <relay> <epc24> <re> <im> <snr>  one environment-tag read
//! g <hex> <hex> <hex> <hex>          world RNG state after the step
//! e <0|1>                            step terminator; 1 = mission done
//! ```
//!
//! The `f` and `a` lines are the fault-schedule and resilience-log line
//! forms *verbatim* — a journal embeds the mission's
//! [`rfly_faults::ResilienceLog`] record stream unchanged, so `grep
//! '^a '` over a journal is exactly the recovery log.
//!
//! A journal whose process was killed simply stops after the last
//! complete step block; [`Journal::from_text`] accepts the missing
//! footer and leaves [`Journal::sealed`] as `None`.

use std::fmt::Write;

use rfly_dsp::units::{Db, Seconds};
use rfly_dsp::Complex;
use rfly_faults::supervisor::{ReadRecord, StepRecord};
use rfly_faults::text::{Fields, Line, ParseError};
use rfly_faults::{FaultEvent, LoggedRecovery};

use crate::runner::Scenario;

/// The completion footer of a sealed journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seal {
    /// Inventory stops flown.
    pub steps: usize,
    /// Mission duration, seconds.
    pub duration_s: f64,
}

/// A mission's step-by-step record.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The scenario that produced it.
    pub scenario: Scenario,
    /// One record per executed step, in order.
    pub steps: Vec<StepRecord>,
    /// The completion footer; `None` for a journal cut short by a kill.
    pub sealed: Option<Seal>,
}

impl Journal {
    /// An empty journal for `scenario`.
    pub fn begin(scenario: Scenario) -> Self {
        Self {
            scenario,
            steps: Vec::new(),
            sealed: None,
        }
    }

    /// Appends one executed step.
    pub fn push(&mut self, rec: &StepRecord) {
        self.steps.push(rec.clone());
    }

    /// Seals the journal with the mission outcome's totals.
    pub fn seal(&mut self, steps: usize, duration: Seconds) {
        self.sealed = Some(Seal {
            steps,
            duration_s: duration.value(),
        });
    }

    /// The full text form, written into one buffer.
    pub fn to_text(&self) -> String {
        let mut s = header_text(&self.scenario);
        for rec in &self.steps {
            write_step_block(&mut s, rec);
        }
        if let Some(seal) = &self.sealed {
            write_seal(&mut s, seal);
        }
        s
    }

    /// Parses [`Self::to_text`]. A missing `end` footer is accepted
    /// (the journal of a killed mission); a *truncated step block* is
    /// not — the last line of an accepted journal must be an `e`
    /// terminator or the footer.
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.lines().enumerate().map(|(n, l)| (n + 1, l.trim()));
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseError::new(1, "empty journal text"))?;
        if header != MAGIC {
            return Err(ParseError::new(n, format!("bad header {header:?}")));
        }
        let (n, scn_line) = lines
            .next()
            .ok_or_else(|| ParseError::new(n + 1, "missing scenario line"))?;
        let scenario = Scenario::from_line(scn_line, n)?;
        let mut journal = Journal::begin(scenario);
        // The lines of the open step block and the line it opened at.
        let mut block = String::new();
        let mut opened = 0;
        for (n, line) in lines {
            let first = line.split_whitespace().next();
            if block.is_empty() {
                if first.is_none() {
                    continue;
                }
                if first == Some("end") {
                    journal.sealed = Some(parse_seal(line, n)?);
                    return Ok(journal);
                }
                opened = n;
            }
            block.push_str(line);
            block.push('\n');
            if first == Some("e") {
                journal.steps.push(parse_step_block(&block, opened)?);
                block.clear();
            }
        }
        if !block.is_empty() {
            return Err(ParseError::new(opened, "step block has no `e` terminator"));
        }
        Ok(journal)
    }
}

/// The journal's version line.
pub const MAGIC: &str = "rfly-journal v1";

/// The journal header: the version line plus the scenario line —
/// exactly the prefix an incremental writer appends before any step.
pub fn header_text(scenario: &Scenario) -> String {
    format!("{MAGIC}\n{scenario}\n")
}

/// The seal footer line a completed mission appends last.
pub fn seal_text(seal: &Seal) -> String {
    let mut s = String::new();
    write_seal(&mut s, seal);
    s
}

/// Appends the [`seal_text`] line to `out`.
fn write_seal(out: &mut String, seal: &Seal) {
    Line::new(out, "end")
        .kv_usize("steps", seal.steps)
        .kv_f64("duration", seal.duration_s)
        .end();
}

/// One step block's text form — the unit an incremental journal writer
/// appends per executed step (and the unit crash salvage keeps or
/// drops whole: a block missing its `e` terminator is torn).
pub fn step_block(rec: &StepRecord) -> String {
    let mut s = String::new();
    write_step_block(&mut s, rec);
    s
}

/// Appends the [`step_block`] of `rec` to `out`. The `f` and `a` lines
/// are the fault and recovery `Display` forms; every other line goes
/// through [`Line`].
fn write_step_block(out: &mut String, rec: &StepRecord) {
    Line::new(out, "s").usize(rec.step).end();
    for f in &rec.faults {
        let _ = writeln!(out, "{f}");
    }
    for a in &rec.recoveries {
        let _ = writeln!(out, "{a}");
    }
    if let Some((i, j, m)) = rec.margin {
        Line::new(out, "m").usize(i).usize(j).f64(m).end();
    }
    for r in &rec.reads {
        Line::new(out, "r")
            .usize(r.relay)
            .epc(r.epc)
            .f64(r.channel.re)
            .f64(r.channel.im)
            .f64(r.snr.value())
            .end();
    }
    let [a, b, c, d] = rec.rng;
    Line::new(out, "g")
        .hex_u64(a)
        .hex_u64(b)
        .hex_u64(c)
        .hex_u64(d)
        .end();
    Line::new(out, "e").usize(usize::from(rec.done)).end();
}

/// Parses a [`seal_text`] line, reporting errors at `line_no`.
pub fn parse_seal(line: &str, line_no: usize) -> Result<Seal, ParseError> {
    let mut f = Fields::new(line, line_no);
    f.expect_tok("end")?;
    let seal = Seal {
        steps: f.kv_usize("steps")?,
        duration_s: f.kv_f64("duration")?,
    };
    f.finish()?;
    Ok(seal)
}

/// Parses one [`step_block`], which must end with its `e` line, whose
/// first line is line `line_no` of the journal.
pub fn parse_step_block(text: &str, line_no: usize) -> Result<StepRecord, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(n, l)| (n + line_no, l.trim()))
        .filter(|(_, l)| !l.is_empty());
    let (n, first) = lines
        .next()
        .ok_or_else(|| ParseError::new(line_no, "empty step block"))?;
    let mut rec = open_step(first, n)?;
    while let Some((n, line)) = lines.next() {
        let tag = line.split_whitespace().next().unwrap_or("");
        if parse_step_line(tag, line, n, &mut rec)? {
            return match lines.next() {
                None => Ok(rec),
                Some((n, _)) => Err(ParseError::new(n, "records after the `e` terminator")),
            };
        }
    }
    Err(ParseError::new(n, "step block has no `e` terminator"))
}

/// Parses a block's opening `s <step>` line into an empty record.
fn open_step(line: &str, n: usize) -> Result<StepRecord, ParseError> {
    let mut f = Fields::new(line, n);
    f.expect_tok("s")?;
    let step = f.usize("step index")?;
    f.finish()?;
    Ok(StepRecord {
        step,
        faults: Vec::new(),
        recoveries: Vec::new(),
        margin: None,
        reads: Vec::new(),
        rng: [0; 4],
        done: false,
    })
}

/// Parses one in-block journal line into `rec`. Returns `true` when the
/// line was the `e` terminator (the block is complete).
fn parse_step_line(
    first: &str,
    line: &str,
    n: usize,
    rec: &mut StepRecord,
) -> Result<bool, ParseError> {
    match first {
        "f" => rec.faults.push(FaultEvent::from_line(line, n)?),
        "a" => rec.recoveries.push(LoggedRecovery::from_line(line, n)?),
        "m" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("m")?;
            let i = f.usize("relay i")?;
            let j = f.usize("relay j")?;
            let m = f.f64("margin dB")?;
            f.finish()?;
            rec.margin = Some((i, j, m));
        }
        "r" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("r")?;
            let read = ReadRecord {
                relay: f.usize("relay")?,
                epc: f.epc("EPC")?,
                channel: Complex {
                    re: f.f64("channel re")?,
                    im: f.f64("channel im")?,
                },
                snr: Db::new(f.f64("SNR dB")?),
            };
            f.finish()?;
            rec.reads.push(read);
        }
        "g" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("g")?;
            for w in rec.rng.iter_mut() {
                *w = f.hex_u64("RNG word")?;
            }
            f.finish()?;
        }
        "e" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("e")?;
            rec.done = f.usize("done flag")? != 0;
            f.finish()?;
            return Ok(true);
        }
        other => {
            return Err(ParseError::new(
                n,
                format!("unknown journal record {other:?}"),
            ))
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_faults::FaultSchedule;

    #[test]
    fn journal_round_trips_byte_for_byte() {
        let scn = Scenario::small(11);
        let run = crate::runner::run_full(&scn, &FaultSchedule::storm(11, 2, 12)).expect("runs");
        let text = run.journal.to_text();
        let back = Journal::from_text(&text).expect("parses");
        assert_eq!(back, run.journal);
        assert_eq!(back.to_text(), text, "re-serialization is byte-stable");
        assert!(back.sealed.is_some());
        assert!(!back.steps.is_empty());
    }

    #[test]
    fn killed_journal_parses_without_a_footer() {
        let scn = Scenario::small(11);
        let run = crate::runner::run_full(&scn, &FaultSchedule::none()).expect("runs");
        let text = run.journal.to_text();
        // Cut the footer and every line of the last step block.
        let cut: String = {
            let lines: Vec<&str> = text.lines().collect();
            let last_e = lines
                .iter()
                .rposition(|l| l.starts_with("e "))
                .expect("has a step");
            let prev_e = lines[..last_e]
                .iter()
                .rposition(|l| l.starts_with("e "))
                .expect("has two steps");
            lines[..=prev_e].join("\n")
        };
        let partial = Journal::from_text(&cut).expect("partial journal parses");
        assert_eq!(partial.sealed, None);
        assert_eq!(partial.steps.len(), run.journal.steps.len() - 1);
        assert_eq!(partial.steps[..], run.journal.steps[..partial.steps.len()]);
    }

    #[test]
    fn truncated_step_block_is_rejected() {
        let scn = Scenario::small(11);
        let run = crate::runner::run_full(&scn, &FaultSchedule::none()).expect("runs");
        let text = run.journal.to_text();
        let cut: String = {
            let lines: Vec<&str> = text.lines().collect();
            // Drop the footer and the last `e` terminator.
            lines[..lines.len() - 2].join("\n")
        };
        assert!(Journal::from_text(&cut).is_err(), "no `e` terminator");
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        assert!(Journal::from_text("").is_err());
        assert!(Journal::from_text("rfly-journal v2\n").is_err());
        let scn_line = Scenario::small(1).to_string();
        let bad = format!("rfly-journal v1\n{scn_line}\nz 1\n");
        let err = Journal::from_text(&bad).expect_err("unknown record");
        assert_eq!(err.line, 3);
        let orphan = format!("rfly-journal v1\n{scn_line}\nm 0 1 2.5\n");
        assert!(Journal::from_text(&orphan).is_err(), "record outside block");
    }
}

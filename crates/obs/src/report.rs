//! The metric-report exporter: one mission's recorder rendered as
//! stable text and JSON, written under `results/obs/`.
//!
//! Both renderings are deterministic functions of the recorder's
//! contents: counters and histograms iterate in `BTreeMap` order,
//! events in sequence order, and every float prints in shortest
//! round-trip form — so a replayed mission's report is byte-identical
//! to the live run's.

use std::fmt::Write;
use std::io;
use std::path::{Path, PathBuf};

use rfly_dsp::decimal::{push_f64, Shortest};

use crate::record::{Recorder, Value};

/// A rendered-to-be metric report for one mission.
#[derive(Debug, Clone)]
pub struct Report<'a> {
    rec: &'a Recorder,
}

impl<'a> Report<'a> {
    /// Wraps a finished recorder.
    pub fn from_recorder(rec: &'a Recorder) -> Self {
        Self { rec }
    }

    /// The human-readable text form.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "rfly-obs report: {}", self.rec.mission);
        s.push_str("\n[counters]\n");
        for (name, v) in &self.rec.counters {
            let _ = writeln!(s, "{name} = {v}");
        }
        s.push_str("\n[histograms]\n");
        for (name, h) in &self.rec.histograms {
            let _ = writeln!(
                s,
                "{name} ({unit}): n={n} min={min} mean={mean} max={max}",
                unit = h.unit,
                n = h.count,
                min = Shortest(h.min),
                mean = Shortest(h.mean()),
                max = Shortest(h.max),
            );
        }
        s.push_str("\n[events]\n");
        for e in &self.rec.events {
            let _ = write!(s, "#{}", e.seq);
            if !e.span.is_empty() {
                let _ = write!(s, " @{}", e.span);
            }
            let _ = write!(s, " {} ", e.name);
            for (k, (key, v)) in e.fields.iter().enumerate() {
                let sep = if k == 0 { "" } else { " " };
                let _ = write!(s, "{sep}{key}={}", v.render());
            }
            s.push('\n');
        }
        s
    }

    /// The machine-readable JSON form.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{\n  \"mission\": {},", json_str(&self.rec.mission));
        s.push_str("  \"counters\": {");
        for (k, (name, v)) in self.rec.counters.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    {}: {v}", json_str(name));
        }
        s.push_str("\n  },\n");
        s.push_str("  \"histograms\": {");
        for (k, (name, h)) in self.rec.histograms.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {}: {{\"unit\": {}, \"count\": {}, \"min\": {}, \"mean\": {}, \"max\": {}}}",
                json_str(name),
                json_str(h.unit),
                h.count,
                json_f64(h.min),
                json_f64(h.mean()),
                json_f64(h.max),
            );
        }
        s.push_str("\n  },\n");
        s.push_str("  \"events\": [");
        for (k, e) in self.rec.events.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"seq\": {}, \"span\": {}, \"name\": {}, \"fields\": {{",
                e.seq,
                json_str(&e.span),
                json_str(e.name),
            );
            for (j, (key, v)) in e.fields.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}{}: {}", json_str(key), json_value(v));
            }
            s.push_str("}}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Writes `<dir>/<stem>.txt` and `<dir>/<stem>.json`, creating
    /// `dir` as needed. Returns the two paths written.
    pub fn write_to_dir(&self, dir: &Path, stem: &str) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let txt = dir.join(format!("{stem}.txt"));
        let json = dir.join(format!("{stem}.json"));
        std::fs::write(&txt, self.render_text())?;
        std::fs::write(&json, self.render_json())?;
        Ok((txt, json))
    }
}

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else passed through as UTF-8. The
/// workspace's one JSON string writer.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON value: the shortest round-trip decimal for finite
/// values, a quoted string otherwise (JSON has no inf/nan literals).
/// The digits are [`push_f64`]'s, the bytes of `v`'s `Display`.
pub fn json_f64(v: f64) -> String {
    let mut s = String::new();
    if v.is_finite() {
        push_f64(&mut s, v);
    } else {
        s.push('"');
        push_f64(&mut s, v);
        s.push('"');
    }
    s
}

fn json_value(v: &Value) -> String {
    match v {
        Value::U64(n) => format!("{n}"),
        Value::I64(n) => format!("{n}"),
        Value::F64(n) => json_f64(*n),
        Value::Text(t) => json_str(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{counter_add, event, install, observe_db, take};
    use rfly_dsp::units::Db;

    fn sample() -> Recorder {
        install(Recorder::new("sample"));
        counter_add("a.count", 2);
        observe_db("a.snr_db", Db::new(12.5));
        event(
            "a.fault",
            vec![("relay", Value::U64(1)), ("kind", Value::Text("x".into()))],
        );
        take().unwrap()
    }

    #[test]
    fn renders_are_deterministic() {
        let a = sample();
        let b = sample();
        let ra = Report::from_recorder(&a);
        let rb = Report::from_recorder(&b);
        assert_eq!(ra.render_text(), rb.render_text());
        assert_eq!(ra.render_json(), rb.render_json());
        assert!(ra.render_text().contains("a.count = 2"));
        assert!(ra.render_json().contains("\"a.snr_db\""));
    }

    #[test]
    fn json_escapes_and_handles_nonfinite() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::INFINITY), "\"inf\"");
    }

    #[test]
    fn write_to_dir_round_trips() {
        let rec = sample();
        let dir = std::env::temp_dir().join("rfly-obs-test");
        let (txt, json) = Report::from_recorder(&rec)
            .write_to_dir(&dir, "sample")
            .unwrap();
        let txt_body = std::fs::read_to_string(&txt).unwrap();
        assert_eq!(txt_body, Report::from_recorder(&rec).render_text());
        let json_body = std::fs::read_to_string(&json).unwrap();
        assert!(json_body.starts_with('{') && json_body.ends_with("}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

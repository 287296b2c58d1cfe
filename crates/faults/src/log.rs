//! The structured resilience log: every injected fault and every
//! recovery action the supervisor took, cross-linked.
//!
//! Each [`LoggedRecovery`] cites the fault event id that triggered it,
//! so the log is *auditable*: [`ResilienceLog::is_consistent`] checks
//! that no recovery exists without a prior matching fault — the
//! invariant the `recovery_proptest` property test holds over random
//! fault schedules.

use rfly_protocol::epc::Epc;
use rfly_sim::report::Table;

use crate::schedule::FaultEvent;
use crate::text::{epc_hex, fmt_f64, Fields, ParseError};

/// One recovery action the mission supervisor can take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// A silent inventory stop under an active uplink fault was retried
    /// with a fresh Gen2 round (bounded backoff).
    Retry {
        /// The serving relay.
        relay: usize,
        /// Retry attempt number, 1-based.
        attempt: usize,
    },
    /// A thermally-drifted relay's VGA chain was re-programmed back to
    /// its §6.1 allocation, restoring the eroded margin.
    GainTrim {
        /// The trimmed relay.
        relay: usize,
        /// Excess gain removed, dB.
        trimmed_db: f64,
    },
    /// The fleet's Δf channels were re-assigned mid-flight to restore a
    /// violated mutual-loop margin.
    DeltaFReassign {
        /// The relay pair whose margin was violated.
        pair: (usize, usize),
        /// The margin before re-assignment, dB.
        margin_before_db: f64,
        /// The margin after re-assignment, dB.
        margin_after_db: f64,
    },
    /// The floor was re-partitioned among the surviving relays after a
    /// relay died.
    Repartition {
        /// The dead relay.
        dead_relay: usize,
        /// Relays still flying.
        survivors: usize,
    },
    /// A dead relay's cell was handed to a surviving relay.
    CellHandoff {
        /// The orphaned cell (original relay index).
        cell: usize,
        /// The relay that owned it.
        from: usize,
        /// The surviving relay now covering its center.
        to: usize,
    },
    /// A sagged power amplifier was re-biased back to its §6.1
    /// operating point after the output-power detector caught the
    /// compressed EIRP (the PA-side mirror of [`Self::GainTrim`]).
    PaRebias {
        /// The re-biased relay.
        relay: usize,
        /// PA headroom restored, dB.
        restored_db: f64,
    },
    /// A drone paused on its route while the tracking system had no
    /// fix (position-unknown samples are useless to SAR).
    RouteHold {
        /// The held relay.
        relay: usize,
    },
    /// SAR localization was abandoned for coarse RSSI ranging because
    /// injected phase incoherence tripped the coherence gate.
    SarFallback {
        /// The relay whose track is incoherent.
        relay: usize,
        /// The tag localized by fallback.
        epc: Epc,
        /// The measured track coherence (mean resultant length, in \[0, 1\]).
        coherence: f64,
    },
}

impl RecoveryAction {
    /// A short category name for reporting.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryAction::Retry { .. } => "retry",
            RecoveryAction::GainTrim { .. } => "gain-trim",
            RecoveryAction::DeltaFReassign { .. } => "Δf-reassign",
            RecoveryAction::Repartition { .. } => "repartition",
            RecoveryAction::CellHandoff { .. } => "cell-handoff",
            RecoveryAction::PaRebias { .. } => "pa-rebias",
            RecoveryAction::RouteHold { .. } => "route-hold",
            RecoveryAction::SarFallback { .. } => "sar-fallback",
        }
    }

    /// The stable text form: an ASCII action token plus `key=value`
    /// parameters (the display name's `Δ` stays out of the wire format
    /// so journals are pure ASCII). Round-trips via [`Self::parse`].
    pub fn to_text(&self) -> String {
        match *self {
            RecoveryAction::Retry { relay, attempt } => {
                format!("retry relay={relay} attempt={attempt}")
            }
            RecoveryAction::GainTrim { relay, trimmed_db } => {
                format!("gain-trim relay={relay} db={}", fmt_f64(trimmed_db))
            }
            RecoveryAction::DeltaFReassign {
                pair,
                margin_before_db,
                margin_after_db,
            } => format!(
                "df-reassign i={} j={} before={} after={}",
                pair.0,
                pair.1,
                fmt_f64(margin_before_db),
                fmt_f64(margin_after_db)
            ),
            RecoveryAction::Repartition {
                dead_relay,
                survivors,
            } => format!("repartition dead={dead_relay} survivors={survivors}"),
            RecoveryAction::CellHandoff { cell, from, to } => {
                format!("cell-handoff cell={cell} from={from} to={to}")
            }
            RecoveryAction::PaRebias { relay, restored_db } => {
                format!("pa-rebias relay={relay} db={}", fmt_f64(restored_db))
            }
            RecoveryAction::RouteHold { relay } => format!("route-hold relay={relay}"),
            RecoveryAction::SarFallback {
                relay,
                epc,
                coherence,
            } => format!(
                "sar-fallback relay={relay} epc={} coherence={}",
                epc_hex(epc),
                fmt_f64(coherence)
            ),
        }
    }

    /// Parses the [`Self::to_text`] form from a token cursor.
    pub fn parse(fields: &mut Fields<'_>) -> Result<Self, ParseError> {
        let tok = fields.tok("recovery action")?;
        Ok(match tok {
            "retry" => RecoveryAction::Retry {
                relay: fields.kv_usize("relay")?,
                attempt: fields.kv_usize("attempt")?,
            },
            "gain-trim" => RecoveryAction::GainTrim {
                relay: fields.kv_usize("relay")?,
                trimmed_db: fields.kv_f64("db")?,
            },
            "df-reassign" => RecoveryAction::DeltaFReassign {
                pair: (fields.kv_usize("i")?, fields.kv_usize("j")?),
                margin_before_db: fields.kv_f64("before")?,
                margin_after_db: fields.kv_f64("after")?,
            },
            "repartition" => RecoveryAction::Repartition {
                dead_relay: fields.kv_usize("dead")?,
                survivors: fields.kv_usize("survivors")?,
            },
            "cell-handoff" => RecoveryAction::CellHandoff {
                cell: fields.kv_usize("cell")?,
                from: fields.kv_usize("from")?,
                to: fields.kv_usize("to")?,
            },
            "pa-rebias" => RecoveryAction::PaRebias {
                relay: fields.kv_usize("relay")?,
                restored_db: fields.kv_f64("db")?,
            },
            "route-hold" => RecoveryAction::RouteHold {
                relay: fields.kv_usize("relay")?,
            },
            "sar-fallback" => RecoveryAction::SarFallback {
                relay: fields.kv_usize("relay")?,
                epc: fields.kv_epc("epc")?,
                coherence: fields.kv_f64("coherence")?,
            },
            other => return Err(fields.error(format!("unknown recovery action {other:?}"))),
        })
    }
}

/// One recovery, time-stamped and linked to its triggering fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedRecovery {
    /// Mission step at which the action was taken.
    pub step: usize,
    /// The action.
    pub action: RecoveryAction,
    /// Id of the [`FaultEvent`] that triggered it.
    pub trigger: usize,
}

impl LoggedRecovery {
    /// The stable one-line form: `a <step> <trigger> <action…>`.
    pub fn to_line(&self) -> String {
        format!("a {} {} {}", self.step, self.trigger, self.action.to_text())
    }

    /// Parses [`Self::to_line`]; `line_no` is for error reporting.
    pub fn from_line(line: &str, line_no: usize) -> Result<Self, ParseError> {
        let mut f = Fields::new(line, line_no);
        f.expect_tok("a")?;
        let rec = LoggedRecovery {
            step: f.usize("step")?,
            trigger: f.usize("trigger id")?,
            action: RecoveryAction::parse(&mut f)?,
        };
        f.finish()?;
        Ok(rec)
    }
}

/// The mission's structured fault-and-recovery record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceLog {
    /// Faults that actually struck (in application order).
    pub faults: Vec<FaultEvent>,
    /// Recovery actions taken (in order).
    pub recoveries: Vec<LoggedRecovery>,
}

impl ResilienceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fault that struck.
    pub fn record_fault(&mut self, ev: &FaultEvent) {
        self.faults.push(*ev);
    }

    /// Records a recovery action triggered by fault `trigger`.
    pub fn record(&mut self, step: usize, action: RecoveryAction, trigger: usize) {
        self.recoveries.push(LoggedRecovery {
            step,
            action,
            trigger,
        });
    }

    /// The auditing invariant: every recovery cites a recorded fault
    /// that struck at or before the recovery's step.
    pub fn is_consistent(&self) -> bool {
        self.recoveries.iter().all(|r| {
            self.faults
                .iter()
                .any(|f| f.id == r.trigger && f.step <= r.step)
        })
    }

    /// All SAR→RSSI fallback recoveries.
    pub fn sar_fallbacks(&self) -> Vec<&LoggedRecovery> {
        self.recoveries
            .iter()
            .filter(|r| matches!(r.action, RecoveryAction::SarFallback { .. }))
            .collect()
    }

    /// How many recoveries of the given category name were taken.
    pub fn count(&self, name: &str) -> usize {
        self.recoveries
            .iter()
            .filter(|r| r.action.name() == name)
            .count()
    }

    /// The stable text form: a header, one `f` line per fault struck,
    /// one `a` line per recovery (both in recorded order), and an `end`
    /// footer. Journals embed this block verbatim; round-trips via
    /// [`Self::from_text`].
    pub fn to_text(&self) -> String {
        let mut s = String::from("resilience-log v1\n");
        for f in &self.faults {
            s.push_str(&f.to_line());
            s.push('\n');
        }
        for r in &self.recoveries {
            s.push_str(&r.to_line());
            s.push('\n');
        }
        s.push_str("end\n");
        s
    }

    /// Parses the [`Self::to_text`] form.
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.lines().enumerate();
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseError::new(1, "empty log text"))?;
        if header.trim() != "resilience-log v1" {
            return Err(ParseError::new(n + 1, format!("bad header {header:?}")));
        }
        let mut log = ResilienceLog::new();
        let mut ended = false;
        for (n, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == "end" {
                ended = true;
                break;
            }
            match line.split_whitespace().next() {
                Some("f") => log.faults.push(FaultEvent::from_line(line, n + 1)?),
                Some("a") => log.recoveries.push(LoggedRecovery::from_line(line, n + 1)?),
                _ => {
                    return Err(ParseError::new(
                        n + 1,
                        format!("expected an `f` or `a` record, found {line:?}"),
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
        Ok(log)
    }

    /// A summary table: faults applied and recoveries per category.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new("Resilience log", &["event", "count"]);
        t.row(&["faults applied".into(), self.faults.len().to_string()]);
        for name in [
            "retry",
            "gain-trim",
            "Δf-reassign",
            "repartition",
            "cell-handoff",
            "pa-rebias",
            "route-hold",
            "sar-fallback",
        ] {
            t.row(&[name.into(), self.count(name).to_string()]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultKind;

    fn fault(id: usize, step: usize) -> FaultEvent {
        FaultEvent {
            id,
            step,
            relay: 0,
            kind: FaultKind::BatterySag,
        }
    }

    #[test]
    fn consistency_requires_a_prior_matching_fault() {
        let mut log = ResilienceLog::new();
        assert!(log.is_consistent(), "an empty log is consistent");
        log.record_fault(&fault(0, 3));
        log.record(
            4,
            RecoveryAction::Repartition {
                dead_relay: 0,
                survivors: 3,
            },
            0,
        );
        assert!(log.is_consistent());

        // A recovery citing an unknown fault id is inconsistent.
        log.record(5, RecoveryAction::RouteHold { relay: 1 }, 99);
        assert!(!log.is_consistent());
    }

    #[test]
    fn recovery_before_its_fault_is_inconsistent() {
        let mut log = ResilienceLog::new();
        log.record_fault(&fault(0, 7));
        log.record(
            2,
            RecoveryAction::Retry {
                relay: 0,
                attempt: 1,
            },
            0,
        );
        assert!(!log.is_consistent(), "recovery precedes the fault");
    }

    #[test]
    fn text_form_round_trips_a_full_log() {
        let mut log = ResilienceLog::new();
        log.record_fault(&FaultEvent {
            id: 0,
            step: 1,
            relay: 2,
            kind: FaultKind::Gen2Drop {
                p_drop: 0.8137,
                steps: 4,
            },
        });
        log.record_fault(&fault(1, 3));
        let actions = [
            RecoveryAction::Retry {
                relay: 2,
                attempt: 1,
            },
            RecoveryAction::GainTrim {
                relay: 1,
                trimmed_db: 12.75,
            },
            RecoveryAction::DeltaFReassign {
                pair: (0, 2),
                margin_before_db: -1.0 / 3.0,
                margin_after_db: 11.5,
            },
            RecoveryAction::Repartition {
                dead_relay: 0,
                survivors: 3,
            },
            RecoveryAction::CellHandoff {
                cell: 0,
                from: 0,
                to: 2,
            },
            RecoveryAction::PaRebias {
                relay: 2,
                restored_db: 5.5,
            },
            RecoveryAction::RouteHold { relay: 1 },
            RecoveryAction::SarFallback {
                relay: 1,
                epc: Epc::from_index(7),
                coherence: 0.2183,
            },
        ];
        for (k, a) in actions.into_iter().enumerate() {
            log.record(4 + k, a, 1);
        }

        let text = log.to_text();
        let back = ResilienceLog::from_text(&text).expect("parses");
        assert_eq!(back.faults, log.faults);
        assert_eq!(back.recoveries, log.recoveries);
        // Serialized bytes are stable across the round trip.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_malformed_logs() {
        assert!(ResilienceLog::from_text("").is_err());
        assert!(ResilienceLog::from_text("resilience-log v2\nend\n").is_err());
        assert!(ResilienceLog::from_text("resilience-log v1\n").is_err());
        let err = ResilienceLog::from_text("resilience-log v1\nz 1 2\nend\n")
            .expect_err("unknown record");
        assert_eq!(err.line, 2);
        assert!(
            ResilienceLog::from_text("resilience-log v1\na 4 0 warp-jump x=1\nend\n").is_err(),
            "unknown action"
        );
    }

    #[test]
    fn counts_and_fallback_filter() {
        let mut log = ResilienceLog::new();
        log.record_fault(&fault(0, 0));
        log.record(
            1,
            RecoveryAction::Retry {
                relay: 2,
                attempt: 1,
            },
            0,
        );
        log.record(
            1,
            RecoveryAction::Retry {
                relay: 2,
                attempt: 2,
            },
            0,
        );
        log.record(
            2,
            RecoveryAction::SarFallback {
                relay: 1,
                epc: Epc::from_index(7),
                coherence: 0.2,
            },
            0,
        );
        assert_eq!(log.count("retry"), 2);
        assert_eq!(log.sar_fallbacks().len(), 1);
        assert!(!log.summary_table().is_empty());
        assert!(log.is_consistent());
    }
}

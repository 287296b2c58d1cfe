//! Seeded, schedule-driven fault models.
//!
//! A [`FaultSchedule`] is a deterministic list of [`FaultEvent`]s —
//! which relay breaks, how, and at which mission step. The same seed
//! always produces the same storm, so a supervised and an unsupervised
//! mission can be hit with *identical* weather and compared read for
//! read. Fault kinds cover every layer the paper's system spans: the
//! relay's oscillators and gain stages (§4.3, §6.1), the tag uplink,
//! the Gen2 transaction itself, and the carrier drone.

use std::fmt;

use rfly_dsp::rng::{Rng, SliceRandom, StdRng};

use crate::text::{Fields, ParseError, Shortest};

/// One way a relay, its uplink, or its drone can degrade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Oscillator phase glitch: the NCO loses its mirrored phase
    /// reference permanently, scattering every later observation's
    /// phase by up to `rad`. Reads survive; SAR coherence does not.
    PhaseGlitch {
        /// Peak per-observation phase scatter, radians.
        rad: f64,
    },
    /// CFO step-drift: the synthesizers walk apart for `steps` mission
    /// steps, scattering observation phase by up to `rad` while active.
    CfoDrift {
        /// Peak per-observation phase scatter while drifting, radians.
        rad: f64,
        /// Mission steps the drift lasts.
        steps: usize,
    },
    /// Thermal gain drift: the VGA chain runs `db` hot, eroding the
    /// Eq. 3 mutual-loop stability margin against every neighbor.
    GainDrift {
        /// Excess downlink gain, dB.
        db: f64,
    },
    /// Gain-stage saturation: the PA's compression point sags by `db`,
    /// capping the downlink output power.
    PaSag {
        /// Compression-point reduction, dB.
        db: f64,
    },
    /// Burst deep fade on the tag uplink: every observation loses `db`
    /// of SNR for `steps` mission steps.
    DeepFade {
        /// SNR loss, dB.
        db: f64,
        /// Mission steps the fade lasts.
        steps: usize,
    },
    /// CRC-corrupting noise burst: each reply frame is bit-flipped with
    /// probability `p_corrupt` for `steps` mission steps (a corrupted
    /// frame fails to parse and reads as a collision).
    NoiseBurst {
        /// Per-frame corruption probability.
        p_corrupt: f64,
        /// Mission steps the burst lasts.
        steps: usize,
    },
    /// Gen2 transaction drops: each command broadcast times out with
    /// probability `p_drop` for `steps` mission steps.
    Gen2Drop {
        /// Per-transaction drop probability.
        p_drop: f64,
        /// Mission steps the dropouts last.
        steps: usize,
    },
    /// Drone tracking dropout: the localization system loses the drone
    /// for `steps` mission steps.
    TrackingDropout {
        /// Mission steps the dropout lasts.
        steps: usize,
    },
    /// Wind gust: the drone is pushed `(dx, dy)` meters off its
    /// waypoint for `steps` mission steps.
    WindGust {
        /// Offset east, meters.
        dx_m: f64,
        /// Offset north, meters.
        dy_m: f64,
        /// Mission steps the gust lasts.
        steps: usize,
    },
    /// Battery sag: the drone must return to land immediately and its
    /// relay leaves the fleet for the rest of the mission.
    BatterySag,
}

/// The stable text form: a kind token followed by `key=value`
/// parameters, e.g. `deep-fade db=18 steps=4`. Floats use the codec's
/// shortest round-trip form ([`Shortest`]), so `parse` rebuilds the
/// identical kind.
impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::PhaseGlitch { rad } => write!(f, "phase-glitch rad={}", Shortest(rad)),
            FaultKind::CfoDrift { rad, steps } => {
                write!(f, "cfo-drift rad={} steps={steps}", Shortest(rad))
            }
            FaultKind::GainDrift { db } => write!(f, "gain-drift db={}", Shortest(db)),
            FaultKind::PaSag { db } => write!(f, "pa-sag db={}", Shortest(db)),
            FaultKind::DeepFade { db, steps } => {
                write!(f, "deep-fade db={} steps={steps}", Shortest(db))
            }
            FaultKind::NoiseBurst { p_corrupt, steps } => {
                write!(f, "noise-burst p={} steps={steps}", Shortest(p_corrupt))
            }
            FaultKind::Gen2Drop { p_drop, steps } => {
                write!(f, "gen2-drop p={} steps={steps}", Shortest(p_drop))
            }
            FaultKind::TrackingDropout { steps } => write!(f, "tracking-dropout steps={steps}"),
            FaultKind::WindGust { dx_m, dy_m, steps } => write!(
                f,
                "wind-gust dx={} dy={} steps={steps}",
                Shortest(dx_m),
                Shortest(dy_m)
            ),
            FaultKind::BatterySag => f.write_str("battery-sag"),
        }
    }
}

impl FaultKind {
    /// Parses the [`Display`](fmt::Display) form from a token cursor.
    pub fn parse(fields: &mut Fields<'_>) -> Result<Self, ParseError> {
        let tok = fields.tok("fault kind")?;
        Ok(match tok {
            "phase-glitch" => FaultKind::PhaseGlitch {
                rad: fields.kv_f64("rad")?,
            },
            "cfo-drift" => FaultKind::CfoDrift {
                rad: fields.kv_f64("rad")?,
                steps: fields.kv_usize("steps")?,
            },
            "gain-drift" => FaultKind::GainDrift {
                db: fields.kv_f64("db")?,
            },
            "pa-sag" => FaultKind::PaSag {
                db: fields.kv_f64("db")?,
            },
            "deep-fade" => FaultKind::DeepFade {
                db: fields.kv_f64("db")?,
                steps: fields.kv_usize("steps")?,
            },
            "noise-burst" => FaultKind::NoiseBurst {
                p_corrupt: fields.kv_f64("p")?,
                steps: fields.kv_usize("steps")?,
            },
            "gen2-drop" => FaultKind::Gen2Drop {
                p_drop: fields.kv_f64("p")?,
                steps: fields.kv_usize("steps")?,
            },
            "tracking-dropout" => FaultKind::TrackingDropout {
                steps: fields.kv_usize("steps")?,
            },
            "wind-gust" => FaultKind::WindGust {
                dx_m: fields.kv_f64("dx")?,
                dy_m: fields.kv_f64("dy")?,
                steps: fields.kv_usize("steps")?,
            },
            "battery-sag" => FaultKind::BatterySag,
            other => return Err(fields.error(format!("unknown fault kind {other:?}"))),
        })
    }

    /// A strictly weaker variant for delta-debugging: halves severities
    /// (radians, dB, probabilities, gust offsets) and durations.
    /// Returns `None` at the weakening floor — repeated application
    /// always terminates, which the shrinker's progress bound needs.
    pub fn weakened(&self) -> Option<FaultKind> {
        const MIN_RAD: f64 = 0.05;
        const MIN_DB: f64 = 0.5;
        const MIN_P: f64 = 0.02;
        const MIN_M: f64 = 0.1;
        fn halve(x: f64, min: f64) -> Option<f64> {
            let h = x / 2.0;
            (h.abs() >= min).then_some(h)
        }
        fn halve_steps(s: usize) -> Option<usize> {
            (s > 1).then_some(s / 2)
        }
        match *self {
            FaultKind::PhaseGlitch { rad } => {
                halve(rad, MIN_RAD).map(|rad| FaultKind::PhaseGlitch { rad })
            }
            FaultKind::CfoDrift { rad, steps } => match (halve(rad, MIN_RAD), halve_steps(steps)) {
                (None, None) => None,
                (r, s) => Some(FaultKind::CfoDrift {
                    rad: r.unwrap_or(rad),
                    steps: s.unwrap_or(steps),
                }),
            },
            FaultKind::GainDrift { db } => halve(db, MIN_DB).map(|db| FaultKind::GainDrift { db }),
            FaultKind::PaSag { db } => halve(db, MIN_DB).map(|db| FaultKind::PaSag { db }),
            FaultKind::DeepFade { db, steps } => match (halve(db, MIN_DB), halve_steps(steps)) {
                (None, None) => None,
                (d, s) => Some(FaultKind::DeepFade {
                    db: d.unwrap_or(db),
                    steps: s.unwrap_or(steps),
                }),
            },
            FaultKind::NoiseBurst { p_corrupt, steps } => {
                match (halve(p_corrupt, MIN_P), halve_steps(steps)) {
                    (None, None) => None,
                    (p, s) => Some(FaultKind::NoiseBurst {
                        p_corrupt: p.unwrap_or(p_corrupt),
                        steps: s.unwrap_or(steps),
                    }),
                }
            }
            FaultKind::Gen2Drop { p_drop, steps } => {
                match (halve(p_drop, MIN_P), halve_steps(steps)) {
                    (None, None) => None,
                    (p, s) => Some(FaultKind::Gen2Drop {
                        p_drop: p.unwrap_or(p_drop),
                        steps: s.unwrap_or(steps),
                    }),
                }
            }
            FaultKind::TrackingDropout { steps } => {
                halve_steps(steps).map(|steps| FaultKind::TrackingDropout { steps })
            }
            FaultKind::WindGust { dx_m, dy_m, steps } => {
                match (halve(dx_m, MIN_M), halve(dy_m, MIN_M), halve_steps(steps)) {
                    (None, None, None) => None,
                    (x, y, s) => Some(FaultKind::WindGust {
                        dx_m: x.unwrap_or(dx_m),
                        dy_m: y.unwrap_or(dy_m),
                        steps: s.unwrap_or(steps),
                    }),
                }
            }
            FaultKind::BatterySag => None,
        }
    }
}

/// One scheduled fault: which relay, when, what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Schedule-unique event id ([`crate::log::ResilienceLog`] links
    /// recovery actions back to it).
    pub id: usize,
    /// Mission step at which the fault strikes.
    pub step: usize,
    /// The afflicted relay (original fleet index).
    pub relay: usize,
    /// What breaks.
    pub kind: FaultKind,
}

/// The stable one-line form: `f <id> <step> <relay> <kind…>`, without
/// its newline.
impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f {} {} {} {}",
            self.id, self.step, self.relay, self.kind
        )
    }
}

impl FaultEvent {
    /// Parses the [`Display`](fmt::Display) line; `line_no` is for
    /// error reporting.
    pub fn from_line(line: &str, line_no: usize) -> Result<Self, ParseError> {
        let mut f = Fields::new(line, line_no);
        f.expect_tok("f")?;
        let ev = FaultEvent {
            id: f.usize("event id")?,
            step: f.usize("step")?,
            relay: f.usize("relay")?,
            kind: FaultKind::parse(&mut f)?,
        };
        f.finish()?;
        Ok(ev)
    }
}

/// A deterministic fault schedule for one mission.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// The stable text form: a header, one [`FaultEvent`] line per event,
/// and an `end` footer. Round-trips via [`FaultSchedule::from_text`].
impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("fault-schedule v1\n")?;
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        f.write_str("end\n")
    }
}

impl FaultSchedule {
    /// An empty schedule (the fault-free control).
    pub fn none() -> Self {
        Self { events: Vec::new() }
    }

    /// The standard fault storm: every fault category strikes once,
    /// spread across distinct relays of an `n_relays` fleet and across
    /// the first `n_steps` mission steps. Deterministic in `seed`.
    ///
    /// The storm is built so each supervisor capability is exercised:
    /// an early [`FaultKind::BatterySag`] kills one relay (fleet
    /// re-partitioning), a large [`FaultKind::GainDrift`] violates the
    /// Eq. 3 mutual-loop gate (Δf re-assignment / gain trim), a
    /// mission-long [`FaultKind::PhaseGlitch`] breaks SAR coherence on
    /// a surviving relay (RSSI fallback), and uplink bursts starve
    /// whole inventory stops (retry-with-backoff).
    pub fn storm(seed: u64, n_relays: usize, n_steps: usize) -> Self {
        assert!(n_relays >= 2, "a storm needs at least two relays");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57_02_13);
        let mut order: Vec<usize> = (0..n_relays).collect();
        order.shuffle(&mut rng);
        // Distinct roles so the dead relay is not also the one whose
        // degradations the supervisor must ride out.
        let dead = order[0];
        let drifty = order[1];
        let incoherent = order[1 % (n_relays - 1) + 1]; // ≠ dead
        let jammed = order[(n_relays - 1).min(3)];

        let q = (n_steps / 4).max(1);
        let span = (n_steps / 8).max(2);
        let mut events = Vec::new();
        let mut push = |step: usize, relay: usize, kind: FaultKind| {
            events.push(FaultEvent {
                id: events.len(),
                step,
                relay,
                kind,
            });
        };
        // Uplink weather first: bursts the supervisor retries through.
        push(
            1,
            jammed,
            FaultKind::Gen2Drop {
                p_drop: 0.8,
                steps: span,
            },
        );
        push(
            q / 2 + 1,
            jammed,
            FaultKind::DeepFade {
                db: 18.0,
                steps: span,
            },
        );
        push(
            q,
            jammed,
            FaultKind::NoiseBurst {
                p_corrupt: 0.5,
                steps: span,
            },
        );
        // Flight-layer disturbances.
        push(
            q + 1,
            drifty,
            FaultKind::WindGust {
                dx_m: rng.gen_range(-1.5..1.5),
                dy_m: rng.gen_range(-1.5..1.5),
                steps: span,
            },
        );
        push(q + 2, incoherent, FaultKind::TrackingDropout { steps: 2 });
        // The relay hardware degradations.
        push(
            2,
            incoherent,
            FaultKind::PhaseGlitch {
                rad: std::f64::consts::PI,
            },
        );
        push(2 * q, drifty, FaultKind::GainDrift { db: 38.0 });
        push(2 * q + span, drifty, FaultKind::PaSag { db: 6.0 });
        // And the headline outage: one drone goes home early.
        push(q, dead, FaultKind::BatterySag);
        Self { events }
    }

    /// A random schedule of `n_events` faults over `n_relays` relays
    /// and `n_steps` steps — the property-test generator. Deterministic
    /// in `seed`.
    pub fn random(seed: u64, n_relays: usize, n_steps: usize, n_events: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_B1E5);
        let events = (0..n_events)
            .map(|id| {
                let steps = rng.gen_range(1..(n_steps / 2).max(2));
                let kind = match rng.gen_range(0u32..10) {
                    0 => FaultKind::PhaseGlitch {
                        rad: rng.gen_range(0.3..std::f64::consts::PI),
                    },
                    1 => FaultKind::CfoDrift {
                        rad: rng.gen_range(0.3..2.5),
                        steps,
                    },
                    2 => FaultKind::GainDrift {
                        db: rng.gen_range(5.0..45.0),
                    },
                    3 => FaultKind::PaSag {
                        db: rng.gen_range(1.0..12.0),
                    },
                    4 => FaultKind::DeepFade {
                        db: rng.gen_range(5.0..25.0),
                        steps,
                    },
                    5 => FaultKind::NoiseBurst {
                        p_corrupt: rng.gen_range(0.1..0.9),
                        steps,
                    },
                    6 => FaultKind::Gen2Drop {
                        p_drop: rng.gen_range(0.1..0.95),
                        steps,
                    },
                    7 => FaultKind::TrackingDropout { steps },
                    8 => FaultKind::WindGust {
                        dx_m: rng.gen_range(-2.0..2.0),
                        dy_m: rng.gen_range(-2.0..2.0),
                        steps,
                    },
                    _ => FaultKind::BatterySag,
                };
                FaultEvent {
                    id,
                    step: rng.gen_range(0..n_steps.max(1)),
                    relay: rng.gen_range(0..n_relays),
                    kind,
                }
            })
            .collect();
        Self { events }
    }

    /// Recomposes a schedule from explicit events (the shrinker's
    /// seam: decompose with [`Self::events`], drop or weaken some,
    /// recompose here). Event ids are kept as given so a shrunk
    /// repro's log still cites the original storm's event numbering;
    /// they must stay unique.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        let mut ids: Vec<usize> = events.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), events.len(), "duplicate fault event ids");
        Self { events }
    }

    /// Parses the [`Display`](fmt::Display) form.
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.lines().enumerate();
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseError::new(1, "empty schedule text"))?;
        if header.trim() != "fault-schedule v1" {
            return Err(ParseError::new(n + 1, format!("bad header {header:?}")));
        }
        let mut events = Vec::new();
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
            events.push(FaultEvent::from_line(line, n + 1)?);
        }
        if !ended {
            return Err(ParseError::new(
                text.lines().count(),
                "missing `end` footer",
            ));
        }
        Ok(Self::from_events(events))
    }

    /// All scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events striking at mission step `step`.
    pub fn at(&self, step: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.step == step)
    }

    /// The relay killed by the first scheduled [`FaultKind::BatterySag`]
    /// (the storm always has one).
    pub fn battery_sag_relay(&self) -> Option<usize> {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::BatterySag)
            .map(|e| (e.step, e.relay))
            .min_by_key(|&(step, _)| step)
            .map(|(_, relay)| relay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_seed_deterministic_and_covers_every_category() {
        let a = FaultSchedule::storm(9, 4, 40);
        let b = FaultSchedule::storm(9, 4, 40);
        assert_eq!(a.events(), b.events());
        let c = FaultSchedule::storm(10, 4, 40);
        assert!(
            a.events() != c.events(),
            "different seeds, different storms"
        );

        let has = |f: fn(&FaultKind) -> bool| a.events().iter().any(|e| f(&e.kind));
        assert!(has(|k| matches!(k, FaultKind::BatterySag)));
        assert!(has(|k| matches!(k, FaultKind::GainDrift { .. })));
        assert!(has(|k| matches!(k, FaultKind::PhaseGlitch { .. })));
        assert!(has(|k| matches!(k, FaultKind::Gen2Drop { .. })));
        assert!(has(|k| matches!(k, FaultKind::DeepFade { .. })));
        assert!(has(|k| matches!(k, FaultKind::NoiseBurst { .. })));
        assert!(has(|k| matches!(k, FaultKind::TrackingDropout { .. })));
        assert!(has(|k| matches!(k, FaultKind::WindGust { .. })));
        assert!(has(|k| matches!(k, FaultKind::PaSag { .. })));
    }

    #[test]
    fn storm_separates_the_dead_relay_from_the_incoherent_one() {
        for seed in 0..20 {
            let s = FaultSchedule::storm(seed, 4, 40);
            let dead = s.battery_sag_relay().expect("storm kills one relay");
            let incoherent = s
                .events()
                .iter()
                .find(|e| matches!(e.kind, FaultKind::PhaseGlitch { .. }))
                .expect("storm breaks one oscillator")
                .relay;
            assert_ne!(dead, incoherent, "seed {seed}: fallback relay must survive");
        }
    }

    #[test]
    fn event_ids_are_unique_and_at_filters_by_step() {
        let s = FaultSchedule::storm(3, 4, 32);
        let mut ids: Vec<usize> = s.events().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.events().len());
        for e in s.at(1) {
            assert_eq!(e.step, 1);
        }
    }

    #[test]
    fn text_form_round_trips_storms_and_random_schedules() {
        for sched in [
            FaultSchedule::none(),
            FaultSchedule::storm(9, 4, 40),
            FaultSchedule::random(123, 3, 30, 17),
        ] {
            let text = sched.to_string();
            let back = FaultSchedule::from_text(&text).expect("parses");
            assert_eq!(back.events(), sched.events());
            // And the re-serialized bytes are stable.
            assert_eq!(back.to_string(), text);
        }
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(FaultSchedule::from_text("").is_err(), "empty");
        assert!(
            FaultSchedule::from_text("bogus v1\nend\n").is_err(),
            "header"
        );
        assert!(
            FaultSchedule::from_text("fault-schedule v1\n").is_err(),
            "missing footer"
        );
        assert!(
            FaultSchedule::from_text("fault-schedule v1\nf 0 1 0 warp-core\nend\n").is_err(),
            "unknown kind"
        );
        let err = FaultSchedule::from_text("fault-schedule v1\nf 0 x 0 battery-sag\nend\n")
            .expect_err("bad step");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn weakening_always_terminates_and_weakens() {
        let sched = FaultSchedule::random(5, 3, 30, 40);
        for e in sched.events() {
            let mut k = e.kind;
            let mut hops = 0;
            while let Some(w) = k.weakened() {
                assert_ne!(w, k, "weakened() must change the kind");
                k = w;
                hops += 1;
                assert!(hops < 64, "weakening ladder failed to terminate for {k:?}");
            }
        }
        assert!(FaultKind::BatterySag.weakened().is_none());
    }

    #[test]
    fn random_schedules_stay_in_bounds() {
        let s = FaultSchedule::random(77, 3, 20, 25);
        assert_eq!(s.events().len(), 25);
        for e in s.events() {
            assert!(e.relay < 3);
            assert!(e.step < 20);
        }
    }
}

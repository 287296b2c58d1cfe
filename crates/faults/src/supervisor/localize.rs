//! End-of-mission localization with the coherence gate: full SAR on an
//! intact track, coarse RSSI ranging on an oscillator-damaged one.

use std::collections::BTreeMap;

use rfly_channel::geometry::Point2;
use rfly_core::loc::disentangle::{disentangle, PairedMeasurement};
use rfly_core::loc::rssi::RssiLocalizer;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::units::Hertz;
use rfly_dsp::{Complex, SPEED_OF_LIGHT};
use rfly_fleet::inventory::FleetInventory;
use rfly_protocol::epc::Epc;
use rfly_sim::world::RelayModel;

use crate::inject::RelayHealth;
use crate::log::{RecoveryAction, ResilienceLog};

use super::state::StepTrack;
use super::{MissionEnv, SupervisorConfig};

/// How a tag was localized at mission end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocMethod {
    /// Full through-relay SAR (the paper's Eq. 10–12 pipeline).
    Sar,
    /// Coarse RSSI ranging — the supervised degradation under phase
    /// incoherence.
    RssiFallback,
    /// No usable estimate (incoherent track, no supervisor).
    Unavailable,
}

/// One tag's end-of-mission localization outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizationRecord {
    /// The tag.
    pub epc: Epc,
    /// The relay whose track localized it.
    pub relay: usize,
    /// The method used.
    pub method: LocMethod,
    /// The position estimate, if one was produced.
    pub estimate: Option<Point2>,
}

/// The outcome of a mission flown under fault.
#[derive(Debug, PartialEq)]
pub struct ResilientOutcome {
    /// The deduplicated global inventory.
    pub inventory: FleetInventory,
    /// Inventory stops flown.
    pub steps: usize,
    /// Mission duration, seconds.
    pub duration_s: f64,
    /// The structured fault-and-recovery record.
    pub log: ResilienceLog,
    /// Relays that returned to land early (original indices).
    pub lost_relays: Vec<usize>,
    /// Per-relay track coherence (mean resultant length, in \[0, 1\]).
    pub coherence: Vec<f64>,
    /// End-of-mission localization outcomes.
    pub localization: Vec<LocalizationRecord>,
}

/// Coherence of one relay's track: the mean resultant length of the
/// phase deltas between embedded-RFID reads taken at the *same* hover
/// point. Geometry cancels, so an intact mirrored relay scores ~1 and
/// an oscillator-damaged one ~0. Defaults to 1 with too few samples.
pub(super) fn track_coherence(track: &[StepTrack]) -> f64 {
    let mut sum = Complex::default();
    let mut count = 0usize;
    for st in track {
        for w in st.embedded.windows(2) {
            if w[0].norm_sq() > 0.0 && w[1].norm_sq() > 0.0 {
                sum += Complex::cis(w[1].arg() - w[0].arg());
                count += 1;
            }
        }
    }
    if count < 4 {
        1.0
    } else {
        sum.abs() / count as f64
    }
}

/// Step 7: per-relay, per-tag localization with the coherence gate.
#[allow(clippy::too_many_arguments)]
pub(super) fn localize_all(
    tracks: &[Vec<StepTrack>],
    coherence: &[f64],
    f1: &[Hertz],
    shift: &[Hertz],
    env: &MissionEnv<'_>,
    sup: Option<&SupervisorConfig>,
    loc_cfg: &SupervisorConfig,
    health: &[RelayHealth],
    final_step: usize,
    log: &mut ResilienceLog,
) -> Vec<LocalizationRecord> {
    let _span = rfly_obs::span("supervisor.localize");
    let mut out = Vec::new();
    for (relay, track) in tracks.iter().enumerate() {
        let f2 = f1[relay] + shift[relay];
        let mut per_epc: BTreeMap<Epc, Vec<(Point2, PairedMeasurement)>> = BTreeMap::new();
        for st in track {
            let embedded = st.embedded[0];
            for &(epc, tag) in &st.tags {
                per_epc
                    .entry(epc)
                    .or_default()
                    .push((st.pos, PairedMeasurement { tag, embedded }));
            }
        }
        let coherent = coherence[relay] >= loc_cfg.coherence_gate;
        let mut taken = 0usize;
        for (epc, ms) in per_epc {
            if ms.len() < 4 {
                continue;
            }
            if taken >= loc_cfg.max_loc_tags_per_relay {
                break;
            }
            taken += 1;
            let meas: Vec<PairedMeasurement> = ms.iter().map(|&(_, m)| m).collect();
            let isolated = disentangle(&meas);
            let (points, channels): (Vec<Point2>, Vec<Complex>) = ms
                .iter()
                .zip(&isolated)
                .filter_map(|(&(p, _), h)| h.map(|h| (p, h)))
                .unzip();
            if points.len() < 3 {
                out.push(LocalizationRecord {
                    epc,
                    relay,
                    method: LocMethod::Unavailable,
                    estimate: None,
                });
                continue;
            }
            let traj = Trajectory::from_points(points);
            if coherent {
                rfly_obs::counter_add("supervisor.loc.sar", 1);
                let est =
                    SarLocalizer::new(f2, env.scene.min, env.scene.max, loc_cfg.loc_resolution_m)
                        .localize(&traj, &channels)
                        .map(|(p, _)| p);
                out.push(LocalizationRecord {
                    epc,
                    relay,
                    method: LocMethod::Sar,
                    estimate: est,
                });
            } else if sup.is_some() {
                // The oscillator scrambled the phase but not the
                // magnitude: fall back to coarse RSSI ranging against
                // the embedded-normalized free-space model.
                rfly_obs::counter_add("supervisor.loc.rssi_fallback", 1);
                let lambda = SPEED_OF_LIGHT / f2.as_hz();
                let local = RelayModel::from_budget(f1[relay], shift[relay], &env.budget)
                    .embedded_local
                    .norm_sq();
                let rssi = RssiLocalizer {
                    frequency: f2,
                    region_min: env.scene.min,
                    region_max: env.scene.max,
                    resolution: loc_cfg.loc_resolution_m,
                    reference_amplitude_1m: (lambda / (4.0 * std::f64::consts::PI)).powi(2) / local,
                };
                let est = rssi.localize(&traj, &channels);
                if let Some(trigger) = health[relay].last_phase_fault {
                    log.record(
                        final_step,
                        RecoveryAction::SarFallback {
                            relay,
                            epc,
                            coherence: coherence[relay],
                        },
                        trigger,
                    );
                }
                out.push(LocalizationRecord {
                    epc,
                    relay,
                    method: LocMethod::RssiFallback,
                    estimate: est,
                });
            } else {
                out.push(LocalizationRecord {
                    epc,
                    relay,
                    method: LocMethod::Unavailable,
                    estimate: None,
                });
            }
        }
    }
    out
}

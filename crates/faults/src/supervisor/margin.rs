//! The mutual-loop margin monitor: Eq. 3 under degraded gains, and the
//! Δf-reassign → gain-trim recovery ladder it drives.

use rfly_channel::geometry::Point2;
use rfly_channel::pathloss::free_space_db;
use rfly_core::relay::gains::{worst_pair_margin, GainPlan};
use rfly_dsp::units::{Db, Hertz, Meters};
use rfly_fleet::channels::assign;
use rfly_fleet::inventory::MissionConfig;
use rfly_obs::Value;

use crate::inject::RelayHealth;
use crate::log::{RecoveryAction, ResilienceLog};

use super::{MissionEnv, REASSIGN_ATTEMPTS};

/// The fleet's worst alive mutual-loop pair under per-relay gain plans.
/// Returns `(i, j, margin)` with original relay indices.
pub(super) fn worst_alive_margin(
    alive: &[usize],
    positions: &[Point2],
    f1: &[Hertz],
    shift: &[Hertz],
    gains: &dyn Fn(usize) -> GainPlan,
) -> Option<(usize, usize, Db)> {
    let mut worst: Option<(usize, usize, Db)> = None;
    for a in 0..alive.len() {
        for b in a + 1..alive.len() {
            let (i, j) = (alive[a], alive[b]);
            let coupling = free_space_db(
                Meters::new(positions[a].distance(positions[b])),
                Hertz(f1[i].as_hz().min(f1[j].as_hz())),
            );
            let m = worst_pair_margin(
                &gains(i),
                f1[i],
                f1[i] + shift[i],
                &gains(j),
                f1[j],
                f1[j] + shift[j],
                coupling,
            );
            if worst.is_none_or(|(_, _, w)| m.value() < w.value()) {
                worst = Some((i, j, m));
            }
        }
    }
    worst
}

/// Step 4: act on the worst alive mutual-loop margin (precomputed by
/// [`super::MissionState::advance`] with degraded gains): on a
/// fault-attributable violation, try Δf re-assignment, then fall back
/// to re-programming the drifted VGA chain.
#[allow(clippy::too_many_arguments)]
pub(super) fn margin_monitor(
    env: &MissionEnv<'_>,
    cfg: &MissionConfig,
    step: usize,
    alive: &[usize],
    positions: &[Point2],
    worst: Option<(usize, usize, Db)>,
    base_gains: GainPlan,
    f1: &mut [Hertz],
    shift: &mut [Hertz],
    health: &mut [RelayHealth],
    log: &mut ResilienceLog,
) {
    let drift: Vec<f64> = health.iter().map(|h| h.gain_drift_db).collect();
    let degraded = |i: usize| GainPlan {
        downlink: base_gains.downlink + Db::new(drift[i]),
        uplink: base_gains.uplink,
    };
    let Some((wi, wj, m)) = worst else {
        return;
    };
    if m.value() >= env.margin.value() {
        return;
    }
    // Attribute the violation: with pristine gains the same fleet must
    // clear the gate, otherwise this is a planning problem (relays
    // passing close), not a fault.
    #[expect(
        clippy::expect_used,
        reason = "the caller found a worst pair, so the same pair set is non-empty here"
    )]
    let pristine =
        worst_alive_margin(alive, positions, f1, shift, &|_| base_gains).expect("pair exists");
    if pristine.2.value() < env.margin.value() {
        return;
    }
    let Some(trigger) = health[wi].last_gain_fault.or(health[wj].last_gain_fault) else {
        return;
    };
    if rfly_obs::is_active() {
        rfly_obs::event(
            "supervisor.margin_violation",
            vec![
                ("step", Value::U64(step as u64)),
                ("pair_lo", Value::U64(wi.min(wj) as u64)),
                ("pair_hi", Value::U64(wi.max(wj) as u64)),
                ("margin_db", Value::F64(m.value())),
            ],
        );
    }

    // Rung 1: Δf re-assignment over fresh hopping seeds.
    for k in 0..REASSIGN_ATTEMPTS {
        let seed = cfg.seed ^ 0xDF00 ^ (((step as u64) << 8) | k as u64);
        let Ok(newp) = assign(positions, &env.budget, env.margin, seed) else {
            continue;
        };
        let mut cand_f1 = f1.to_vec();
        let mut cand_shift = shift.to_vec();
        for (k2, &r) in alive.iter().enumerate() {
            cand_f1[r] = newp.f1[k2];
            cand_shift[r] = newp.shift[k2];
        }
        let Some((_, _, m_new)) =
            worst_alive_margin(alive, positions, &cand_f1, &cand_shift, &degraded)
        else {
            continue;
        };
        if m_new.value() >= env.margin.value() {
            f1.copy_from_slice(&cand_f1);
            shift.copy_from_slice(&cand_shift);
            log.record(
                step,
                RecoveryAction::DeltaFReassign {
                    pair: (wi, wj),
                    margin_before_db: m.value(),
                    margin_after_db: m_new.value(),
                },
                trigger,
            );
            return;
        }
    }

    // Rung 2: no re-tune clears the gate — re-program the drifted VGAs
    // back to their §6.1 allocation.
    for r in [wi, wj] {
        if health[r].gain_drift_db > 0.0 {
            let trimmed = health[r].gain_drift_db;
            health[r].gain_drift_db = 0.0;
            let t = health[r].last_gain_fault.unwrap_or(trigger);
            log.record(
                step,
                RecoveryAction::GainTrim {
                    relay: r,
                    trimmed_db: trimmed,
                },
                t,
            );
        }
    }
}

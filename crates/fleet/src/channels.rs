//! Δf channel assignment: one FCC channel pair per relay, mutually
//! stable.
//!
//! Each relay shifts its reader-side channel f₁ by its own Δᵢ to a
//! tag-side f₂ᵢ = f₁ᵢ + Δᵢ. Two airborne relays form a *mutual*
//! feedback loop — relay i's amplified downlink couples over the air
//! into relay j's input and back — so Eq. 3 extends to every pair: the
//! loop gain through both chains, two air crossings, and the chains'
//! filter rejection at the pair's frequency offsets must stay below
//! unity by the design margin
//! ([`rfly_core::relay::gains::mutual_loop_margin`]).
//!
//! The assigner walks the FCC hopping permutation
//! ([`rfly_reader::hopping::HopSequence`], seed-reproducible) and
//! greedily gives each relay the first channel whose pairwise margins
//! against all already-assigned relays clear the gate. Coupling is
//! modeled as free-space loss between hover positions — conservative,
//! since shelves only add attenuation.

use std::fmt;

use rfly_channel::geometry::Point2;
use rfly_channel::pathloss::free_space_db;
use rfly_core::relay::gains::{
    allocate, is_stable_with_interferers, worst_pair_margin, ExternalInterferer, GainPlan,
    IsolationBudget,
};
use rfly_dsp::units::{Db, Dbm, Hertz, Meters};
use rfly_reader::hopping::{
    channel_frequency, HopSequence, CHANNEL_SPACING, MAX_DWELL, NUM_CHANNELS,
};
use rfly_sim::fleet::{FleetRelay, FLEET_PASSBAND};
use rfly_sim::world::RelayModel;

/// The mutual-loop stability margin of one relay pair.
#[derive(Debug, Clone, Copy)]
pub struct PairMargin {
    /// First relay index.
    pub i: usize,
    /// Second relay index.
    pub j: usize,
    /// Eq. 3 margin of the mutual loop, dB (≥ design margin = safe).
    pub margin: Db,
}

/// A feasible fleet channel plan.
#[derive(Debug, Clone)]
pub struct ChannelPlan {
    /// Per-relay reader-side frequency f₁ᵢ (an FCC channel).
    pub f1: Vec<Hertz>,
    /// Per-relay shift Δᵢ (a distinct multiple of the channel spacing).
    pub shift: Vec<Hertz>,
    /// The §6.1 gain plan every relay runs.
    pub gains: GainPlan,
    /// All pairwise mutual-loop margins (i < j).
    pub margins: Vec<PairMargin>,
    /// Extra per-relay SNR penalty on every relayed observation, dB
    /// (e.g. a dense external-interferer field raising the noise floor
    /// around one relay). [`assign`] fills it with zeros; scenario
    /// compilation may raise it. Applied by [`Self::fleet`].
    pub snr_penalty: Vec<Db>,
}

impl ChannelPlan {
    /// Per-relay tag-side frequency f₂ᵢ = f₁ᵢ + Δᵢ.
    pub fn f2(&self, i: usize) -> Hertz {
        self.f1[i] + self.shift[i]
    }

    /// The tightest pairwise margin (None for a single relay).
    pub fn min_margin(&self) -> Option<Db> {
        self.margins
            .iter()
            .map(|m| m.margin)
            .min_by(|a, b| a.value().total_cmp(&b.value()))
    }

    /// Builds the fleet's [`FleetRelay`] members from this plan: one
    /// [`RelayModel`] per relay from the shared isolation budget, at
    /// the given hover positions.
    pub fn fleet(&self, budget: &IsolationBudget, positions: &[Point2]) -> Vec<FleetRelay> {
        assert_eq!(positions.len(), self.f1.len());
        self.f1
            .iter()
            .zip(&self.shift)
            .zip(positions)
            .enumerate()
            .map(|(i, ((&f1, &shift), &pos))| {
                let mut model = RelayModel::from_budget(f1, shift, budget);
                model.snr_penalty =
                    model.snr_penalty + self.snr_penalty.get(i).copied().unwrap_or(Db::new(0.0));
                FleetRelay { model, pos }
            })
            .collect()
    }
}

/// Why no feasible channel plan exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelPlanError {
    /// Relay `relay` found no FCC channel clearing the stability gate
    /// against the already-assigned relays.
    NoFeasibleChannel {
        /// The relay that could not be assigned.
        relay: usize,
    },
    /// A pair failed the extended Eq. 3 gate even after assignment
    /// (should not happen with the greedy search; kept as a guard).
    UnstablePair {
        /// First relay index.
        i: usize,
        /// Second relay index.
        j: usize,
        /// The failing margin.
        margin: Db,
    },
}

impl fmt::Display for ChannelPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelPlanError::NoFeasibleChannel { relay } => {
                write!(
                    f,
                    "no FCC channel clears the stability gate for relay {relay}"
                )
            }
            ChannelPlanError::UnstablePair { i, j, margin } => {
                write!(
                    f,
                    "relay pair ({i}, {j}) mutual loop margin {margin} below gate"
                )
            }
        }
    }
}

impl std::error::Error for ChannelPlanError {}

/// Minimum spacing between a relay's transmitted carrier (f₁) and any
/// active frequency — carrier or listen band — of *another* relay.
/// The paper's "as little as 1 MHz" Δf is also the floor below which a
/// neighbor's carrier sits inside a relay's front-end selectivity:
/// Eq. 3 can declare the mutual loop stable (the loop product stays
/// below unity) while the neighbor's transmission still parks on top
/// of the backscatter sidebands and kills the read. [`assign`]
/// therefore rejects any candidate whose carrier comes closer than
/// this to an already-assigned relay's carrier or listen band, and two
/// *listen* bands (f₂↔f₂′) must keep it too: co-channel listen bands
/// put both relays' tag backscatter in the same window, and the reader
/// can't separate its own cell's sidebands from the neighbor's.
pub const MIN_CARRIER_SPACING: Hertz = Hertz(1.0e6);

/// Extra Eq. 3 margin the band-packer aims for beyond the caller's
/// gate: in-mission degradation — a hot gain-stage drift, the
/// supervisor's corrective trims — erodes pairwise margins by a few
/// dB, and a plan packed to the bare gate tips over at the first
/// fault. [`assign`] packs to the closest channel that keeps this
/// headroom and settles for the bare gate only when the band is too
/// full for anything better.
pub const FAULT_HEADROOM: Db = Db(12.0);

/// Whether every cross-relay frequency pairing — f₁↔f₁′, f₁↔f₂′,
/// f₂↔f₁′, and f₂↔f₂′ — keeps [`MIN_CARRIER_SPACING`].
fn carriers_clear_spacing(cand: (Hertz, Hertz), other: (Hertz, Hertz)) -> bool {
    let floor = MIN_CARRIER_SPACING.as_hz();
    let (cf1, cf2) = (cand.0.as_hz(), cand.1.as_hz());
    let (of1, of2) = (other.0.as_hz(), other.1.as_hz());
    (cf1 - of1).abs() >= floor
        && (cf1 - of2).abs() >= floor
        && (cf2 - of1).abs() >= floor
        && (cf2 - of2).abs() >= floor
}

/// The worst-case (strongest) inter-relay coupling: free-space loss at
/// the lower of the two carrier frequencies.
fn coupling(pos_i: Point2, pos_j: Point2, f: Hertz) -> Db {
    free_space_db(Meters::new(pos_i.distance(pos_j)), f)
}

/// Worst mutual-loop margin of one candidate pair (all relays run the
/// same gain plan).
fn pair_margin(
    gains: &GainPlan,
    pos_i: Point2,
    (f1_i, f2_i): (Hertz, Hertz),
    pos_j: Point2,
    (f1_j, f2_j): (Hertz, Hertz),
    passband: Hertz,
) -> Db {
    worst_pair_margin(
        gains,
        f1_i,
        f2_i,
        gains,
        f1_j,
        f2_j,
        coupling(pos_i, pos_j, Hertz(f1_i.as_hz().min(f1_j.as_hz()))),
        passband,
    )
}

/// Assigns each relay an (f₁ᵢ, Δᵢ) pair from the seed-`seed` FCC
/// hopping permutation so every pairwise mutual loop clears `margin`
/// and every active frequency — carrier and listen band — keeps
/// [`MIN_CARRIER_SPACING`] from every other relay's.
///
/// Δᵢ = (2 + i) × 500 kHz: distinct per relay, starting at the paper's
/// "as little as 1 MHz" out-of-band shift.
pub fn assign(
    positions: &[Point2],
    budget: &IsolationBudget,
    margin: Db,
    seed: u64,
) -> Result<ChannelPlan, ChannelPlanError> {
    let gains = allocate(budget, margin, Dbm::new(-40.0));
    let order = HopSequence::new(seed, MAX_DWELL).order().to_vec();

    let mut f1 = Vec::with_capacity(positions.len());
    let mut shift = Vec::with_capacity(positions.len());
    let mut used = [false; NUM_CHANNELS];
    for (i, &pos) in positions.iter().enumerate() {
        let shift_ch = 2 + i;
        let clears = |c: usize, extra: Db| {
            if used[c] || c + shift_ch >= NUM_CHANNELS {
                return false;
            }
            let cand_f1 = channel_frequency(c);
            let cand_f2 = cand_f1 + Hertz(CHANNEL_SPACING.as_hz() * shift_ch as f64);
            (0..i).all(|j| {
                carriers_clear_spacing((cand_f1, cand_f2), (f1[j], f1[j] + shift[j]))
                    && pair_margin(
                        &gains,
                        pos,
                        (cand_f1, cand_f2),
                        positions[j],
                        (f1[j], f1[j] + shift[j]),
                        FLEET_PASSBAND,
                    )
                    .value()
                        >= (margin + extra).value()
            })
        };
        // Among gate-clearing channels, pack the band: take the one
        // closest to the carriers already assigned (first-fit ties
        // broken by permutation position). Spectrum is scarce — a
        // greedy that flees to the far end of the band on the first
        // conflict strands no room for the next relay or the FCC
        // hopper. Packing targets FAULT_HEADROOM above the Eq. 3 gate
        // so in-mission degradation (gain drift, trims) doesn't eat
        // the margin to the bone; only when no channel keeps the
        // headroom does the packer settle for the bare gate. The
        // first relay has nothing to pack against and takes the
        // permutation head, which keeps plans seed-varied.
        let packed = |c: usize| {
            let cand = channel_frequency(c);
            f1.iter()
                .map(|&f: &Hertz| (cand - f).as_hz().abs())
                .fold(f64::INFINITY, f64::min)
        };
        let found = if i == 0 {
            order.iter().copied().find(|&c| clears(c, Db::new(0.0)))
        } else {
            order
                .iter()
                .copied()
                .filter(|&c| clears(c, FAULT_HEADROOM))
                .min_by(|&a, &b| packed(a).total_cmp(&packed(b)))
                .or_else(|| {
                    order
                        .iter()
                        .copied()
                        .filter(|&c| clears(c, Db::new(0.0)))
                        .min_by(|&a, &b| packed(a).total_cmp(&packed(b)))
                })
        };
        let c = found.ok_or(ChannelPlanError::NoFeasibleChannel { relay: i })?;
        used[c] = true;
        f1.push(channel_frequency(c));
        shift.push(Hertz(CHANNEL_SPACING.as_hz() * shift_ch as f64));
    }

    let plan = ChannelPlan {
        margins: all_margins(&f1, &shift, positions, &gains),
        snr_penalty: vec![Db::new(0.0); f1.len()],
        f1,
        shift,
        gains,
    };

    // Guard: re-check every relay with the full Eq. 3 extension.
    for i in 0..plan.f1.len() {
        let interferers: Vec<ExternalInterferer> = (0..plan.f1.len())
            .filter(|&j| j != i)
            .map(|j| ExternalInterferer {
                gains: plan.gains,
                f1: plan.f1[j],
                f2: plan.f2(j),
                coupling_loss: coupling(
                    positions[i],
                    positions[j],
                    Hertz(plan.f1[i].as_hz().min(plan.f1[j].as_hz())),
                ),
            })
            .collect();
        if !is_stable_with_interferers(
            &plan.gains,
            budget,
            margin,
            plan.f1[i],
            plan.f2(i),
            FLEET_PASSBAND,
            &interferers,
        ) {
            let worst = plan
                .margins
                .iter()
                .filter(|m| m.i == i || m.j == i)
                .min_by(|a, b| a.margin.value().total_cmp(&b.margin.value()))
                .expect("pairs exist when interferers do"); // rfly-lint: allow(no-unwrap) -- this branch runs only with a non-empty interferer set, which yields margins.
            return Err(ChannelPlanError::UnstablePair {
                i: worst.i,
                j: worst.j,
                margin: worst.margin,
            });
        }
    }
    Ok(plan)
}

fn all_margins(
    f1: &[Hertz],
    shift: &[Hertz],
    positions: &[Point2],
    gains: &GainPlan,
) -> Vec<PairMargin> {
    let mut out = Vec::new();
    for i in 0..f1.len() {
        for j in i + 1..f1.len() {
            out.push(PairMargin {
                i,
                j,
                margin: pair_margin(
                    gains,
                    positions[i],
                    (f1[i], f1[i] + shift[i]),
                    positions[j],
                    (f1[j], f1[j] + shift[j]),
                    FLEET_PASSBAND,
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, spacing: f64) -> Vec<Point2> {
        (0..n)
            .map(|k| Point2::new(spacing * k as f64, 0.0))
            .collect()
    }

    #[test]
    fn assignment_is_feasible_and_channels_are_distinct() {
        let plan =
            assign(&grid(4, 10.0), &IsolationBudget::fig9(), Db::new(10.0), 42).expect("feasible");
        assert_eq!(plan.f1.len(), 4);
        for i in 0..4 {
            for j in i + 1..4 {
                assert!(plan.f1[i] != plan.f1[j], "duplicate f1");
                assert!(plan.shift[i] != plan.shift[j], "duplicate Δ");
            }
            // f2 stays inside the 902–928 MHz band.
            assert!(plan.f2(i).as_hz() < 928e6);
        }
        assert_eq!(plan.margins.len(), 6);
        assert!(plan.min_margin().unwrap().value() >= 10.0);
    }

    /// Every cross-relay distance the spacing floor governs: each
    /// relay's carrier and listen band against every other relay's
    /// carrier and listen band.
    fn cross_carrier_distances(plan: &ChannelPlan) -> Vec<f64> {
        let n = plan.f1.len();
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                for a in [plan.f1[i].as_hz(), plan.f2(i).as_hz()] {
                    for b in [plan.f1[j].as_hz(), plan.f2(j).as_hz()] {
                        out.push((a - b).abs());
                    }
                }
            }
        }
        out
    }

    #[test]
    fn carriers_keep_one_megahertz_spacing_across_seeds() {
        for seed in 0..32 {
            for n in [2usize, 3, 4] {
                let plan = assign(
                    &grid(n, 10.0),
                    &IsolationBudget::fig9(),
                    Db::new(10.0),
                    seed,
                )
                .expect("feasible");
                for d in cross_carrier_distances(&plan) {
                    assert!(
                        d >= MIN_CARRIER_SPACING.as_hz(),
                        "seed {seed}, {n} relays: carriers {d} Hz apart"
                    );
                }
                assert!(plan.min_margin().unwrap().value() >= 10.0);
            }
        }
    }

    #[test]
    fn eq3_alone_admits_the_carrier_collision_the_spacing_gate_pins() {
        // Regression for the interference-kill case: at seed 10 on a
        // two-relay grid, the hop permutation offers relay 1 a channel
        // whose carriers come closer than 1 MHz to relay 0's — down to
        // an exact collision — and the Eq. 3 mutual-loop gate ACCEPTS
        // it: the loop product stays below unity because the offenders
        // sit in different legs of the loop, but a neighbor's carrier
        // on top of the backscatter sidebands kills the read outright.
        let positions = grid(2, 10.0);
        let budget = IsolationBudget::fig9();
        let margin = Db::new(10.0);
        let gains = allocate(&budget, margin, Dbm::new(-40.0));
        let order = HopSequence::new(10, MAX_DWELL).order().to_vec();

        // Relay 0 takes the head of the permutation, as assign() does.
        let c0 = order[0];
        let f1_0 = channel_frequency(c0);
        let pair0 = (f1_0, f1_0 + Hertz(CHANNEL_SPACING.as_hz() * 2.0));

        // Relay 1 selected by the margin gate alone — the pre-gate
        // behavior this test pins.
        let margin_only = order
            .iter()
            .copied()
            .find(|&c| {
                c != c0 && c + 3 < NUM_CHANNELS && {
                    let cand_f1 = channel_frequency(c);
                    let cand = (cand_f1, cand_f1 + Hertz(CHANNEL_SPACING.as_hz() * 3.0));
                    pair_margin(
                        &gains,
                        positions[1],
                        cand,
                        positions[0],
                        pair0,
                        FLEET_PASSBAND,
                    )
                    .value()
                        >= margin.value()
                }
            })
            .expect("margin-only greedy finds a channel");
        let cand_f1 = channel_frequency(margin_only);
        let cand = (cand_f1, cand_f1 + Hertz(CHANNEL_SPACING.as_hz() * 3.0));
        assert!(
            !carriers_clear_spacing(cand, pair0),
            "the margin-only pick must violate the spacing floor for \
             this pin to mean anything: {cand:?} vs {pair0:?}"
        );

        // The shipped assigner refuses that channel and still finds a
        // stable plan with every carrier a full megahertz clear.
        let plan = assign(&positions, &budget, margin, 10).expect("feasible");
        assert!(
            plan.f1[1] != cand_f1,
            "assign() must skip the killer channel"
        );
        for d in cross_carrier_distances(&plan) {
            assert!(d >= MIN_CARRIER_SPACING.as_hz(), "carriers {d} Hz apart");
        }
    }

    #[test]
    fn assignment_is_seed_reproducible() {
        let a = assign(&grid(5, 8.0), &IsolationBudget::fig9(), Db::new(10.0), 7).unwrap();
        let b = assign(&grid(5, 8.0), &IsolationBudget::fig9(), Db::new(10.0), 7).unwrap();
        assert_eq!(a.f1, b.f1);
        let c = assign(&grid(5, 8.0), &IsolationBudget::fig9(), Db::new(10.0), 8).unwrap();
        assert!(
            a.f1 != c.f1,
            "different seeds should pick different channels"
        );
    }

    #[test]
    fn co_channel_pair_would_ring() {
        // Sanity on the underlying margin: same channel, no rejection,
        // paper gains — the pair rings at warehouse distances.
        let gains = allocate(&IsolationBudget::fig9(), Db::new(10.0), Dbm::new(-40.0));
        let f1 = Hertz::mhz(915.0);
        let f2 = f1 + Hertz::mhz(1.0);
        let m = pair_margin(
            &gains,
            Point2::ORIGIN,
            (f1, f2),
            Point2::new(10.0, 0.0),
            (f1, f2),
            FLEET_PASSBAND,
        );
        assert!(m.value() < 0.0, "co-channel pair stable?! margin {m}");
    }

    #[test]
    fn shifts_are_hertz_multiples_of_the_channel_spacing() {
        // Guards a channel-index-vs-hertz mixup in the Δf math: Δᵢ must
        // be (2+i)·500 kHz in *hertz*, at least the paper's 1 MHz, and
        // must land f₂ back on the FCC channel grid.
        let positions = grid(4, 10.0);
        let plan = assign(&positions, &IsolationBudget::fig9(), Db::new(10.0), 42).unwrap();
        for (i, &s) in plan.shift.iter().enumerate() {
            assert_eq!(s, Hertz(CHANNEL_SPACING.as_hz() * (2 + i) as f64));
            assert!(s.as_hz() >= 1e6, "paper: Δf of at least 1 MHz");
            let steps =
                (plan.f2(i).as_hz() - channel_frequency(0).as_hz()) / CHANNEL_SPACING.as_hz();
            assert!(
                (steps - steps.round()).abs() < 1e-6,
                "f2({i}) off the FCC grid by {} channels",
                steps - steps.round()
            );
        }
    }

    #[test]
    fn pair_margin_is_symmetric_in_the_pair() {
        // The coupling model picks the lower of the two f₁s, so the
        // margin must not depend on which relay is called `i`.
        let gains = allocate(&IsolationBudget::fig9(), Db::new(10.0), Dbm::new(-40.0));
        let (pa, pb) = (Point2::ORIGIN, Point2::new(9.0, 3.0));
        let fa = (Hertz::mhz(903.0), Hertz::mhz(904.5));
        let fb = (Hertz::mhz(917.0), Hertz::mhz(919.0));
        let m_ab = pair_margin(&gains, pa, fa, pb, fb, FLEET_PASSBAND);
        let m_ba = pair_margin(&gains, pb, fb, pa, fa, FLEET_PASSBAND);
        assert!(
            (m_ab.value() - m_ba.value()).abs() < 1e-9,
            "{m_ab} vs {m_ba}"
        );
    }

    #[test]
    fn fleet_members_inherit_plan_frequencies() {
        let positions = grid(3, 12.0);
        let plan = assign(&positions, &IsolationBudget::fig9(), Db::new(10.0), 1).unwrap();
        let fleet = plan.fleet(&IsolationBudget::fig9(), &positions);
        for (i, r) in fleet.iter().enumerate() {
            assert_eq!(r.model.f1, plan.f1[i]);
            assert_eq!(r.model.f2, plan.f2(i));
            assert_eq!(r.pos, positions[i]);
        }
    }

    #[test]
    fn snr_penalties_flow_into_the_fleet_models() {
        let positions = grid(3, 12.0);
        let mut plan = assign(&positions, &IsolationBudget::fig9(), Db::new(10.0), 1).unwrap();
        // assign() starts every relay clean.
        assert_eq!(plan.snr_penalty, vec![Db::new(0.0); 3]);
        let clean = plan.fleet(&IsolationBudget::fig9(), &positions);
        assert!(clean.iter().all(|r| r.model.snr_penalty == Db::new(0.0)));
        // A raised penalty reaches exactly the afflicted relay's model.
        plan.snr_penalty[1] = Db::new(6.5);
        let fleet = plan.fleet(&IsolationBudget::fig9(), &positions);
        assert_eq!(fleet[0].model.snr_penalty, Db::new(0.0));
        assert_eq!(fleet[1].model.snr_penalty, Db::new(6.5));
        assert_eq!(fleet[2].model.snr_penalty, Db::new(0.0));
    }
}

//! VGA gain allocation (§6.1).
//!
//! The paper's programming rules, verbatim:
//!
//! 1. each link's gain is independently constrained by its intra-link
//!    isolation (no positive-feedback resonance),
//! 2. the **sum** of all gains is constrained by the total achievable
//!    isolation (the full feedback loop crosses both inter-link
//!    couplings),
//! 3. the downlink gain is maximized first (it must power the tag),
//! 4. the output power amplifier's 1 dB compression point (29 dBm)
//!    caps the downlink output.

use rfly_dsp::units::{Db, Dbm, Hertz};

/// The gains chosen for the two paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainPlan {
    /// Downlink VGA+PA chain gain.
    pub downlink: Db,
    /// Uplink VGA chain gain.
    pub uplink: Db,
}

impl GainPlan {
    /// The full loop gain through both chains — what an external
    /// feedback path (self-interference or another relay) sees.
    pub fn total(&self) -> Db {
        self.downlink + self.uplink
    }
}

/// The isolation figures the allocator works against.
#[derive(Debug, Clone, Copy)]
pub struct IsolationBudget {
    /// Intra-downlink isolation (Fig. 9c).
    pub intra_downlink: Db,
    /// Intra-uplink isolation (Fig. 9d).
    pub intra_uplink: Db,
    /// Inter-link isolation, downlink path vs uplink signal (Fig. 9a).
    pub inter_downlink: Db,
    /// Inter-link isolation, uplink path vs downlink signal (Fig. 9b).
    pub inter_uplink: Db,
}

impl IsolationBudget {
    /// The prototype's Fig. 9 medians, the budget every warehouse-scale
    /// experiment designs its gains against.
    pub fn fig9() -> Self {
        Self {
            intra_downlink: Db(77.0),
            intra_uplink: Db(64.0),
            inter_downlink: Db(110.0),
            inter_uplink: Db(92.0),
        }
    }
}

/// The PA's 1 dB compression point from §6.1.
pub const PA_COMPRESSION: Dbm = Dbm(29.0);

/// Allocates gains per the §6.1 policy.
///
/// * `budget` — measured isolations of this relay build,
/// * `margin` — stability margin kept below every constraint (a loop
///   gain of exactly 0 dB rings; practical designs keep ~10 dB),
/// * `expected_input` — the strongest reader signal expected at the
///   downlink input, used for the PA compression cap.
pub fn allocate(budget: &IsolationBudget, margin: Db, expected_input: Dbm) -> GainPlan {
    assert!(margin.value() >= 0.0, "margin cannot be negative");

    // Rule 1: per-path caps.
    let dl_cap_stability = budget.intra_downlink - margin;
    let ul_cap_stability = budget.intra_uplink - margin;

    // Rule 4: PA compression cap on the downlink.
    let dl_cap_pa = PA_COMPRESSION - expected_input;

    // Rule 3: maximize the downlink first.
    let downlink = Db::new(dl_cap_stability.min(dl_cap_pa).value().max(0.0));

    // Rule 2: the loop through both paths crosses both inter-link
    // couplings; the sum of gains must stay below their sum.
    let total_cap = budget.inter_downlink + budget.inter_uplink - margin;
    let uplink = Db::new(ul_cap_stability.min(total_cap - downlink).value().max(0.0));

    if rfly_obs::is_active() {
        rfly_obs::event(
            "relay.gain_allocate",
            vec![
                ("downlink_db", rfly_obs::Value::F64(downlink.value())),
                ("uplink_db", rfly_obs::Value::F64(uplink.value())),
                ("margin_db", rfly_obs::Value::F64(margin.value())),
            ],
        );
        rfly_obs::observe_db("relay.downlink_gain_db", downlink);
        rfly_obs::observe_db("relay.uplink_gain_db", uplink);
    }
    GainPlan { downlink, uplink }
}

/// Checks that a gain plan keeps every feedback loop below unity by at
/// least `margin` — the stability condition behind Eq. 3.
pub fn is_stable(plan: &GainPlan, budget: &IsolationBudget, margin: Db) -> bool {
    plan.downlink + margin <= budget.intra_downlink
        && plan.uplink + margin <= budget.intra_uplink
        && plan.downlink + plan.uplink + margin <= budget.inter_downlink + budget.inter_uplink
}

/// An external interferer in a victim relay's feedback budget — in a
/// fleet, another relay whose amplified output couples over the air
/// into this one. The Eq. 3 loop analysis extends naturally: the pair
/// forms a mutual loop through one chain segment of each relay, two
/// crossings of the inter-relay path, and each chain's filter
/// rejection at the frequency offset where the other's output lands.
#[derive(Debug, Clone, Copy)]
pub struct ExternalInterferer {
    /// The other relay's gain plan.
    pub gains: GainPlan,
    /// The other relay's reader-side frequency f₁.
    pub f1: Hertz,
    /// The other relay's tag-side frequency f₂.
    pub f2: Hertz,
    /// One-way over-the-air path loss between the two relays.
    pub coupling_loss: Db,
}

/// Filter rejection of a signal offset by `offset` from a chain
/// tuned to a passband of width `passband` — a second-order
/// (40 dB/decade) rolloff, the relay's cascaded BPF+LPF skirt. Zero
/// inside the passband.
pub fn offset_rejection(offset: Hertz, passband: Hertz) -> Db {
    let half_bw = passband.as_hz() / 2.0;
    let off = offset.as_hz().abs();
    if off <= half_bw || half_bw <= 0.0 {
        Db::new(0.0)
    } else {
        Db::new(40.0 * (off / half_bw).log10())
    }
}

/// The stability margin of one mutual-loop topology through two
/// relays: the amount (dB) by which the closed loop
/// `segment_i → air → segment_j → air → segment_i` stays below unity,
/// where `gain_i`/`gain_j` are the gains of the chain segments the
/// loop traverses and `rejection` is the combined filter rejection of
/// both crossings. Negative means the pair rings regardless of each
/// relay's own self-interference compliance.
pub fn mutual_loop_margin(gain_i: Db, gain_j: Db, coupling_loss: Db, rejection: Db) -> Db {
    coupling_loss + coupling_loss + rejection - gain_i - gain_j
}

/// The worst-case mutual-loop margin across the four loop topologies a
/// relay pair can form. Each relay's downlink listens at its f₁ and
/// emits at its f₂; its uplink listens at f₂ and emits at f₁. A loop
/// picks one segment per relay, and each crossing is rejected by the
/// receiving chain's filter skirt at the offset between the emitted
/// frequency and the receiving passband center.
#[allow(clippy::too_many_arguments)]
pub fn worst_pair_margin(
    gains_i: &GainPlan,
    f1_i: Hertz,
    f2_i: Hertz,
    gains_j: &GainPlan,
    f1_j: Hertz,
    f2_j: Hertz,
    coupling_loss: Db,
    passband: Hertz,
) -> Db {
    let off = |out: Hertz, center: Hertz| out - center;
    let topologies = [
        // i downlink → j downlink
        (
            gains_i.downlink,
            off(f2_i, f1_j),
            gains_j.downlink,
            off(f2_j, f1_i),
        ),
        // i downlink → j uplink
        (
            gains_i.downlink,
            off(f2_i, f2_j),
            gains_j.uplink,
            off(f1_j, f1_i),
        ),
        // i uplink → j downlink
        (
            gains_i.uplink,
            off(f1_i, f1_j),
            gains_j.downlink,
            off(f2_j, f2_i),
        ),
        // i uplink → j uplink
        (
            gains_i.uplink,
            off(f1_i, f2_j),
            gains_j.uplink,
            off(f1_j, f2_i),
        ),
    ];
    topologies
        .iter()
        .map(|&(gi, o1, gj, o2)| {
            mutual_loop_margin(
                gi,
                gj,
                coupling_loss,
                offset_rejection(o1, passband) + offset_rejection(o2, passband),
            )
        })
        .min_by(|a, b| a.value().total_cmp(&b.value()))
        .expect("four topologies") // rfly-lint: allow(no-unwrap) -- min over a fixed four-element candidate array.
}

/// Eq. 3 extended with external interferers: the plan must satisfy the
/// victim's own isolation budget AND keep the worst mutual loop with
/// every neighboring relay below unity by `margin`. `f1`/`f2` are the
/// victim's frequencies; `passband` is the chains' filter passband
/// width.
pub fn is_stable_with_interferers(
    plan: &GainPlan,
    budget: &IsolationBudget,
    margin: Db,
    f1: Hertz,
    f2: Hertz,
    passband: Hertz,
    interferers: &[ExternalInterferer],
) -> bool {
    is_stable(plan, budget, margin)
        && interferers.iter().all(|i| {
            worst_pair_margin(
                plan,
                f1,
                f2,
                &i.gains,
                i.f1,
                i.f2,
                i.coupling_loss,
                passband,
            )
            .value()
                >= margin.value()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_budget_is_the_prototype_medians() {
        let b = IsolationBudget::fig9();
        assert_eq!(b.intra_downlink, Db::new(77.0));
        assert_eq!(b.inter_uplink, Db::new(92.0));
    }

    #[test]
    fn allocation_is_stable_by_construction() {
        let b = IsolationBudget::fig9();
        let plan = allocate(&b, Db::new(10.0), Dbm::new(-30.0));
        assert!(is_stable(&plan, &b, Db::new(10.0)));
    }

    #[test]
    fn downlink_is_maximized_first() {
        let b = IsolationBudget::fig9();
        let plan = allocate(&b, Db::new(10.0), Dbm::new(-40.0));
        // Downlink cap: min(77−10, 29−(−40)) = min(67, 69) = 67.
        assert!((plan.downlink.value() - 67.0).abs() < 1e-9);
        // Uplink: min(64−10, 110+92−10−67) = min(54, 125) = 54.
        assert!((plan.uplink.value() - 54.0).abs() < 1e-9);
    }

    #[test]
    fn pa_compression_caps_strong_inputs() {
        let b = IsolationBudget::fig9();
        // Reader very close: −5 dBm at the relay input.
        let plan = allocate(&b, Db::new(10.0), Dbm::new(-5.0));
        assert!((plan.downlink.value() - 34.0).abs() < 1e-9, "29−(−5) = 34");
    }

    #[test]
    fn weak_isolation_starves_the_uplink() {
        let b = IsolationBudget {
            intra_downlink: Db::new(40.0),
            intra_uplink: Db::new(40.0),
            inter_downlink: Db::new(30.0),
            inter_uplink: Db::new(25.0),
        };
        let plan = allocate(&b, Db::new(10.0), Dbm::new(-40.0));
        // Downlink: min(30, 69) = 30. Total cap: 45. Uplink: min(30, 15).
        assert!((plan.downlink.value() - 30.0).abs() < 1e-9);
        assert!((plan.uplink.value() - 15.0).abs() < 1e-9);
        assert!(is_stable(&plan, &b, Db::new(10.0)));
    }

    #[test]
    fn gains_never_negative() {
        let b = IsolationBudget {
            intra_downlink: Db::new(5.0),
            intra_uplink: Db::new(5.0),
            inter_downlink: Db::new(4.0),
            inter_uplink: Db::new(4.0),
        };
        let plan = allocate(&b, Db::new(10.0), Dbm::new(20.0));
        assert_eq!(plan.downlink, Db::new(0.0));
        assert_eq!(plan.uplink, Db::new(0.0));
    }

    #[test]
    fn instability_detected() {
        let b = IsolationBudget::fig9();
        let hot = GainPlan {
            downlink: Db::new(75.0),
            uplink: Db::new(60.0),
        };
        assert!(!is_stable(&hot, &b, Db::new(10.0)));
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn negative_margin_rejected() {
        let _ = allocate(&IsolationBudget::fig9(), Db::new(-1.0), Dbm::new(-30.0));
    }

    #[test]
    fn offset_rejection_rolls_off_at_40db_per_decade() {
        let bw = Hertz::khz(500.0);
        assert_eq!(offset_rejection(Hertz::khz(100.0), bw), Db::new(0.0));
        let one_dec = offset_rejection(Hertz::khz(2500.0), bw);
        assert!((one_dec.value() - 40.0).abs() < 1e-9, "{one_dec}");
        let two_dec = offset_rejection(Hertz::khz(25_000.0), bw);
        assert!((two_dec.value() - 80.0).abs() < 1e-9);
        // Symmetric in sign.
        assert_eq!(
            offset_rejection(Hertz::khz(-2500.0), bw),
            offset_rejection(Hertz::khz(2500.0), bw)
        );
    }

    #[test]
    fn mutual_loop_margin_balances_gains_against_coupling() {
        // Two paper-grade downlink segments (67 dB each) 10 m apart
        // (~52 dB free-space coupling each way) ring without filter
        // rejection; modest Δf rejection restores a 10 dB margin.
        let g = Db::new(67.0);
        let coupling = Db::new(52.0);
        let bare = mutual_loop_margin(g, g, coupling, Db::new(0.0));
        assert!(bare.value() < 0.0, "bare pair should ring: {bare}");
        let filtered = mutual_loop_margin(g, g, coupling, Db::new(50.0));
        assert!(filtered.value() >= 10.0, "{filtered}");
    }

    #[test]
    fn worst_pair_margin_is_worst_when_co_channel() {
        let b = IsolationBudget::fig9();
        let plan = allocate(&b, Db::new(10.0), Dbm::new(-40.0));
        let f1 = Hertz::mhz(915.0);
        let f2 = Hertz::mhz(916.0);
        let pb = Hertz::khz(400.0);
        let coupling = Db::new(52.0);
        // Co-channel pair: the dl→ul loop has zero offset on both
        // crossings — no rejection at all.
        let co = worst_pair_margin(&plan, f1, f2, &plan, f1, f2, coupling, pb);
        assert!(
            (co.value() - (2.0 * 52.0 - plan.total().value())).abs() < 1e-9,
            "{co}"
        );
        // 5 MHz apart: every crossing sits far down the filter skirt.
        let far = worst_pair_margin(
            &plan,
            f1,
            f2,
            &plan,
            Hertz::mhz(920.0),
            Hertz::mhz(921.5),
            coupling,
            pb,
        );
        assert!(far.value() > co.value() + 50.0, "co {co}, far {far}");
    }

    #[test]
    fn interferer_extension_tightens_the_gate() {
        let b = IsolationBudget::fig9();
        let plan = allocate(&b, Db::new(10.0), Dbm::new(-40.0));
        let f1 = Hertz::mhz(915.0);
        let f2 = Hertz::mhz(916.0);
        let pb = Hertz::khz(400.0);
        let gate = |ints: &[ExternalInterferer]| {
            is_stable_with_interferers(&plan, &b, Db::new(10.0), f1, f2, pb, ints)
        };
        // Alone: stable.
        assert!(gate(&[]));
        // A close-coupled co-channel twin: unstable.
        let hot = ExternalInterferer {
            gains: plan,
            f1,
            f2,
            coupling_loss: Db::new(52.0),
        };
        assert!(!gate(&[hot]));
        // The same twin 10 MHz away: the filter skirts kill the loop.
        let cold = ExternalInterferer {
            f1: Hertz::mhz(925.0),
            f2: Hertz::mhz(926.0),
            ..hot
        };
        assert!(gate(&[cold]));
    }
}

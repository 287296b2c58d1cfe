//! Fleet mission reporting: aggregate read-rate, per-relay channel
//! assignment and utilization, and the pairwise interference-margin
//! histogram — rendered with the shared [`rfly_sim::report`] tables.

use rfly_sim::report::{fmt_db, fmt_pct, histogram, Table};

use crate::channels::ChannelPlan;
use crate::inventory::MissionOutcome;

/// The mission summary: fleet size, coverage, dedup statistics.
pub fn summary_table(outcome: &MissionOutcome, population: usize) -> Table {
    let inv = &outcome.inventory;
    let mut t = Table::new(
        "Fleet mission summary",
        &[
            "relays",
            "tags",
            "read rate",
            "handoffs",
            "stops",
            "mission",
        ],
    );
    t.row(&[
        inv.per_relay_reads.len().to_string(),
        format!("{}/{population}", inv.unique_tags()),
        fmt_pct(100.0 * inv.read_rate(population)),
        inv.handoffs().to_string(),
        outcome.steps.to_string(),
        format!("{:.0} s", outcome.duration_s),
    ]);
    t
}

/// Per-relay channel assignment and share of the fleet's reads.
pub fn per_relay_table(plan: &ChannelPlan, outcome: &MissionOutcome) -> Table {
    let util = outcome.inventory.utilization();
    let mut t = Table::new(
        "Per-relay assignment and utilization",
        &["relay", "f1 (MHz)", "Δ (MHz)", "f2 (MHz)", "reads", "share"],
    );
    for (i, &share) in util.iter().enumerate() {
        t.row(&[
            i.to_string(),
            format!("{:.2}", plan.f1[i].as_mhz()),
            format!("{:.1}", plan.shift[i].as_mhz()),
            format!("{:.2}", plan.f2(i).as_mhz()),
            outcome.inventory.per_relay_reads[i].to_string(),
            fmt_pct(100.0 * share),
        ]);
    }
    t
}

/// Histogram of all pairwise mutual-loop margins, 10 dB bins. Every
/// count at or above the design margin means a stable pair.
pub fn margin_histogram(plan: &ChannelPlan) -> Table {
    let margins: Vec<f64> = plan.margins.iter().map(|m| m.margin.value()).collect();
    let lo = margins.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = margins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if margins.is_empty() || (hi - lo) < 1e-9 {
        // Degenerate: a single pair (or none) — one catch-all bin.
        let mut t = Table::new("Pairwise interference margins (dB)", &["bin", "count", ""]);
        if let Some(&m) = margins.first() {
            t.row(&[fmt_db(m), margins.len().to_string(), "#".repeat(10)]);
        }
        return t;
    }
    let bins = (((hi - lo) / 10.0).ceil() as usize).clamp(1, 12);
    histogram(
        "Pairwise interference margins (dB)",
        &margins,
        bins,
        lo,
        hi + 1e-9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::assign;
    use crate::inventory::FleetInventory;
    use rfly_channel::geometry::Point2;
    use rfly_core::relay::gains::IsolationBudget;
    use rfly_dsp::units::Db;

    fn plan() -> ChannelPlan {
        let budget = IsolationBudget::fig9();
        let positions = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(20.0, 0.0),
        ];
        assign(&positions, &budget, Db::new(10.0), 3).unwrap()
    }

    #[test]
    fn report_tables_render() {
        let p = plan();
        let outcome = MissionOutcome {
            inventory: FleetInventory::new(3),
            steps: 5,
            duration_s: 120.0,
        };
        assert!(summary_table(&outcome, 200).render().contains("read rate"));
        let per = per_relay_table(&p, &outcome);
        assert_eq!(per.len(), 3);
        let hist = margin_histogram(&p);
        assert!(!hist.is_empty());
        // Every pair margin lands in some bin: total count = 3 pairs.
        let total: usize = hist
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| {
                l.rsplit(',')
                    .nth(1)
                    .and_then(|c| c.parse::<usize>().ok())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 3);
    }
}

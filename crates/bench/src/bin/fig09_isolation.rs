//! Fig. 9(a–d) — self-interference isolation CDFs over 100 trials,
//! RFly vs the traditional analog relay.
//!
//! Paper: medians 110 / 92 / 77 / 64 dB for inter-downlink,
//! inter-uplink, intra-downlink, intra-uplink, "at least 50 dB
//! improvement over a traditional analog relay". Each trial draws a
//! relay build (component tolerances, synthesizer states) and runs the
//! §7.1 probe-tone measurement through the actual sample-level chain.

use rfly_bench::prelude::*;
use rfly_core::relay::analog_baseline;
use rfly_core::relay::isolation::{measure_isolation, InterferencePath};
use rfly_core::relay::relay::{Relay, RelayConfig};
use rfly_sim::experiment::trial_seed;

fn main() {
    let mut bench = Bench::from_args("fig09_isolation", 2017);
    let seed = bench.seed();
    let trials = 100;

    let paths = [
        ("inter-downlink", InterferencePath::InterDownlink, 110.0),
        ("inter-uplink", InterferencePath::InterUplink, 92.0),
        ("intra-downlink", InterferencePath::IntraDownlink, 77.0),
        ("intra-uplink", InterferencePath::IntraUplink, 64.0),
    ];

    let mut table = Table::new(
        "Fig. 9: isolation CDF summary, RFly vs analog relay (100 trials)",
        &[
            "path",
            "RFly p10",
            "RFly p50",
            "RFly p90",
            "analog p50",
            "gain p50",
            "paper p50",
        ],
    );

    let mc = MonteCarlo::new(seed);
    for (name, path, paper_median) in paths {
        let rfly: Vec<f64> = mc
            .run_seeded(trials, |_, s| {
                let mut relay = Relay::new(RelayConfig::default(), s);
                measure_isolation(&mut relay, path).value()
            })
            .into_iter()
            .collect();
        let base: Vec<f64> = mc.run(trials, |_, rng| {
            analog_baseline::isolation(path, rng).value()
        });
        let r = ErrorStats::new(rfly);
        let b = ErrorStats::new(base);
        table.row(&[
            name.to_string(),
            fmt_db(r.quantile(0.1)),
            fmt_db(r.median()),
            fmt_db(r.quantile(0.9)),
            fmt_db(b.median()),
            fmt_db(r.median() - b.median()),
            fmt_db(paper_median),
        ]);
        assert!(
            r.median() - b.median() >= 50.0,
            "{name}: improvement below the paper's 50 dB headline"
        );
    }
    bench.table("main", table, true);

    // Also emit one full CDF (inter-downlink) as a plottable series.
    let cdf_vals: Vec<f64> = mc.run_seeded(trials, |_, s| {
        let mut relay = Relay::new(RelayConfig::default(), trial_seed(s, 1));
        measure_isolation(&mut relay, InterferencePath::InterDownlink).value()
    });
    let stats = ErrorStats::new(cdf_vals);
    let mut cdf = Table::new(
        "Fig. 9(a) CDF series (inter-downlink)",
        &["isolation", "CDF"],
    );
    for (v, p) in stats.cdf().into_iter().step_by(10) {
        cdf.row(&[fmt_db(v), format!("{p:.2}")]);
    }
    bench.table("cdf", cdf, false);
    bench.finish();
}

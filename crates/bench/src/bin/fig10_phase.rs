//! Fig. 10 — phase accuracy with and without the mirrored architecture.
//!
//! Paper procedure (§7.1b): a tag 0.5 m from the relay, wired to the
//! USRP reader; 50 trials, each a query with a random initial phase;
//! the offset is the phase difference between estimated channels across
//! trials. Result: median 0.34°, 99th pct 1.2° mirrored; uniformly
//! random without the mirror.
//!
//! This binary runs the full sample-level chain per trial: reader CW →
//! relay downlink → FM0 backscatter → relay uplink → coherent decode →
//! channel phase.

use rfly_bench::prelude::*;
use rfly_core::relay::relay::{Relay, RelayConfig};
use rfly_dsp::complex::{phase_distance, wrap_phase};
use rfly_dsp::noise::add_awgn;
use rfly_dsp::rng::Rng;
use rfly_dsp::Complex;
use rfly_protocol::bits::Bits;
use rfly_protocol::fm0;
use rfly_reader::decoder::decode_backscatter;

const SPS: usize = 8;
const PAYLOAD: &str = "1011001110001111";

/// One trial: returns the relay-induced phase (query phase removed).
fn trial(relay: &mut Relay, start: usize, query_phase: f64, noise: f64, seed: u64) -> Option<f64> {
    let n = 4096;
    // Reader CW at f1 with the trial's random carrier phase.
    let cw: Vec<Complex> = (0..n).map(|_| Complex::cis(query_phase)).collect();
    let down = relay.forward_downlink(&cw, start);

    // The tag backscatters an FM0 reply onto the relayed carrier.
    let levels = fm0::encode_reply(&Bits::from_str01(PAYLOAD), false, SPS);
    let offset = 600;
    let mut uplink_in = vec![Complex::default(); n];
    for (i, &l) in levels.iter().enumerate() {
        // Reflective state: reflect the incident relayed carrier.
        uplink_in[offset + i] = down[offset + i] * l;
    }
    let mut up = relay.forward_uplink(&uplink_in, start);
    if noise > 0.0 {
        let mut rng = rfly_dsp::rng::StdRng::seed_from_u64(seed);
        add_awgn(&mut rng, &mut up, noise);
    }

    let d = decode_backscatter(&up, false, SPS, PAYLOAD.len()).ok()?;
    // The coherent reader knows its own transmitted phase; remove it.
    Some(wrap_phase(d.channel.arg() - query_phase))
}

fn run(mirrored: bool, seed: u64, trials: usize) -> Vec<f64> {
    let cfg = RelayConfig {
        mirrored,
        bpf_half_bw: RelayConfig::FM0_BPF_HALF_BW,
        ..RelayConfig::default()
    };
    let mut relay = Relay::new(cfg, seed);
    let mut rng = rfly_dsp::rng::StdRng::seed_from_u64(seed ^ 0xF16);
    let mut phases = Vec::new();
    for k in 0..trials {
        let q = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        if let Some(p) = trial(&mut relay, k * 8192, q, 1e-9, seed ^ k as u64) {
            phases.push(p);
        }
        relay.reset();
    }
    phases
}

/// Phase errors relative to the circular mean, degrees.
fn errors_deg(phases: &[f64]) -> Vec<f64> {
    let mean: Complex = phases.iter().map(|&p| Complex::cis(p)).sum();
    let reference = mean.arg();
    phases
        .iter()
        .map(|&p| phase_distance(p, reference).to_degrees())
        .collect()
}

fn main() {
    let mut bench = Bench::from_args("fig10_phase", 2017);
    let seed = bench.seed();
    let trials = 50;

    let mirrored = errors_deg(&run(true, seed, trials));
    let no_mirror = errors_deg(&run(false, seed, trials));
    assert!(
        mirrored.len() >= trials * 9 / 10,
        "mirrored decode failures: {}/{trials}",
        trials - mirrored.len()
    );

    let m = ErrorStats::new(mirrored);
    let n = ErrorStats::new(no_mirror);

    let mut table = Table::new(
        "Fig. 10: relayed-channel phase error (degrees)",
        &["architecture", "median", "p90", "p99", "paper median"],
    );
    table.row(&[
        "RFly (mirrored)".into(),
        format!("{:.2}°", m.median()),
        format!("{:.2}°", m.quantile(0.9)),
        format!("{:.2}°", m.quantile(0.99)),
        "0.34°".into(),
    ]);
    table.row(&[
        "No-Mirror".into(),
        format!("{:.1}°", n.median()),
        format!("{:.1}°", n.quantile(0.9)),
        format!("{:.1}°", n.quantile(0.99)),
        "~random (≤180°)".into(),
    ]);
    bench.table("main", table, true);

    println!(
        "Shape check: mirrored errors are ~{}x smaller than no-mirror.",
        (n.median() / m.median()).round()
    );
    assert!(m.median() < 3.0, "mirrored phase must be ~sub-degree");
    assert!(n.median() > 20.0, "no-mirror phase must be ~random");
    bench.finish();
}

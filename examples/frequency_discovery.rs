//! Frequency discovery and interference management (§4.2–4.3).
//!
//! Two readers transmit simultaneously at different ISM channels. The
//! relay sweeps its streaming correlator (Eq. 5) over the candidate
//! grid in ~20 ms of signal, locks onto the *stronger* reader, and —
//! once locked — can follow that reader's FCC hopping pattern.
//!
//! Run with: `cargo run --release --example frequency_discovery`

use rfly::core::relay::freq_discovery::FrequencyDiscovery;
use rfly::dsp::buffer::add;
use rfly::dsp::osc::Nco;
use rfly::dsp::units::{Hertz, Seconds};
use rfly::dsp::Complex;
use rfly::reader::config::ReaderConfig;
use rfly::reader::hopping::HopSequence;

fn main() {
    let fs = ReaderConfig::SAMPLE_RATE;
    // Baseband view of part of the FCC channel grid around the relay's
    // rough tuning: ±1.5 MHz in 500 kHz steps.
    let grid: Vec<Hertz> = (-3..=3).map(|k| Hertz::khz(500.0 * k as f64)).collect();

    // Reader A (strong) at +1.0 MHz; reader B (6 dB weaker) at −0.5 MHz.
    let mut fd = FrequencyDiscovery::new(grid.clone());
    let n = fd.sweep_len();
    println!(
        "sweep consumes {} samples = {:.1} ms of signal ({} candidates)",
        n,
        n as f64 / fs * 1e3,
        grid.len()
    );
    let strong = Nco::new(Hertz::khz(1000.0), fs).block(n);
    let weak: Vec<Complex> = Nco::new(Hertz::khz(-500.0), fs)
        .block(n)
        .into_iter()
        .map(|s| s * 0.5)
        .collect();
    let lock = fd.sweep(&add(&strong, &weak)).expect("locks");
    println!(
        "locked onto {} at {} (the stronger of the two readers)",
        lock.frequency, lock.power
    );
    assert_eq!(lock.frequency, Hertz::khz(1000.0));

    // Footnote 3: once the frequency at one instant is known, the relay
    // tracks the reader's prespecified hopping pattern.
    let pattern = HopSequence::new(77, Seconds::new(0.4));
    println!(
        "\nreader hop pattern (dwell {} ms):",
        pattern.dwell.value() * 1e3
    );
    for k in 0..6 {
        let t = k as f64 * 0.4 + 0.01;
        println!(
            "  t = {:.2} s -> {}",
            t,
            pattern.frequency_at(Seconds::new(t))
        );
    }
    // The relay's prediction at t matches an independently advanced copy.
    let mut live = pattern.clone();
    live.hop();
    live.hop();
    assert_eq!(pattern.frequency_at(Seconds::new(0.85)), live.current());
    println!("\nOK: relay locks the strongest reader and tracks its hops.");
}

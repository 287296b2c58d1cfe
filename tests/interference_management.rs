//! Multi-reader interference management (§4.2–§4.3): the relay locks
//! onto the strongest reader and its baseband filters reject all
//! others — verified at the IQ-sample level through the real chain.

use rfly::core::relay::freq_discovery::FrequencyDiscovery;
use rfly::core::relay::relay::{Relay, RelayConfig};
use rfly::dsp::buffer::add;
use rfly::dsp::goertzel::windowed_power_at;
use rfly::dsp::osc::Nco;
use rfly::dsp::units::Hertz;
use rfly::dsp::Complex;
use rfly::reader::config::ReaderConfig;

const FS: f64 = ReaderConfig::SAMPLE_RATE;

#[test]
fn relay_locks_strongest_reader_and_filters_the_rest() {
    // Reader A on the relay's current channel (baseband 0); reader B
    // one FCC channel up (+500 kHz), 8 dB weaker.
    let grid: Vec<Hertz> = (-3..=3).map(|k| Hertz::khz(500.0 * k as f64)).collect();
    let mut fd = FrequencyDiscovery::new(grid);
    let n = 40_000.max(fd.sweep_len());
    let a = Nco::new(Hertz::khz(0.0), FS).block(n);
    let b: Vec<Complex> = Nco::new(Hertz::khz(500.0), FS)
        .block(n)
        .into_iter()
        .map(|s| s * 0.4)
        .collect();
    let mixed = add(&a, &b);

    // 1. Eq. 5 sweep: the relay discovers reader A's center frequency.
    let lock = fd.sweep(&mixed).expect("locks");
    assert_eq!(
        lock.frequency,
        Hertz::khz(0.0),
        "must lock the stronger reader"
    );

    // 2. With the downconversion at A's frequency, the downlink LPF
    //    passes A and rejects B.
    let mut relay = Relay::new(RelayConfig::default(), 31);
    let out = relay.forward_downlink(&mixed, 0);
    let shift = RelayConfig::SHIFT;
    let skip = 8192;
    // The relay's synthesizer CFO shifts converted tones by up to a
    // couple of kHz; measure the peak over a small grid (what a
    // spectrum analyzer's max-hold does).
    let peak_around = |center: Hertz| -> f64 {
        (-25..=25)
            .map(|k| {
                windowed_power_at(
                    &out[skip..],
                    Hertz::hz(center.as_hz() + k as f64 * 100.0),
                    FS,
                )
                .value()
            })
            .fold(f64::MIN, f64::max)
    };
    let a_fwd = peak_around(shift);
    let b_leak = peak_around(Hertz::hz(shift.as_hz() + 500e3));
    // A forwarded with ~30 dB gain; B suppressed far below it. (B
    // entered only 8 dB below A.)
    assert!(a_fwd > 20.0, "locked reader forwarded at {a_fwd} dB");
    assert!(
        a_fwd - b_leak > 40.0,
        "other reader insufficiently rejected: A {a_fwd} dB vs B {b_leak} dB"
    );
}

#[test]
fn relay_retunes_when_the_locked_reader_hops() {
    // After a lock, the reader hops channels; the relay re-runs the
    // sweep on fresh signal and follows.
    let grid: Vec<Hertz> = (-3..=3).map(|k| Hertz::khz(500.0 * k as f64)).collect();

    let mut fd1 = FrequencyDiscovery::new(grid.clone());
    let sig1 = Nco::new(Hertz::khz(-1000.0), FS).block(fd1.sweep_len());
    assert_eq!(fd1.sweep(&sig1).unwrap().frequency, Hertz::khz(-1000.0));

    let mut fd2 = FrequencyDiscovery::new(grid);
    let sig2 = Nco::new(Hertz::khz(1500.0), FS).block(fd2.sweep_len());
    assert_eq!(fd2.sweep(&sig2).unwrap().frequency, Hertz::khz(1500.0));
}

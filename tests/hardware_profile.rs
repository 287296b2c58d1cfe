//! Tier-1 golden on the relay's hardware profile: every build the
//! figures fly must draw the committed components and forward a probe
//! to the committed samples.
//!
//! Each build is one `Relay::new` at a pinned seed. Its digest is an
//! FNV-1a-64 over the f64 bits of its drawn component values, then of a
//! short downlink probe's output and an uplink probe's output. So a
//! change to any hardware value, to a filter design, or to the order of
//! the build's random draws moves a pinned value. The builds are the
//! Fig. 9 prototype, the mirrored and no-mirror FM0 chains (Fig. 10, the
//! sample link) and one `ablation_filters` filter spec; the analog
//! baseline's four isolation draws are pinned too.

use rfly::core::relay::analog_baseline;
use rfly::core::relay::isolation::InterferencePath;
use rfly::core::relay::relay::{Relay, RelayConfig};
use rfly::dsp::osc::Nco;
use rfly::dsp::rng::StdRng;
use rfly::dsp::units::{Db, Hertz};
use rfly::reader::config::ReaderConfig;

/// The two seeds every build is drawn at.
const SEEDS: [u64; 2] = [2017, 7];

/// FNV-1a-64 over the little-endian bytes of f64 bit patterns.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// 2048 samples of two tones: one inside a path's passband, one outside.
fn probe(in_band: f64, out_of_band: f64) -> Vec<rfly::dsp::Complex> {
    let fs = ReaderConfig::SAMPLE_RATE;
    let a = Nco::new(Hertz::khz(in_band), fs).block(2048);
    let b = Nco::new(Hertz::khz(out_of_band), fs).block(2048);
    a.iter().zip(&b).map(|(&x, &y)| x + y).collect()
}

/// One build's digest at each seed: drawn components, then the
/// forwarded downlink (query band + subcarrier) and uplink (subcarrier +
/// query band, both at f₂) probes.
fn digests(config: &RelayConfig) -> [u64; 2] {
    SEEDS.map(|seed| {
        let mut relay = Relay::new(config.clone(), seed);
        let d = *relay.drawn();
        let drawn = [
            d.lpf_stopband,
            d.bpf_stopband,
            d.bypass_downlink,
            d.bypass_uplink,
            d.antenna_isolation,
        ];
        let down = relay.forward_downlink(&probe(50.0, 500.0), 0);
        let up = relay.forward_uplink(&probe(1500.0, 1050.0), 0);
        let samples = down.iter().chain(&up).flat_map(|x| [x.re, x.im]);
        fnv(drawn.iter().map(|v| v.value()).chain(samples))
    })
}

/// An FM0-carrying chain whose uplink BPF is `bpf_half_bw` either side of
/// the subcarrier.
fn fm0(mirrored: bool, bpf_half_bw: Hertz) -> RelayConfig {
    RelayConfig {
        mirrored,
        bpf_half_bw,
        ..RelayConfig::default()
    }
}

#[test]
fn relay_builds_draw_and_forward_the_committed_samples() {
    let ablation = RelayConfig {
        lpf_stopband: Db::new(40.0),
        bpf_stopband: Db::new(35.0),
        filter_sigma: Db::new(0.5),
        ..RelayConfig::default()
    };
    for (name, config, pinned) in [
        (
            "Fig. 9 prototype",
            RelayConfig::default(),
            [0x01aa_110d_4e14_7640, 0x5e14_7e52_1171_22a9],
        ),
        (
            "mirrored FM0",
            fm0(true, RelayConfig::FM0_BPF_HALF_BW),
            [0x7bc8_798e_4dc1_bb9a, 0x9138_d7cd_e34d_ad61],
        ),
        (
            "no-mirror FM0",
            fm0(false, RelayConfig::FM0_BPF_HALF_BW),
            [0xa8d3_1a9c_df87_da9d, 0x99b3_67f0_0fa4_e91e],
        ),
        (
            "ablation 40/35 dB",
            ablation,
            [0x0a10_71a3_bf23_04ee, 0xbf62_855d_76e3_5a72],
        ),
    ] {
        assert_eq!(digests(&config), pinned, "{name}");
    }
}

#[test]
fn analog_baseline_draws_the_committed_isolations() {
    let mut rng = StdRng::seed_from_u64(SEEDS[0]);
    let isolations = [
        InterferencePath::InterDownlink,
        InterferencePath::InterUplink,
        InterferencePath::IntraDownlink,
        InterferencePath::IntraUplink,
    ]
    .map(|path| analog_baseline::isolation(path, &mut rng).value());
    assert_eq!(fnv(isolations), 0x25b3_d40d_a9a5_9e5b);
}

#[test]
fn planted_control_a_301_khz_fm0_filter_moves_the_digest() {
    assert_ne!(
        digests(&fm0(true, Hertz::khz(301.0))),
        digests(&fm0(true, RelayConfig::FM0_BPF_HALF_BW))
    );
}

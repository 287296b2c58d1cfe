//! The assembled relay: two forwarding paths and (optionally) the
//! mirrored synthesizer wiring, built from the prototype board's one
//! hardware profile. The relay samples at the reader's baseband clock
//! ([`ReaderConfig::SAMPLE_RATE`]): the sample-level chain runs both on
//! one stream.

use rfly_dsp::rng::Rng;
use rfly_dsp::rng::StdRng;

use rfly_channel::antenna::{mutual_coupling, Polarization};
use rfly_dsp::filter::fir::FirDesign;
use rfly_dsp::osc::{share, SynthImperfections, Synthesizer};
use rfly_dsp::units::{Db, Hertz, Meters};
use rfly_dsp::Complex;
use rfly_reader::config::ReaderConfig;

use super::components::DrawnComponents;
use super::path::ForwardingPath;

/// The settable values of a relay build. Every other value of the §6.1
/// prototype board (Fig. 8), its component tolerances included, is one
/// of the associated constants below.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Mirrored synthesizer wiring (true = RFly; false = the "No-Mirror"
    /// baseline of Fig. 10).
    pub mirrored: bool,
    /// Uplink band-pass half bandwidth: [`Self::BPF_HALF_BW`] for the
    /// Fig. 9 probes, [`Self::FM0_BPF_HALF_BW`] for every chain that
    /// carries an FM0 reply.
    pub bpf_half_bw: Hertz,
    /// Designed stopband attenuation of the downlink low-pass filter.
    pub lpf_stopband: Db,
    /// Designed stopband attenuation of the uplink band-pass filter.
    pub bpf_stopband: Db,
    /// σ of the per-trial filter-attenuation deviation.
    pub filter_sigma: Db,
}

impl RelayConfig {
    /// The out-of-band shift Δ = f₂ − f₁ (§4.3; "as little as 1 MHz").
    pub const SHIFT: Hertz = Hertz::mhz(1.0);
    /// Downlink low-pass cutoff (100 kHz: the query band of Fig. 4).
    pub const LPF_CUTOFF: Hertz = Hertz::khz(100.0);
    /// Uplink band-pass center (the 500 kHz backscatter subcarrier).
    pub const BPF_CENTER: Hertz = Hertz::khz(500.0);
    /// The prototype's uplink band-pass half bandwidth (300–700 kHz).
    pub const BPF_HALF_BW: Hertz = Hertz::khz(200.0);
    /// The uplink half bandwidth of every chain that carries an FM0
    /// reply: the prototype's 300–700 kHz BPF clips the 250 kHz lower
    /// spectral lobe of FM0's long data-1 runs, so those chains widen it
    /// to 200–800 kHz.
    pub const FM0_BPF_HALF_BW: Hertz = Hertz::khz(300.0);
    /// Reference-crystal accuracy of the relay's synthesizers, ppm.
    pub const SYNTH_PPM: f64 = 1.0;
    /// Synthesizer phase-noise linewidth.
    pub const SYNTH_LINEWIDTH: Hertz = Hertz::hz(1.0);
    /// The RF carrier the ppm error applies to (the relay's CFO at
    /// baseband is `carrier × ppm`, the "few hundred Hz" of footnote 5).
    pub const CARRIER: Hertz = Hertz::mhz(915.0);
    /// Initial downlink VGA gain.
    pub const DOWNLINK_GAIN: Db = Db::new(30.0);
    /// Initial uplink VGA gain.
    pub const UPLINK_GAIN: Db = Db::new(25.0);
    /// Board-level same-frequency feed-through of the downlink path
    /// (input connector to output connector, RF). The downlink layout
    /// is screened more aggressively (§6.1 optimizes the downlink).
    pub const BYPASS_DOWNLINK: Db = Db::new(56.0);
    /// Board-level feed-through of the uplink path.
    pub const BYPASS_UPLINK: Db = Db::new(43.0);
    /// σ of the per-trial bypass deviation.
    pub const BYPASS_SIGMA: Db = Db::new(4.0);
    /// Antenna separation on the PCB (10 cm in the prototype).
    pub const ANTENNA_SEPARATION: Meters = Meters::cm(10.0);
    /// σ of per-trial antenna-coupling deviation (orientation,
    /// frequency, nearby objects).
    pub const ANTENNA_SIGMA: Db = Db::new(3.0);

    /// Antenna-to-antenna isolation between a path's transmit antenna
    /// and a receive antenna, for cross-polarized elements at the PCB
    /// separation (the prototype alternates polarization between
    /// adjacent antennas).
    pub fn nominal_antenna_isolation() -> Db {
        mutual_coupling(
            Self::ANTENNA_SEPARATION,
            Self::CARRIER,
            Polarization::Vertical,
            Polarization::Horizontal,
        )
    }
}

// The downlink layout is the better screened one (§6.1).
const _: () = assert!(RelayConfig::BYPASS_DOWNLINK.value() > RelayConfig::BYPASS_UPLINK.value());

impl Default for RelayConfig {
    /// The Fig. 9 prototype: mirrored, with the calibrated filter
    /// stopbands (DESIGN.md §4 item 2) that put the medians of the four
    /// isolation CDFs near 110/92/77/64 dB.
    fn default() -> Self {
        Self {
            mirrored: true,
            bpf_half_bw: Self::BPF_HALF_BW,
            lpf_stopband: Db::new(64.0),
            bpf_stopband: Db::new(57.0),
            filter_sigma: Db::new(4.0),
        }
    }
}

/// A built relay instance (one Monte-Carlo draw of components and
/// synthesizer imperfections).
#[derive(Debug)]
pub struct Relay {
    downlink: ForwardingPath,
    uplink: ForwardingPath,
    drawn: DrawnComponents,
}

impl Relay {
    /// Builds a relay; `seed` drives every random draw (component
    /// tolerances, synthesizer phases/CFO, bypass phases), making each
    /// trial reproducible.
    pub fn new(config: RelayConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fs = ReaderConfig::SAMPLE_RATE;
        let drawn = config.draw(&mut rng);

        // Synthesizer imperfections: the relay free-runs relative to the
        // reader, so both LOs carry a CFO of carrier×ppm plus a random
        // initial phase. (At complex baseband relative to the reader,
        // LO1 is nominally DC and LO2 nominally Δ.)
        let synth = |freq: Hertz, rng: &mut StdRng| {
            let mut imp = SynthImperfections::random(rng, 0.0, RelayConfig::SYNTH_LINEWIDTH);
            imp.extra_offset_hz = RelayConfig::CARRIER.as_hz()
                * rng.gen_range(-RelayConfig::SYNTH_PPM..=RelayConfig::SYNTH_PPM)
                * 1e-6;
            share(Synthesizer::new(freq, fs, imp, rng.gen()))
        };
        let (f1, f2) = (Hertz::hz(0.0), RelayConfig::SHIFT);

        let lpf = FirDesign::new(fs, drawn.lpf_stopband, Hertz::khz(100.0))
            .lowpass(RelayConfig::LPF_CUTOFF);
        let bpf = FirDesign::new(fs, drawn.bpf_stopband, Hertz::khz(150.0))
            .bandpass(RelayConfig::BPF_CENTER, config.bpf_half_bw);

        let (dl_down_lo, dl_up_lo, ul_down_lo, ul_up_lo) = if config.mirrored {
            // The mirrored architecture: ONE synthesizer at f₁ drives
            // both the downlink downconverter and the uplink
            // upconverter; ONE at f₂ drives the other pair.
            let lo1 = synth(f1, &mut rng);
            let lo2 = synth(f2, &mut rng);
            (lo1.clone(), lo2.clone(), lo2, lo1)
        } else {
            // No-mirror baseline: four free-running synthesizers.
            (
                synth(f1, &mut rng),
                synth(f2, &mut rng),
                synth(f2, &mut rng),
                synth(f1, &mut rng),
            )
        };

        // Mixer losses are folded into the VGA gain figure (the `gain`
        // of each path is the net path gain a spectrum analyzer would
        // measure); mixers here are ideal multipliers and the
        // same-frequency feed-through is the explicit bypass term.
        let downlink = ForwardingPath::new(
            dl_down_lo,
            lpf,
            dl_up_lo,
            RelayConfig::DOWNLINK_GAIN,
            drawn.bypass_downlink,
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        );
        let uplink = ForwardingPath::new(
            ul_down_lo,
            bpf,
            ul_up_lo,
            RelayConfig::UPLINK_GAIN,
            drawn.bypass_uplink,
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        );

        Self {
            downlink,
            uplink,
            drawn,
        }
    }

    /// This build's drawn component values.
    pub fn drawn(&self) -> &DrawnComponents {
        &self.drawn
    }

    /// Forwards a downlink block (reader→tag direction). Input is
    /// centered at f₁ (baseband 0); output at f₂ (baseband Δ).
    pub fn forward_downlink(&mut self, input: &[Complex], start: usize) -> Vec<Complex> {
        self.downlink.process(input, start)
    }

    /// Forwards an uplink block (tag→reader direction). Input is
    /// centered at f₂; output at f₁.
    pub fn forward_uplink(&mut self, input: &[Complex], start: usize) -> Vec<Complex> {
        self.uplink.process(input, start)
    }

    /// Current path gains `(downlink, uplink)`.
    pub fn gains(&self) -> (Db, Db) {
        (self.downlink.gain(), self.uplink.gain())
    }

    /// Resets filter state between independent experiments.
    pub fn reset(&mut self) {
        self.downlink.reset();
        self.uplink.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::goertzel::power_at;
    use rfly_dsp::osc::Nco;

    #[test]
    fn prototype_antenna_isolation_is_cross_pol_at_10cm() {
        let iso = RelayConfig::nominal_antenna_isolation();
        // ~1.7 dB Friis-minus-near-field + 20 dB cross-pol.
        assert!((iso.value() - 21.7).abs() < 1.0, "iso = {iso}");
    }

    #[test]
    fn downlink_forwards_query_band_to_f2() {
        let mut r = Relay::new(RelayConfig::default(), 15);
        let x = Nco::new(Hertz::khz(50.0), 4e6).block(16384);
        let y = r.forward_downlink(&x, 0);
        let fwd = power_at(&y[4096..], Hertz::khz(1050.0), 4e6);
        // ~30 dB gain, minus filter droop; CFO smears the tone by a few
        // hundred Hz so allow a couple of dB.
        assert!(fwd.value() > 24.0, "fwd = {fwd}");
    }

    #[test]
    fn uplink_forwards_subcarrier_band_to_f1() {
        let mut r = Relay::new(RelayConfig::default(), 21);
        let x = Nco::new(Hertz::khz(1500.0), 4e6).block(16384); // f₂ + 500 kHz
        let y = r.forward_uplink(&x, 0);
        let fwd = power_at(&y[4096..], Hertz::khz(500.0), 4e6);
        assert!(fwd.value() > 19.0, "fwd = {fwd}");
    }

    /// The Fig. 10 procedure: repeated round trips through ONE relay at
    /// different times, each with a random query phase; returns the
    /// measured round-trip phase (relative to the probe) per trial.
    fn round_trip_phases(r: &mut Relay, trials: usize) -> Vec<f64> {
        let fs = 4e6;
        let n = 32768usize;
        let mut phases = Vec::new();
        for k in 0..trials {
            let start = k * 4 * n; // trials separated in time
            let probe_phase = (k as f64 * 2.399).rem_euclid(std::f64::consts::TAU);
            let tone = Nco::with_phase(Hertz::khz(50.0), fs, probe_phase).block(n);
            let down = r.forward_downlink(&tone, start);
            let up = r.forward_uplink(&down, start);
            let g = rfly_dsp::goertzel::goertzel(&up[n / 2..], Hertz::khz(50.0), fs);
            // Subtract the probe's own phase: what remains is the
            // relay-induced offset.
            phases.push(rfly_dsp::complex::wrap_phase(g.arg() - probe_phase));
        }
        phases
    }

    #[test]
    fn mirrored_round_trip_phase_is_constant_over_time() {
        // §7.1(b): with the mirrored architecture the relay adds only a
        // constant hardware phase. Trials at different times and with
        // different query phases must measure the same offset (to
        // within the synthesizers' phase noise and CFO-induced drift
        // across the filter delay).
        let mut r = Relay::new(RelayConfig::default(), 10);
        let phases = round_trip_phases(&mut r, 4);
        for w in phases.windows(2) {
            let d = rfly_dsp::complex::phase_distance(w[0], w[1]);
            assert!(d < 0.05, "mirrored phase drifts: {d} rad");
        }
    }

    #[test]
    fn no_mirror_round_trip_phase_is_random() {
        // Without the mirror, four free-running synthesizers leave a
        // residual CFO of hundreds of Hz: trials milliseconds apart
        // measure essentially random phases (the "No-Mirror" CDF of
        // Fig. 10).
        let no_mirror = RelayConfig {
            mirrored: false,
            ..RelayConfig::default()
        };
        let mut r = Relay::new(no_mirror, 1);
        let phases = round_trip_phases(&mut r, 6);
        let max_d = phases
            .windows(2)
            .map(|w| rfly_dsp::complex::phase_distance(w[0], w[1]))
            .fold(0.0f64, f64::max);
        assert!(
            max_d > 0.5,
            "no-mirror phases suspiciously aligned: {max_d}"
        );
    }
}

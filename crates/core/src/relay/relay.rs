//! The assembled relay: two forwarding paths and (optionally) the
//! mirrored synthesizer wiring.

use rfly_dsp::rng::Rng;
use rfly_dsp::rng::StdRng;

use rfly_dsp::filter::fir::FirDesign;
use rfly_dsp::mixer::{Conversion, Mixer};
use rfly_dsp::osc::{share, SharedSynth, SynthImperfections, Synthesizer};
use rfly_dsp::units::{Db, Hertz};
use rfly_dsp::Complex;

use super::components::{ComponentTolerances, DrawnComponents};
use super::path::ForwardingPath;

/// Static configuration of a relay build.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Baseband sample rate the relay processes at.
    pub sample_rate: Hertz,
    /// The out-of-band shift Δ = f₂ − f₁ (§4.3; "as little as 1 MHz").
    pub shift: Hertz,
    /// Downlink low-pass cutoff (100 kHz: the query band of Fig. 4).
    pub lpf_cutoff: Hertz,
    /// Uplink band-pass center (the 500 kHz backscatter subcarrier).
    pub bpf_center: Hertz,
    /// Uplink band-pass half bandwidth.
    pub bpf_half_bw: Hertz,
    /// Mirrored synthesizer wiring (true = RFly; false = the "No-Mirror"
    /// baseline of Fig. 10).
    pub mirrored: bool,
    /// Reference-crystal accuracy of the relay's synthesizers, ppm.
    pub synth_ppm: f64,
    /// Synthesizer phase-noise linewidth.
    pub synth_linewidth: Hertz,
    /// The RF carrier the ppm error applies to (the relay's CFO at
    /// baseband is `carrier × ppm`, the "few hundred Hz" of footnote 5).
    pub carrier: Hertz,
    /// Component nominals and tolerances.
    pub components: ComponentTolerances,
    /// Initial downlink VGA gain.
    pub downlink_gain: Db,
    /// Initial uplink VGA gain.
    pub uplink_gain: Db,
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self {
            sample_rate: Hertz::mhz(4.0),
            shift: Hertz::mhz(1.0),
            lpf_cutoff: Hertz::khz(100.0),
            bpf_center: Hertz::khz(500.0),
            bpf_half_bw: Hertz::khz(200.0),
            mirrored: true,
            synth_ppm: 1.0,
            synth_linewidth: Hertz::hz(1.0),
            carrier: Hertz::mhz(915.0),
            components: ComponentTolerances::prototype(),
            downlink_gain: Db::new(30.0),
            uplink_gain: Db::new(25.0),
        }
    }
}

/// A built relay instance (one Monte-Carlo draw of components and
/// synthesizer imperfections).
#[derive(Debug)]
pub struct Relay {
    config: RelayConfig,
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
        let fs = config.sample_rate.as_hz();
        let drawn = config.components.draw(&mut rng, config.carrier);

        // Synthesizer imperfections: the relay free-runs relative to the
        // reader, so both LOs carry a CFO of carrier×ppm plus a random
        // initial phase. (At complex baseband relative to the reader,
        // LO1 is nominally DC and LO2 nominally Δ.)
        let imp = |rng: &mut StdRng| {
            let mut i = SynthImperfections::random(rng, 0.0, config.synth_linewidth);
            i.extra_offset_hz =
                config.carrier.as_hz() * rng.gen_range(-config.synth_ppm..=config.synth_ppm) * 1e-6;
            i
        };

        let make_lpf =
            || FirDesign::new(fs, drawn.lpf_stopband, Hertz::khz(100.0)).lowpass(config.lpf_cutoff);
        let make_bpf = || {
            FirDesign::new(fs, drawn.bpf_stopband, Hertz::khz(150.0))
                .bandpass(config.bpf_center, config.bpf_half_bw)
        };

        let (dl_down_lo, dl_up_lo, ul_down_lo, ul_up_lo): (
            SharedSynth,
            SharedSynth,
            SharedSynth,
            SharedSynth,
        ) = if config.mirrored {
            // The mirrored architecture: ONE synthesizer at f₁ drives
            // both the downlink downconverter and the uplink
            // upconverter; ONE at f₂ drives the other pair.
            let lo1 = share(Synthesizer::new(
                Hertz::hz(0.0),
                fs,
                imp(&mut rng),
                rng.gen(),
            ));
            let lo2 = share(Synthesizer::new(config.shift, fs, imp(&mut rng), rng.gen()));
            (lo1.clone(), lo2.clone(), lo2, lo1)
        } else {
            // No-mirror baseline: four free-running synthesizers.
            let a = share(Synthesizer::new(
                Hertz::hz(0.0),
                fs,
                imp(&mut rng),
                rng.gen(),
            ));
            let b = share(Synthesizer::new(config.shift, fs, imp(&mut rng), rng.gen()));
            let c = share(Synthesizer::new(config.shift, fs, imp(&mut rng), rng.gen()));
            let d = share(Synthesizer::new(
                Hertz::hz(0.0),
                fs,
                imp(&mut rng),
                rng.gen(),
            ));
            (a, b, c, d)
        };

        // Mixer losses are folded into the VGA gain figure (the `gain`
        // of each path is the net path gain a spectrum analyzer would
        // measure); mixers here are ideal multipliers and the
        // same-frequency feed-through is the explicit bypass term.
        let downlink = ForwardingPath::new(
            Mixer::ideal(dl_down_lo, Conversion::Down),
            make_lpf(),
            Mixer::ideal(dl_up_lo, Conversion::Up),
            config.downlink_gain,
            drawn.bypass_downlink,
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        );
        let uplink = ForwardingPath::new(
            Mixer::ideal(ul_down_lo, Conversion::Down),
            make_bpf(),
            Mixer::ideal(ul_up_lo, Conversion::Up),
            config.uplink_gain,
            drawn.bypass_uplink,
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        );

        Self {
            config,
            downlink,
            uplink,
            drawn,
        }
    }

    /// The build configuration.
    pub fn config(&self) -> &RelayConfig {
        &self.config
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

    fn cfg() -> RelayConfig {
        RelayConfig::default()
    }

    #[test]
    fn downlink_forwards_query_band_to_f2() {
        let mut r = Relay::new(cfg(), 15);
        let x = Nco::new(Hertz::khz(50.0), 4e6).block(16384);
        let y = r.forward_downlink(&x, 0);
        let fwd = power_at(&y[4096..], Hertz::khz(1050.0), 4e6);
        // ~30 dB gain, minus filter droop; CFO smears the tone by a few
        // hundred Hz so allow a couple of dB.
        assert!(fwd.value() > 24.0, "fwd = {fwd}");
    }

    #[test]
    fn uplink_forwards_subcarrier_band_to_f1() {
        let mut r = Relay::new(cfg(), 21);
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
        let mut r = Relay::new(cfg(), 10);
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
        let mut cfg2 = cfg();
        cfg2.mirrored = false;
        let mut r = Relay::new(cfg2, 1);
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

    #[test]
    fn mirrored_offset_differs_between_builds_but_is_benign() {
        // Different builds have different constant offsets (layout,
        // synth phases at power-up). This is the multiplicative constant
        // the embedded-RFID division of §5.1 removes; the requirement is
        // only within-build constancy, checked above.
        let a = round_trip_phases(&mut Relay::new(cfg(), 30), 1)[0];
        let b = round_trip_phases(&mut Relay::new(cfg(), 31), 1)[0];
        // (Not asserting inequality strictly — just documenting: offsets
        // are finite numbers, and the test above guarantees stability.)
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn different_seeds_draw_different_components() {
        let a = Relay::new(cfg(), 100);
        let b = Relay::new(cfg(), 101);
        assert_ne!(
            a.drawn().lpf_stopband.value(),
            b.drawn().lpf_stopband.value()
        );
        // Same seed reproduces exactly.
        let a2 = Relay::new(cfg(), 100);
        assert_eq!(
            a.drawn().lpf_stopband.value(),
            a2.drawn().lpf_stopband.value()
        );
    }
}

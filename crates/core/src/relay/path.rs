//! One analog forwarding path: downconvert → filter → amplify →
//! upconvert, plus the same-frequency bypass leakage.
//!
//! Signals are complex baseband relative to the reader's carrier `f₁`.
//! The downlink path's LOs are nominally (0, Δ); the uplink's (Δ, 0).
//! All processing is streaming with *global* sample indices so that two
//! paths sharing synthesizers stay phase-aligned — the mechanism the
//! mirrored architecture depends on.

use rfly_dsp::filter::FirFilter;
use rfly_dsp::mixer::{Conversion, Mixer};
use rfly_dsp::osc::SharedSynth;
use rfly_dsp::units::Db;
use rfly_dsp::Complex;

/// A configured forwarding path.
#[derive(Debug)]
pub struct ForwardingPath {
    down: Mixer,
    filter: FirFilter,
    up: Mixer,
    /// Linear amplitude gain of the VGA chain.
    gain_amp: f64,
    /// Same-frequency input→output bypass (board + mixer feed-through),
    /// as a complex amplitude factor.
    bypass: Complex,
}

impl ForwardingPath {
    /// Assembles a path that downconverts with `down_lo` and upconverts
    /// with `up_lo`. `gain` is the VGA chain gain; `bypass_isolation` the
    /// board-level feed-through attenuation; `bypass_phase` its
    /// (arbitrary, layout-dependent) phase.
    pub fn new(
        down_lo: SharedSynth,
        filter: FirFilter,
        up_lo: SharedSynth,
        gain: Db,
        bypass_isolation: Db,
        bypass_phase: f64,
    ) -> Self {
        Self {
            down: Mixer::ideal(down_lo, Conversion::Down),
            filter,
            up: Mixer::ideal(up_lo, Conversion::Up),
            gain_amp: gain.amplitude(),
            bypass: Complex::from_polar((-bypass_isolation).amplitude(), bypass_phase),
        }
    }

    /// The VGA gain as dB.
    pub fn gain(&self) -> Db {
        Db::from_amplitude(self.gain_amp)
    }

    /// Processes a block whose first sample is global index `start`.
    pub fn process(&mut self, input: &[Complex], start: usize) -> Vec<Complex> {
        let down = self.down.mix_block(input, start);
        let filtered = self.filter.filter_block(&down);
        let amplified: Vec<Complex> = filtered.iter().map(|&s| s * self.gain_amp).collect();
        let mut out = self.up.mix_block(&amplified, start);
        // Same-frequency feed-through rides through the amplifying
        // stages (mixer RF leakage around the baseband filter), so it
        // scales with the gain; the quoted bypass isolation is the
        // attenuation *relative to the amplified forward path*, making
        // measured isolation gain-invariant — exactly how §7.1 factors
        // the gain out.
        for (o, &x) in out.iter_mut().zip(input) {
            *o += x * self.bypass * self.gain_amp;
        }
        out
    }

    /// Clears filter state (between independent experiments).
    pub fn reset(&mut self) {
        self.filter.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::filter::fir::FirDesign;
    use rfly_dsp::goertzel::power_at;
    use rfly_dsp::osc::{share, Nco, Synthesizer};
    use rfly_dsp::units::Hertz;

    const FS: f64 = 4e6;
    const SHIFT: Hertz = Hertz(1e6);

    fn downlink_path(gain: Db, bypass: Db) -> ForwardingPath {
        let lo1 = share(Synthesizer::ideal(Hertz::hz(0.0), FS));
        let lo2 = share(Synthesizer::ideal(SHIFT, FS));
        let lpf = FirDesign::new(FS, Db::new(85.0), Hertz::khz(100.0)).lowpass(Hertz::khz(100.0));
        ForwardingPath::new(lo1, lpf, lo2, gain, bypass, 0.7)
    }

    #[test]
    fn forward_signal_is_shifted_and_amplified() {
        let mut p = downlink_path(Db::new(20.0), Db::new(120.0));
        // A 50 kHz offset tone (inside the query band).
        let x = Nco::new(Hertz::khz(50.0), FS).block(16384);
        let y = p.process(&x, 0);
        // Forward output at shift + 50 kHz with +20 dB gain.
        let fwd = power_at(&y[4096..], Hertz::khz(1050.0), FS);
        assert!((fwd.value() - 20.0).abs() < 0.5, "fwd = {fwd}");
        // Nothing left at the input frequency (bypass is −120 dB).
        let residue = power_at(&y[4096..], Hertz::khz(50.0), FS);
        assert!(residue.value() < -80.0, "residue = {residue}");
    }

    #[test]
    fn out_of_band_input_is_rejected() {
        let mut p = downlink_path(Db::new(20.0), Db::new(120.0));
        // A 500 kHz offset tone — a tag response trying to leak through
        // the downlink (the Inter_ud path).
        let x = Nco::new(Hertz::khz(500.0), FS).block(16384);
        let y = p.process(&x, 0);
        let leak = power_at(&y[4096..], Hertz::khz(1500.0), FS);
        // LPF stopband ~85 dB minus the 20 dB gain ⇒ ≤ −60 dB.
        assert!(leak.value() < -55.0, "leak = {leak}");
    }

    #[test]
    fn bypass_leaks_at_the_input_frequency_scaled_by_gain() {
        let mut p = downlink_path(Db::new(20.0), Db::new(50.0));
        let x = Nco::new(Hertz::khz(50.0), FS).block(16384);
        let y = p.process(&x, 0);
        // −50 dB bypass + 20 dB gain = −30 dB at the input frequency.
        let leak = power_at(&y[4096..], Hertz::khz(50.0), FS);
        assert!((leak.value() + 30.0).abs() < 0.5, "leak = {leak}");
    }

    #[test]
    fn isolation_is_gain_invariant() {
        // §7.1 factors the gain out: the intra-downlink isolation a probe
        // measures (attenuation + gain) must not move when the gain does.
        let isolation = |gain: Db| {
            let mut p = downlink_path(gain, Db::new(56.0));
            let x = Nco::new(Hertz::khz(50.0), FS).block(16384);
            let leak = power_at(&p.process(&x, 0)[4096..], Hertz::khz(50.0), FS);
            -leak + gain
        };
        let (iso30, iso45) = (isolation(Db::new(30.0)), isolation(Db::new(45.0)));
        assert!(
            (iso30.value() - 56.0).abs() < 0.5,
            "isolation {iso30} vs bypass 56 dB"
        );
        assert!(
            (iso30.value() - iso45.value()).abs() < 0.01,
            "{iso30} vs {iso45}"
        );
    }

    #[test]
    fn split_blocks_match_one_shot() {
        let mut a = downlink_path(Db::new(10.0), Db::new(60.0));
        let mut b = downlink_path(Db::new(10.0), Db::new(60.0));
        let x = Nco::new(Hertz::khz(30.0), FS).block(4000);
        let whole = a.process(&x, 0);
        let mut split = b.process(&x[..1000], 0);
        split.extend(b.process(&x[1000..], 1000));
        for (u, v) in whole.iter().zip(&split) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }
}

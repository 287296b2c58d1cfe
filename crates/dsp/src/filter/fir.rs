//! Windowed-sinc FIR design and streaming FIR filtering.
//!
//! The relay's baseband filters are the mechanism behind Fig. 9's
//! inter-link isolation. We design them as Kaiser-windowed sinc FIRs so
//! the stopband attenuation is a design *input*; the measured attenuation
//! at the interfering frequencies is then a genuine output of running
//! probe tones through [`FirFilter::filter_block`].

use std::f64::consts::PI;

use crate::complex::Complex;
use crate::units::{Db, Hertz};

use super::window::{kaiser_beta, kaiser_length, Window};

/// A FIR design specification.
#[derive(Debug, Clone)]
pub struct FirDesign {
    /// Sample rate of the stream the filter will run at, Hz.
    pub sample_rate: f64,
    /// Target stopband attenuation, dB.
    pub stopband_atten: Db,
    /// Transition bandwidth, Hz.
    pub transition: Hertz,
}

impl FirDesign {
    /// Creates a design spec.
    pub fn new(sample_rate: f64, stopband_atten: Db, transition: Hertz) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        assert!(stopband_atten.value() > 0.0, "attenuation must be positive");
        assert!(
            transition.as_hz() > 0.0,
            "transition width must be positive"
        );
        Self {
            sample_rate,
            stopband_atten,
            transition,
        }
    }

    fn window_and_len(&self) -> (Window, usize) {
        let a = self.stopband_atten;
        let delta_f = self.transition.as_hz() / self.sample_rate;
        let mut len = kaiser_length(a, delta_f);
        if len.is_multiple_of(2) {
            len += 1; // odd length → integer group delay, symmetric taps
        }
        (Window::Kaiser(kaiser_beta(a)), len)
    }

    /// Designs a low-pass filter with the given cutoff (−6 dB point).
    pub fn lowpass(&self, cutoff: Hertz) -> FirFilter {
        let (win, len) = self.window_and_len();
        let fc = cutoff.as_hz() / self.sample_rate;
        assert!(fc > 0.0 && fc < 0.5, "cutoff must be within (0, fs/2)");
        let taps = windowed_sinc(fc, len, win);
        FirFilter::new(taps)
    }

    /// Designs a band-pass filter passing `[center − half_bw, center +
    /// half_bw]` (and its mirror at negative frequencies, since taps are
    /// real). This is the uplink filter shape: centered at the tag's
    /// 500 kHz subcarrier.
    pub fn bandpass(&self, center: Hertz, half_bw: Hertz) -> FirFilter {
        let (win, len) = self.window_and_len();
        let fc = half_bw.as_hz() / self.sample_rate;
        assert!(fc > 0.0 && fc < 0.5, "half bandwidth out of range");
        let f0 = center.as_hz() / self.sample_rate;
        assert!(f0 > 0.0 && f0 < 0.5, "center frequency out of range");
        let proto = windowed_sinc(fc, len, win);
        let mid = (len - 1) as f64 / 2.0;
        let taps: Vec<f64> = proto
            .iter()
            .enumerate()
            // Modulating the low-pass prototype by 2·cos(2πf0·n) shifts its
            // passband to ±f0.
            .map(|(n, &h)| h * 2.0 * (2.0 * PI * f0 * (n as f64 - mid)).cos())
            .collect();
        FirFilter::new(taps)
    }
}

fn windowed_sinc(fc: f64, len: usize, win: Window) -> Vec<f64> {
    let mid = (len - 1) as f64 / 2.0;
    let mut taps: Vec<f64> = (0..len)
        .map(|n| {
            let t = n as f64 - mid;
            let sinc = if t == 0.0 {
                2.0 * fc
            } else {
                (2.0 * PI * fc * t).sin() / (PI * t)
            };
            sinc * win.coefficient(n, len)
        })
        .collect();
    // Normalize DC gain to exactly 1.
    let dc: f64 = taps.iter().sum();
    for t in taps.iter_mut() {
        *t /= dc;
    }
    taps
}

/// The outputs [`FirFilter::filter_block`] sums together.
const BLOCK_LANES: usize = 8;

/// A streaming FIR filter over complex samples with real taps.
///
/// Carries its delay-line state across calls so a long stream can be
/// processed in arbitrary block sizes with identical results — the relay
/// processes 1 ms chunks.
#[derive(Debug, Clone)]
pub struct FirFilter {
    taps: Vec<f64>,
    /// Circular delay line of past inputs, length = taps.len().
    state: Vec<Complex>,
    /// Next write position in the circular delay line.
    pos: usize,
}

impl FirFilter {
    /// Wraps raw taps into a streaming filter.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "a filter needs at least one tap");
        let n = taps.len();
        Self {
            taps,
            state: vec![Complex::default(); n],
            pos: 0,
        }
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Resets the delay line to silence.
    pub fn reset(&mut self) {
        self.state.fill(Complex::default());
        self.pos = 0;
    }

    /// Filters one sample.
    #[inline]
    pub fn filter_sample(&mut self, x: Complex) -> Complex {
        let n = self.taps.len();
        self.state[self.pos] = x;
        let mut acc = Complex::default();
        // taps[0] multiplies the newest sample.
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += self.state[idx] * t;
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filters a block of samples: bit for bit the outputs
    /// [`Self::filter_sample`] gives one sample at a time.
    ///
    /// Eight outputs are summed together: every tap is read once per
    /// group, but each output still adds its taps in `filter_sample`'s
    /// order, newest sample first, from 0. The first `taps − 1` outputs
    /// read the delay line through a short copy of it; every later one
    /// reads the block itself.
    pub fn filter_block(&mut self, input: &[Complex]) -> Vec<Complex> {
        let n = self.taps.len();
        let head = input.len().min(n - 1);
        // The delay line's n − 1 newest inputs, oldest first, then the
        // block's head.
        let mut line: Vec<Complex> = (1..n)
            .rev()
            .map(|back| self.state[(self.pos + n - back) % n])
            .collect();
        line.extend_from_slice(&input[..head]);
        let mut out = Vec::with_capacity(input.len());
        self.sum_block(&line, head, &mut out);
        self.sum_block(input, input.len() - head, &mut out);
        // The delay line as `filter_sample` leaves it: the block's
        // newest n inputs, in the slots they would have been written to.
        let kept = n.min(input.len());
        self.pos = (self.pos + input.len() - kept) % n;
        for &x in &input[input.len() - kept..] {
            self.state[self.pos] = x;
            self.pos = (self.pos + 1) % n;
        }
        out
    }

    /// Appends `count` outputs to `out`: output i is the sum of
    /// `src[i + taps − 1 − t]·taps[t]` over the taps in order, from 0.
    fn sum_block(&self, src: &[Complex], count: usize, out: &mut Vec<Complex>) {
        let n = self.taps.len();
        for i0 in (0..count).step_by(BLOCK_LANES) {
            let lanes = BLOCK_LANES.min(count - i0);
            let mut acc = [Complex::default(); BLOCK_LANES];
            for (t, &tap) in self.taps.iter().enumerate() {
                let window = &src[i0 + n - 1 - t..][..lanes];
                for (a, &x) in acc.iter_mut().zip(window) {
                    *a += x * tap;
                }
            }
            out.extend_from_slice(&acc[..lanes]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::mean_power;
    use crate::osc::Nco;

    const FS: f64 = 4e6;

    fn design() -> FirDesign {
        FirDesign::new(FS, Db::new(60.0), Hertz::khz(100.0))
    }

    fn tone_power_through(f: Hertz, filt: &mut FirFilter) -> f64 {
        let x = Nco::new(f, FS).block(8192);
        let y = filt.filter_block(&x);
        // Skip the transient (group delay) when measuring.
        let skip = filt.taps().len();
        mean_power(&y[skip..])
    }

    #[test]
    fn lowpass_passes_passband_and_rejects_stopband() {
        let mut lp = design().lowpass(Hertz::khz(100.0));
        let pass = tone_power_through(Hertz::khz(20.0), &mut lp);
        lp.reset();
        let stop = tone_power_through(Hertz::khz(500.0), &mut lp);
        assert!(Db::from_linear(pass).value() > -1.0, "passband droop");
        assert!(
            Db::from_linear(stop).value() < -58.0,
            "stopband only {} dB",
            Db::from_linear(stop).value()
        );
    }

    #[test]
    fn lowpass_dc_gain_is_unity() {
        let lp = design().lowpass(Hertz::khz(100.0));
        // |H(0)| of a real-tap filter is the sum of its taps.
        let h0: f64 = lp.taps().iter().sum();
        assert!((h0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandpass_centered_on_subcarrier() {
        let mut bp = design().bandpass(Hertz::khz(500.0), Hertz::khz(200.0));
        let pass = tone_power_through(Hertz::khz(500.0), &mut bp);
        bp.reset();
        let stop_dc = tone_power_through(Hertz::khz(20.0), &mut bp);
        bp.reset();
        let stop_hi = tone_power_through(Hertz::khz(1200.0), &mut bp);
        assert!(Db::from_linear(pass).value() > -1.0);
        assert!(Db::from_linear(stop_dc).value() < -55.0);
        assert!(Db::from_linear(stop_hi).value() < -55.0);
        // Real taps → symmetric response: −500 kHz also passes.
        bp.reset();
        let neg = tone_power_through(Hertz::khz(-500.0), &mut bp);
        assert!(Db::from_linear(neg).value() > -1.0);
    }

    #[test]
    fn higher_spec_attenuation_gives_deeper_stopband() {
        let mut weak =
            FirDesign::new(FS, Db::new(40.0), Hertz::khz(100.0)).lowpass(Hertz::khz(100.0));
        let mut strong =
            FirDesign::new(FS, Db::new(90.0), Hertz::khz(100.0)).lowpass(Hertz::khz(100.0));
        let f = Hertz::khz(500.0);
        let weak_db = Db::from_linear(tone_power_through(f, &mut weak));
        let strong_db = Db::from_linear(tone_power_through(f, &mut strong));
        assert!(strong_db.value() < weak_db.value() - 30.0);
    }

    #[test]
    fn streaming_in_blocks_matches_one_shot() {
        let mut a = design().lowpass(Hertz::khz(100.0));
        let mut b = a.clone();
        let x = Nco::new(Hertz::khz(80.0), FS).block(1000);
        let whole = a.filter_block(&x);
        let mut chunked = b.filter_block(&x[..333]);
        chunked.extend(b.filter_block(&x[333..700]));
        chunked.extend(b.filter_block(&x[700..]));
        for (u, v) in whole.iter().zip(&chunked) {
            assert!((*u - *v).abs() < 1e-12);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = design().lowpass(Hertz::khz(100.0));
        f.filter_block(&Nco::new(Hertz::khz(10.0), FS).block(100));
        f.reset();
        let y = f.filter_sample(Complex::default());
        assert_eq!(y, Complex::default());
    }

    #[test]
    fn designer_produces_odd_length() {
        let f = design().lowpass(Hertz::khz(100.0));
        assert!(f.taps().len() % 2 == 1, "designer must produce odd length");
    }

    #[test]
    fn linear_phase_taps_are_symmetric() {
        let f = design().lowpass(Hertz::khz(150.0));
        let t = f.taps();
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-14);
        }
    }
}

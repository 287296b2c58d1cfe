//! Streaming frequency discovery — Eq. 5 of the paper.
//!
//! The relay must find the reader's center frequency anywhere in the
//! 902–928 MHz band before it can downconvert. Instead of a wideband
//! FFT, it runs a streaming correlator: each contiguous 1 ms chunk of
//! the incoming signal is correlated against a few candidate center
//! frequencies, sweeping the whole 50-channel FCC grid in 20 ms, and
//! the relay locks onto the argmax:
//!
//! ```text
//! f̂ = argmax_f | Σ_t x(t)·e^{−j2πft} |
//! ```
//!
//! With multiple readers in range, the strongest wins — which is also
//! the relay's interference-management rule (§4.3): once locked, the
//! baseband filters reject every other reader.

use rfly_dsp::goertzel::goertzel;
use rfly_dsp::units::{Db, Hertz};
use rfly_dsp::Complex;
use rfly_reader::config::ReaderConfig;

/// The streaming sweep state.
#[derive(Debug)]
pub struct FrequencyDiscovery {
    /// Candidate center frequencies (baseband offsets of the FCC
    /// channels relative to the relay's current tuning).
    candidates: Vec<Hertz>,
    /// Correlation power accumulated per candidate (linear).
    scores: Vec<f64>,
    /// Samples per 1 ms chunk.
    chunk_len: usize,
    /// Candidates evaluated per chunk (set so a full sweep ≈ 20 ms).
    per_chunk: usize,
    /// Next candidate index to evaluate.
    cursor: usize,
}

/// Sweep duration target, chunks (the paper: "the entire sweeping
/// operation takes 20 ms").
const SWEEP_CHUNKS: usize = 20;

impl FrequencyDiscovery {
    /// Creates a sweep over `candidates` at the relay's baseband clock
    /// ([`ReaderConfig::SAMPLE_RATE`]), processing 1 ms chunks.
    pub fn new(candidates: Vec<Hertz>) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let n = candidates.len();
        Self {
            scores: vec![0.0; n],
            candidates,
            chunk_len: rfly_dsp::cast::floor_usize(ReaderConfig::SAMPLE_RATE * 1e-3),
            per_chunk: n.div_ceil(SWEEP_CHUNKS),
            cursor: 0,
        }
    }

    /// True once every candidate has been evaluated at least once.
    pub fn complete(&self) -> bool {
        self.cursor >= self.candidates.len()
    }

    /// Feeds one 1 ms chunk; evaluates the next few candidates against
    /// it. Panics if the chunk is not exactly 1 ms of samples.
    pub fn feed(&mut self, chunk: &[Complex]) {
        assert_eq!(chunk.len(), self.chunk_len, "feed exactly 1 ms chunks");
        for _ in 0..self.per_chunk {
            if self.cursor >= self.candidates.len() {
                return;
            }
            let f = self.candidates[self.cursor];
            self.scores[self.cursor] = goertzel(chunk, f, ReaderConfig::SAMPLE_RATE).norm_sq();
            self.cursor += 1;
        }
    }

    /// Runs the whole sweep over a long capture, consuming chunks until
    /// complete. Returns the lock result.
    pub fn sweep(&mut self, samples: &[Complex]) -> Option<Lock> {
        for chunk in samples.chunks_exact(self.chunk_len) {
            if self.complete() {
                break;
            }
            self.feed(chunk);
        }
        self.lock()
    }

    /// The current best candidate (after a complete sweep): Eq. 5's
    /// argmax. `None` until the sweep completes or if nothing was heard.
    pub fn lock(&self) -> Option<Lock> {
        if !self.complete() {
            return None;
        }
        let (idx, &power) = self
            .scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        if power <= 0.0 {
            return None;
        }
        Some(Lock {
            frequency: self.candidates[idx],
            power: Db::from_linear(power),
        })
    }

    /// The sweep duration in samples (how much signal a full sweep
    /// consumes).
    pub fn sweep_len(&self) -> usize {
        self.candidates.len().div_ceil(self.per_chunk) * self.chunk_len
    }
}

/// A completed frequency lock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lock {
    /// The locked center frequency (baseband offset).
    pub frequency: Hertz,
    /// The correlation power at the lock.
    pub power: Db,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::buffer::add;
    use rfly_dsp::noise::add_awgn;
    use rfly_dsp::osc::Nco;

    const FS: f64 = ReaderConfig::SAMPLE_RATE;

    /// ±25 channels at 500 kHz spacing — a baseband view of the FCC
    /// grid around the relay's rough tuning. Only offsets within
    /// Nyquist are usable at this fs; the hardware sweeps the LO
    /// instead, which is equivalent per-chunk.
    fn grid() -> Vec<Hertz> {
        (-3..=3).map(|k| Hertz::khz(500.0 * k as f64)).collect()
    }

    #[test]
    fn locks_onto_a_clean_reader() {
        let mut fd = FrequencyDiscovery::new(grid());
        let signal = Nco::new(Hertz::khz(1000.0), FS).block(fd.sweep_len());
        let lock = fd.sweep(&signal).expect("locks");
        assert_eq!(lock.frequency, Hertz::khz(1000.0));
    }

    #[test]
    fn sweep_takes_about_20ms_of_signal() {
        let fd = FrequencyDiscovery::new((0..50).map(|k| Hertz::khz(50.0 * k as f64)).collect());
        let ms = fd.sweep_len() as f64 / FS * 1e3;
        assert!((15.0..=25.0).contains(&ms), "sweep = {ms} ms");
    }

    #[test]
    fn strongest_reader_wins() {
        // Two readers: −500 kHz at full power, +1 MHz at −10 dB.
        let mut fd = FrequencyDiscovery::new(grid());
        let n = fd.sweep_len();
        let strong = Nco::new(Hertz::khz(-500.0), FS).block(n);
        let weak: Vec<Complex> = Nco::new(Hertz::khz(1000.0), FS)
            .block(n)
            .into_iter()
            .map(|s| s * 0.316)
            .collect();
        let lock = fd.sweep(&add(&strong, &weak)).expect("locks");
        assert_eq!(lock.frequency, Hertz::khz(-500.0));
    }

    #[test]
    fn locks_under_noise() {
        let mut rng = rfly_dsp::rng::StdRng::seed_from_u64(17);
        let mut fd = FrequencyDiscovery::new(grid());
        let mut signal = Nco::new(Hertz::khz(1500.0), FS).block(fd.sweep_len());
        add_awgn(&mut rng, &mut signal, 1.0); // 0 dB SNR
        let lock = fd.sweep(&signal).expect("locks");
        assert_eq!(lock.frequency, Hertz::khz(1500.0));
    }

    #[test]
    fn incomplete_sweep_has_no_lock() {
        let mut fd = FrequencyDiscovery::new(grid());
        assert!(fd.lock().is_none());
        let chunk = Nco::new(Hertz::khz(0.0), FS).block(fd.chunk_len);
        fd.feed(&chunk);
        assert!(!fd.complete());
        assert!(fd.lock().is_none());
    }

    #[test]
    fn silence_yields_no_lock() {
        let mut fd = FrequencyDiscovery::new(grid());
        let silence = vec![Complex::default(); fd.sweep_len()];
        assert!(fd.sweep(&silence).is_none());
    }

    #[test]
    #[should_panic(expected = "1 ms chunks")]
    fn wrong_chunk_size_rejected() {
        let mut fd = FrequencyDiscovery::new(grid());
        fd.feed(&[Complex::default(); 100]);
    }
}

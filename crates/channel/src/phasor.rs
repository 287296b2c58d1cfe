//! Phasor-level channel representation — the paper's Eq. 7–10.
//!
//! A wireless channel between two points, at a single frequency, is a
//! complex number: `h(f) = Σ_i a_i · e^{−j2πf·d_i/c}` over the
//! propagation paths `i` with one-way lengths `d_i` and amplitude gains
//! `a_i`. RFly's through-relay channel is the *product* of two such
//! half-link channels (reader↔relay at `f`, relay↔tag at `f₂`) — the
//! phase entanglement of Fig. 2(b) — and the disentanglement algorithm
//! divides one measured product by another.
//!
//! Keeping paths (rather than just the summed coefficient) lets the
//! localizer's test code reason about ground truth, and lets the
//! simulator re-evaluate the same geometry at many frequencies.

use rfly_dsp::units::{Hertz, Meters};
use rfly_dsp::{Complex, SPEED_OF_LIGHT};

/// One propagation path: a one-way length and a (real, non-negative)
/// amplitude gain. Phase is derived from length and frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// One-way path length.
    pub length: Meters,
    /// Amplitude gain along the path (free-space attenuation × antenna
    /// gains × reflection losses), linear.
    pub amplitude: f64,
}

impl Path {
    /// Creates a path.
    pub fn new(length: Meters, amplitude: f64) -> Self {
        assert!(length.value() >= 0.0, "path length cannot be negative");
        assert!(amplitude >= 0.0, "amplitude gain cannot be negative");
        Self { length, amplitude }
    }

    /// The channel contribution of this path at frequency `f`, using
    /// round-trip phase convention `factor = 1` for one-way links.
    ///
    /// RFID phase measurements are round-trip (Eq. 2 uses `2d`), but the
    /// half-link channels in Eq. 8–10 are written per-direction; the
    /// paper's `2d_i` appears because each half-link is traversed twice
    /// (query out, response back). We therefore expose the *one-way*
    /// coefficient here and let callers square/pair as physics dictates.
    pub fn coefficient(&self, f: Hertz) -> Complex {
        Complex::from_polar(
            self.amplitude,
            -std::f64::consts::TAU * f.as_hz() * self.length.value() / SPEED_OF_LIGHT,
        )
    }
}

/// A set of propagation paths forming one link's channel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PathSet {
    paths: Vec<Path>,
}

impl PathSet {
    /// An empty (fully blocked) channel.
    pub fn blocked() -> Self {
        Self { paths: Vec::new() }
    }

    /// A single line-of-sight path.
    pub fn line_of_sight(length: Meters, amplitude: f64) -> Self {
        Self {
            paths: vec![Path::new(length, amplitude)],
        }
    }

    /// Builds from an explicit path list.
    pub fn from_paths(paths: Vec<Path>) -> Self {
        Self { paths }
    }

    /// Adds a path.
    pub fn push(&mut self, path: Path) {
        self.paths.push(path);
    }

    /// The constituent paths.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True if no energy propagates on this link.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The shortest (direct) path, if any. Under the paper's §5.2
    /// insight, this is the path whose implied location lies nearest the
    /// trajectory.
    pub fn direct(&self) -> Option<&Path> {
        self.paths
            .iter()
            .min_by(|a, b| a.length.value().total_cmp(&b.length.value()))
    }

    /// One-way channel coefficient at frequency `f`:
    /// `h(f) = Σ_i a_i·e^{−j2πf d_i/c}`.
    pub fn channel(&self, f: Hertz) -> Complex {
        self.paths.iter().map(|p| p.coefficient(f)).sum()
    }

    /// Round-trip channel coefficient at `f`: the link traversed out and
    /// back, i.e. the *product* of the forward and reverse one-way
    /// channels (reciprocity makes them equal):
    /// `h_rt(f) = h(f)² = (Σ_i a_i·e^{−j2πf d_i/c})²`.
    ///
    /// Note the distinction from `Σ a_i²·e^{−j2πf·2d_i/c}`: the physical
    /// round trip crosses every *pair* of paths (out on i, back on j),
    /// which is exactly the double sum the paper re-factors in Eq. 9.
    pub fn round_trip(&self, f: Hertz) -> Complex {
        let h = self.channel(f);
        h * h
    }

    /// Total received power fraction at `f` (|h|²).
    pub fn power(&self, f: Hertz) -> f64 {
        self.channel(f).norm_sq()
    }
}

/// Coherent (field) sum of same-frequency arrivals: phasors add, so
/// co-channel transmitters can interfere constructively or
/// destructively point by point.
pub fn coherent_sum(arrivals: impl IntoIterator<Item = Complex>) -> Complex {
    arrivals.into_iter().sum()
}

/// Incoherent sum of arrivals on *different* frequencies: the
/// cross-terms beat at the frequency offsets and time-average to zero,
/// so only powers add. Inputs and output are linear power fractions.
pub fn incoherent_power_sum(powers: impl IntoIterator<Item = f64>) -> f64 {
    powers
        .into_iter()
        .inspect(|p| debug_assert!(*p >= 0.0, "power cannot be negative"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Hertz = Hertz(915e6);

    #[test]
    fn single_path_phase_matches_distance() {
        let d = 3.2;
        let p = PathSet::line_of_sight(Meters::new(d), 1.0);
        let h = p.channel(F);
        let expected = -std::f64::consts::TAU * F.as_hz() * d / SPEED_OF_LIGHT;
        assert!((rfly_dsp::complex::phase_distance(h.arg(), expected)) < 1e-9);
        assert!((h.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wavelength_periodicity() {
        let lambda = F.wavelength();
        let a = PathSet::line_of_sight(Meters::new(5.0), 1.0).channel(F);
        let b = PathSet::line_of_sight(Meters::new(5.0 + lambda), 1.0).channel(F);
        assert!((a - b).abs() < 1e-6);
        let c = PathSet::line_of_sight(Meters::new(5.0 + lambda / 2.0), 1.0).channel(F);
        assert!((a + c).abs() < 1e-6, "half wavelength flips sign");
    }

    #[test]
    fn two_paths_superpose() {
        let mut ps = PathSet::blocked();
        ps.push(Path::new(Meters::new(1.0), 0.5));
        ps.push(Path::new(Meters::new(2.0), 0.25));
        let h = ps.channel(F);
        let manual = Path::new(Meters::new(1.0), 0.5).coefficient(F)
            + Path::new(Meters::new(2.0), 0.25).coefficient(F);
        assert!((h - manual).abs() < 1e-15);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn destructive_interference_creates_blind_spot() {
        // Two equal-amplitude paths differing by λ/2 cancel — the blind
        // spot phenomenon [31] cited in the paper's intro.
        let lambda = F.wavelength();
        let ps = PathSet::from_paths(vec![
            Path::new(Meters::new(4.0), 1.0),
            Path::new(Meters::new(4.0 + lambda / 2.0), 1.0),
        ]);
        assert!(ps.power(F) < 1e-10);
    }

    #[test]
    fn direct_is_shortest_even_when_weaker() {
        let ps = PathSet::from_paths(vec![
            Path::new(Meters::new(2.0), 0.1), // attenuated direct path (obstacle)
            Path::new(Meters::new(5.0), 0.8), // strong reflection
        ]);
        assert_eq!(ps.direct().unwrap().length, Meters::new(2.0));
    }

    #[test]
    fn round_trip_is_square_of_one_way() {
        let ps = PathSet::from_paths(vec![
            Path::new(Meters::new(1.5), 0.3),
            Path::new(Meters::new(2.5), 0.2),
        ]);
        let h = ps.channel(F);
        assert!((ps.round_trip(F) - h * h).abs() < 1e-15);
    }

    #[test]
    fn blocked_channel_is_zero() {
        let ps = PathSet::blocked();
        assert!(ps.is_empty());
        assert_eq!(ps.channel(F), Complex::default());
        assert!(ps.direct().is_none());
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_length_rejected() {
        let _ = Path::new(Meters::new(-1.0), 1.0);
    }

    #[test]
    fn coherent_sum_can_cancel_incoherent_cannot() {
        let lambda = F.wavelength();
        let a = PathSet::line_of_sight(Meters::new(4.0), 1.0).channel(F);
        let b = PathSet::line_of_sight(Meters::new(4.0 + lambda / 2.0), 1.0).channel(F);
        // Same frequency: field cancellation.
        assert!(coherent_sum([a, b]).norm_sq() < 1e-10);
        // Different frequencies: powers add regardless of phase.
        let p = incoherent_power_sum([a.norm_sq(), b.norm_sq()]);
        assert!((p - 2.0).abs() < 1e-9);
    }
}

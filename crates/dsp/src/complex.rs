//! Complex baseband (IQ) sample arithmetic.
//!
//! RFly's signal chain operates on complex baseband samples throughout:
//! the reader's query, the tag's backscatter response, the relay's
//! intermediate signals, and the per-read channel estimates that feed the
//! SAR localization algorithm are all values of this type. We implement a
//! minimal but complete complex type rather than pulling in an external
//! crate; every operation used anywhere in the workspace is covered here
//! and unit-tested.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number in Cartesian form, used as an IQ baseband sample.
///
/// `re` is the in-phase (I) component and `im` the quadrature (Q)
/// component. All arithmetic is `f64`: the simulation cares about phase
/// accuracy down to fractions of a degree (the paper reports a median
/// relayed phase error of 0.34°), which is far below `f32` round-off once
/// long filter convolutions are involved.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// In-phase (real) component.
    pub re: f64,
    /// Quadrature (imaginary) component.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
/// The multiplicative identity.
pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

impl Complex {
    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar form: `mag * e^{j*phase}`.
    #[inline]
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        Self {
            re: mag * phase.cos(),
            im: mag * phase.sin(),
        }
    }

    /// Creates the unit phasor `e^{j*phase}`.
    ///
    /// This is the single most common constructor in the workspace: every
    /// channel coefficient in Eq. 7–10 of the paper is a sum of unit
    /// phasors scaled by path attenuation.
    #[inline]
    pub fn cis(phase: f64) -> Self {
        Self::from_polar(1.0, phase)
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// The magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared magnitude, i.e. instantaneous power of an IQ sample.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// The multiplicative inverse. Returns NaN components for zero input.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sq();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Returns this value normalized to unit magnitude, or zero if the
    /// magnitude is zero.
    #[inline]
    pub fn normalize(self) -> Self {
        let m = self.abs();
        if m == 0.0 {
            ZERO
        } else {
            self.scale(1.0 / m)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w ≡ z·w⁻¹ by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(ZERO, |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(ZERO, |acc, x| acc + *x)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

/// Wraps a phase in radians into `(-π, π]`.
///
/// Phase wrapping appears everywhere phases are compared: the paper's
/// Fig. 10 phase-error metric, the SAR matched filter, and CFO tracking.
#[inline]
pub fn wrap_phase(phi: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut p = phi % two_pi;
    if p > std::f64::consts::PI {
        p -= two_pi;
    } else if p <= -std::f64::consts::PI {
        p += two_pi;
    }
    p
}

/// The smallest absolute angular difference between two phases, in
/// `[0, π]`.
#[inline]
pub fn phase_distance(a: f64, b: f64) -> f64 {
    wrap_phase(a - b).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    const J: Complex = Complex::new(0.0, 1.0);

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    fn cclose(a: Complex, b: Complex) -> bool {
        close(a.re, b.re) && close(a.im, b.im)
    }

    #[test]
    fn construction_and_polar_roundtrip() {
        let z = Complex::from_polar(2.0, FRAC_PI_2);
        assert!(close(z.re, 0.0));
        assert!(close(z.im, 2.0));
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), FRAC_PI_2));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..32 {
            let phi = k as f64 * TAU / 32.0 - PI;
            assert!(close(Complex::cis(phi).abs(), 1.0));
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.25, 4.0);
        assert!(cclose(a + b - b, a));
        assert!(cclose(a * b / b, a));
        assert!(cclose(a * ONE, a));
        assert!(cclose(a + ZERO, a));
        assert!(cclose(-(-a), a));
        assert!(cclose(a * J * J, -a));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex::new(3.0, 4.0);
        assert!(close((a * a.conj()).re, a.norm_sq()));
        assert!(close((a * a.conj()).im, 0.0));
        assert!(close(a.abs(), 5.0));
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert!(cclose(a / b, a * b.inv()));
        assert!(cclose(b * b.inv(), ONE));
    }

    #[test]
    fn normalize_handles_zero() {
        assert_eq!(ZERO.normalize(), ZERO);
        let z = Complex::new(0.0, -7.0).normalize();
        assert!(close(z.abs(), 1.0));
        assert!(close(z.arg(), -FRAC_PI_2));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex::new(1.0, 1.0);
        z += ONE;
        z -= J;
        z *= Complex::new(0.0, 2.0);
        z /= Complex::new(0.0, 2.0);
        z *= 2.0;
        assert!(cclose(z, Complex::new(4.0, 0.0)));
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![ONE, J, Complex::new(2.0, -3.0)];
        let s: Complex = v.iter().sum();
        assert!(cclose(s, Complex::new(3.0, -2.0)));
        let s2: Complex = v.into_iter().sum();
        assert!(cclose(s, s2));
    }

    #[test]
    fn wrap_phase_into_principal_branch() {
        assert!(close(wrap_phase(0.0), 0.0));
        assert!(close(wrap_phase(TAU + 0.1), 0.1));
        assert!(close(wrap_phase(-TAU - 0.1), -0.1));
        assert!(close(wrap_phase(PI), PI));
        assert!(close(wrap_phase(-PI), PI));
        assert!(close(wrap_phase(3.0 * PI), PI));
    }

    #[test]
    fn phase_distance_is_symmetric_and_bounded() {
        assert!(close(phase_distance(0.1, -0.1), 0.2));
        assert!(close(phase_distance(PI - 0.05, -PI + 0.05), 0.1));
        for k in 0..64 {
            let a = k as f64 * 0.37;
            let b = k as f64 * -0.91;
            let d = phase_distance(a, b);
            assert!((0.0..=PI + 1e-12).contains(&d));
            assert!(close(d, phase_distance(b, a)));
        }
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1.000000-2.000000j");
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1.000000+2.000000j");
    }
}

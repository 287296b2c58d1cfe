//! Physical units and constants.
//!
//! Link-budget mistakes are the classic failure mode of RF simulators:
//! mixing up dB (a ratio) with dBm (an absolute power), or watts with
//! milliwatts. This module gives those quantities distinct newtypes so the
//! compiler catches unit confusion, and centralizes the conversions.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Boltzmann's constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Standard noise-reference temperature, kelvin.
pub const T0_KELVIN: f64 = 290.0;

/// A frequency in hertz.
///
/// Frequencies in this workspace span nine orders of magnitude — from the
/// 40 kHz backscatter link frequency up to the 928 MHz top of the UHF ISM
/// band — so a dedicated type with readable constructors avoids the
/// `900e6`-vs-`900e3` class of typo.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(pub f64);

impl Hertz {
    /// Constructs from a value in hertz.
    pub const fn hz(v: f64) -> Self {
        Hertz(v)
    }
    /// Constructs from a value in kilohertz.
    pub const fn khz(v: f64) -> Self {
        Hertz(v * 1e3)
    }
    /// Constructs from a value in megahertz.
    pub const fn mhz(v: f64) -> Self {
        Hertz(v * 1e6)
    }
    /// The raw value in hertz.
    pub const fn as_hz(self) -> f64 {
        self.0
    }
    /// The value in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0 / 1e6
    }
    /// Free-space wavelength λ = c / f, in meters.
    pub fn wavelength(self) -> f64 {
        SPEED_OF_LIGHT / self.0
    }
}

impl Add for Hertz {
    type Output = Hertz;
    fn add(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 + rhs.0)
    }
}

impl Sub for Hertz {
    type Output = Hertz;
    fn sub(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 - rhs.0)
    }
}

impl Mul<f64> for Hertz {
    type Output = Hertz;
    fn mul(self, rhs: f64) -> Hertz {
        Hertz(self.0 * rhs)
    }
}

impl Div<f64> for Hertz {
    type Output = Hertz;
    fn div(self, rhs: f64) -> Hertz {
        Hertz(self.0 / rhs)
    }
}

impl Div for Hertz {
    type Output = f64;
    fn div(self, rhs: Hertz) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0.abs();
        if v >= 1e9 {
            write!(f, "{:.3} GHz", self.0 / 1e9)
        } else if v >= 1e6 {
            write!(f, "{:.3} MHz", self.0 / 1e6)
        } else if v >= 1e3 {
            write!(f, "{:.3} kHz", self.0 / 1e3)
        } else {
            write!(f, "{:.3} Hz", self.0)
        }
    }
}

/// A power *ratio* (gain, loss, isolation) in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

impl Db {
    /// Constructs from a decibel value.
    pub const fn new(v: f64) -> Self {
        Db(v)
    }
    /// Converts a linear power ratio to dB.
    pub fn from_linear(ratio: f64) -> Self {
        Db(10.0 * ratio.log10())
    }
    /// Converts an amplitude (voltage) ratio to dB (20·log10).
    pub fn from_amplitude(ratio: f64) -> Self {
        Db(20.0 * ratio.log10())
    }
    /// The linear power ratio.
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
    /// The linear amplitude (voltage) ratio.
    pub fn amplitude(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }
    /// The raw dB value.
    pub const fn value(self) -> f64 {
        self.0
    }
    /// The larger of two dB values.
    pub fn max(self, other: Db) -> Db {
        Db(self.0.max(other.0))
    }
    /// The smaller of two dB values.
    pub fn min(self, other: Db) -> Db {
        Db(self.0.min(other.0))
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

/// An absolute power level in dBm (decibels relative to one milliwatt).
///
/// The paper's key power numbers live here: the −15 dBm tag power-up
/// threshold \[12\], the 29 dBm power-amplifier compression point, and the
/// thermal noise floor.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dbm(pub f64);

impl Dbm {
    /// Constructs from a dBm value.
    pub const fn new(v: f64) -> Self {
        Dbm(v)
    }
    /// Converts from watts.
    pub fn from_watts(w: f64) -> Self {
        Dbm(10.0 * (w * 1e3).log10())
    }
    /// Converts from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Dbm(10.0 * mw.log10())
    }
    /// The power in watts.
    pub fn watts(self) -> f64 {
        10f64.powf(self.0 / 10.0) * 1e-3
    }
    /// The power in milliwatts.
    pub fn milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
    /// The raw dBm value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

/// A distance (or path length) in meters.
///
/// Geometry in this workspace mixes centimeter-scale antenna
/// separations with hundred-meter read ranges; a dedicated type keeps
/// those from being silently conflated with dimensionless `f64`s in
/// link-budget call sites (the R3 unit-discipline rule, DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Meters(pub f64);

impl Meters {
    /// Constructs from a value in meters.
    pub const fn new(v: f64) -> Self {
        Meters(v)
    }
    /// Constructs from a value in centimeters.
    pub const fn cm(v: f64) -> Self {
        Meters(v * 1e-2)
    }
    /// The raw value in meters.
    pub const fn value(self) -> f64 {
        self.0
    }
    /// The absolute distance.
    pub fn abs(self) -> Meters {
        Meters(self.0.abs())
    }
}

impl Add for Meters {
    type Output = Meters;
    fn add(self, rhs: Meters) -> Meters {
        Meters(self.0 + rhs.0)
    }
}

impl Sub for Meters {
    type Output = Meters;
    fn sub(self, rhs: Meters) -> Meters {
        Meters(self.0 - rhs.0)
    }
}

impl Mul<f64> for Meters {
    type Output = Meters;
    fn mul(self, rhs: f64) -> Meters {
        Meters(self.0 * rhs)
    }
}

impl Div<f64> for Meters {
    type Output = Meters;
    fn div(self, rhs: f64) -> Meters {
        Meters(self.0 / rhs)
    }
}

impl Div<Meters> for Meters {
    /// Dividing two distances yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Meters) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0.abs();
        if v >= 1e3 {
            write!(f, "{:.3} km", self.0 / 1e3)
        } else if v < 1.0 && v > 0.0 {
            write!(f, "{:.1} cm", self.0 * 1e2)
        } else {
            write!(f, "{:.2} m", self.0)
        }
    }
}

/// A duration in seconds.
///
/// Mission timelines (flight-plan segments, inventory budgets) and
/// sample-level intervals share this type so schedule arithmetic cannot
/// silently mix seconds with sample counts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

impl Seconds {
    /// Constructs from a value in seconds.
    pub const fn new(v: f64) -> Self {
        Seconds(v)
    }
    /// The raw value in seconds.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    /// Dividing two durations yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < 1.0 && self.0 != 0.0 {
            write!(f, "{:.1} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.2} s", self.0)
        }
    }
}

/// Thermal noise power `kTB` at the reference temperature, for a given
/// bandwidth. At 290 K this is the familiar −174 dBm/Hz density.
pub fn thermal_noise(bandwidth: Hertz) -> Dbm {
    Dbm::from_watts(BOLTZMANN * T0_KELVIN * bandwidth.as_hz())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn hertz_constructors_and_accessors() {
        assert_eq!(Hertz::khz(640.0).as_hz(), 640e3);
        assert_eq!(Hertz::mhz(1.0) + Hertz::khz(500.0), Hertz::khz(1500.0));
        assert_eq!(Hertz::mhz(2.0) - Hertz::mhz(0.5), Hertz::mhz(1.5));
    }

    #[test]
    fn wavelength_at_915_mhz_is_about_33_cm() {
        let lambda = Hertz::mhz(915.0).wavelength();
        assert!(close(lambda, 0.3276, 1e-3), "lambda = {lambda}");
    }

    #[test]
    fn db_roundtrips() {
        assert!(close(Db::new(30.0).linear(), 1000.0, 1e-9));
        assert!(close(Db::from_linear(100.0).value(), 20.0, 1e-12));
        assert!(close(Db::from_amplitude(10.0).value(), 20.0, 1e-12));
        assert!(close(Db::new(6.0).amplitude(), 1.9952623, 1e-6));
        assert_eq!(-(Db::new(3.0)), Db::new(-3.0));
    }

    #[test]
    fn dbm_roundtrips() {
        assert!(close(Dbm::new(0.0).milliwatts(), 1.0, 1e-12));
        assert!(close(Dbm::new(30.0).watts(), 1.0, 1e-12));
        assert!(close(Dbm::from_watts(1.0).value(), 30.0, 1e-12));
        assert!(close(Dbm::from_milliwatts(0.001).value(), -30.0, 1e-12));
    }

    #[test]
    fn dbm_db_algebra() {
        let p = Dbm::new(-15.0) + Db::new(20.0);
        assert_eq!(p, Dbm::new(5.0));
        assert_eq!(p - Db::new(5.0), Dbm::new(0.0));
        assert_eq!(Dbm::new(10.0) - Dbm::new(4.0), Db::new(6.0));
    }

    #[test]
    fn thermal_noise_floor_matches_minus_174_dbm_per_hz() {
        let n = thermal_noise(Hertz::hz(1.0));
        assert!(close(n.value(), -173.98, 0.05), "n = {n}");
        // 1 MHz bandwidth: -114 dBm.
        let n1m = thermal_noise(Hertz::mhz(1.0));
        assert!(close(n1m.value(), -113.98, 0.05), "n = {n1m}");
    }

    #[test]
    fn meters_arithmetic_and_constructors() {
        assert_eq!(Meters::cm(10.0), Meters(0.1));
        assert_eq!(Meters::new(3.0) + Meters::new(2.0), Meters(5.0));
        assert_eq!(Meters::new(3.0) - Meters::new(2.0), Meters(1.0));
        assert_eq!(Meters::new(3.0) * 2.0, Meters(6.0));
        assert_eq!(Meters::new(3.0) / 2.0, Meters(1.5));
        assert!(close(Meters::new(3.0) / Meters::new(2.0), 1.5, 1e-12));
        assert_eq!(Meters::new(-3.0).abs(), Meters(3.0));
    }

    #[test]
    fn seconds_arithmetic_and_constructors() {
        assert_eq!(Seconds::new(1.0) + Seconds::new(0.5), Seconds(1.5));
        assert_eq!(Seconds::new(1.0) - Seconds::new(0.25), Seconds(0.75));
        assert_eq!(Seconds::new(2.0) * 3.0, Seconds(6.0));
        assert_eq!(Seconds::new(3.0) / 2.0, Seconds(1.5));
        assert!(close(Seconds::new(1.0) / Seconds::new(4.0), 0.25, 1e-12));
    }

    #[test]
    fn display_picks_sensible_scale() {
        assert_eq!(format!("{}", Hertz::mhz(915.0)), "915.000 MHz");
        assert_eq!(format!("{}", Hertz::khz(640.0)), "640.000 kHz");
        assert_eq!(format!("{}", Hertz::hz(25.0)), "25.000 Hz");
        assert_eq!(format!("{}", Hertz(2.4e9)), "2.400 GHz");
        assert_eq!(format!("{}", Db::new(50.0)), "50.00 dB");
        assert_eq!(format!("{}", Dbm::new(-15.0)), "-15.00 dBm");
        assert_eq!(format!("{}", Meters::new(2.5)), "2.50 m");
        assert_eq!(format!("{}", Meters::cm(10.0)), "10.0 cm");
        assert_eq!(format!("{}", Meters(1200.0)), "1.200 km");
        assert_eq!(format!("{}", Seconds::new(2.0)), "2.00 s");
        assert_eq!(format!("{}", Seconds(0.25)), "250.0 ms");
    }
}

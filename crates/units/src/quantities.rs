//! Scalar physical quantities as `f64` newtypes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Implements the shared surface of a scalar quantity newtype: construction,
/// access, arithmetic within the unit, and scaling by dimensionless factors.
macro_rules! scalar_quantity {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw `f64` value.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            ///
            /// NaN inputs propagate as with [`f64::min`].
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`, mirroring [`f64::clamp`].
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the raw value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the sign of the value: `-1.0`, `0.0`, or `1.0`.
            #[inline]
            pub fn signum(self) -> f64 {
                if self.0 == 0.0 {
                    0.0
                } else {
                    self.0.signum()
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*}{}", prec, self.0, $suffix)
                } else {
                    write!(f, "{}{}", self.0, $suffix)
                }
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(v: $name) -> f64 {
                v.0
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

scalar_quantity!(
    /// A length in metres.
    Meters,
    " m"
);
scalar_quantity!(
    /// A time span in seconds (continuous; see [`crate::SimDuration`] for
    /// the discrete simulation clock).
    Seconds,
    " s"
);
scalar_quantity!(
    /// A time span in milliseconds, used for network-fault magnitudes.
    Millis,
    " ms"
);
scalar_quantity!(
    /// A speed in metres per second.
    MetersPerSecond,
    " m/s"
);
scalar_quantity!(
    /// An acceleration in metres per second squared.
    MetersPerSecond2,
    " m/s²"
);
scalar_quantity!(
    /// An angle in radians.
    Radians,
    " rad"
);
scalar_quantity!(
    /// An angle in degrees.
    Degrees,
    "°"
);
scalar_quantity!(
    /// A frequency in hertz.
    Hertz,
    " Hz"
);
scalar_quantity!(
    /// A dimensionless ratio in `[0, 1]` by convention (e.g. packet-loss
    /// probability, throttle position). Not clamped on construction; use
    /// [`Ratio::clamped`] when saturation is wanted.
    Ratio,
    ""
);

// --- Cross-unit arithmetic -------------------------------------------------

impl Div<MetersPerSecond> for Meters {
    type Output = Seconds;
    /// distance / speed = time (the TTC core operation).
    #[inline]
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds::new(self.get() / rhs.get())
    }
}

impl Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters::new(self.get() * rhs.get())
    }
}

impl Mul<Seconds> for MetersPerSecond2 {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond::new(self.get() * rhs.get())
    }
}

impl Div<Seconds> for MetersPerSecond {
    type Output = MetersPerSecond2;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecond2 {
        MetersPerSecond2::new(self.get() / rhs.get())
    }
}

impl Div<Seconds> for Meters {
    type Output = MetersPerSecond;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond::new(self.get() / rhs.get())
    }
}

impl Seconds {
    /// Converts to milliseconds.
    #[inline]
    pub fn to_millis(self) -> Millis {
        Millis::new(self.get() * 1e3)
    }

    /// Creates a `Seconds` from a millisecond count.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms * 1e-3)
    }
}

impl Millis {
    /// Converts to seconds.
    #[inline]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.get() * 1e-3)
    }
}

impl Radians {
    /// π as a typed angle.
    pub const PI: Radians = Radians::new(std::f64::consts::PI);

    /// Converts to degrees.
    #[inline]
    pub fn to_degrees(self) -> Degrees {
        Degrees::new(self.get().to_degrees())
    }

    /// Normalises the angle into `(-π, π]`.
    #[inline]
    pub fn normalized(self) -> Radians {
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut a = self.get() % two_pi;
        if a <= -std::f64::consts::PI {
            a += two_pi;
        } else if a > std::f64::consts::PI {
            a -= two_pi;
        }
        Radians::new(a)
    }

    /// Sine of the angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.get().sin()
    }

    /// Cosine of the angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.get().cos()
    }

    /// Tangent of the angle.
    #[inline]
    pub fn tan(self) -> f64 {
        self.get().tan()
    }
}

impl Degrees {
    /// Converts to radians.
    #[inline]
    pub fn to_radians(self) -> Radians {
        Radians::new(self.get().to_radians())
    }
}

impl Hertz {
    /// The period corresponding to this frequency.
    ///
    /// Returns `Seconds(inf)` for a zero frequency.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.get())
    }
}

impl Ratio {
    /// A ratio of exactly one.
    pub const ONE: Ratio = Ratio::new(1.0);

    /// Creates a ratio clamped into `[0, 1]`.
    #[inline]
    pub fn clamped(value: f64) -> Self {
        Ratio::new(value.clamp(0.0, 1.0))
    }

    /// Creates a ratio from a percentage (`5.0` → `0.05`).
    #[inline]
    pub fn from_percent(pct: f64) -> Self {
        Ratio::new(pct / 100.0)
    }

    /// Returns the value as a percentage (`0.05` → `5.0`).
    #[inline]
    pub fn to_percent(self) -> f64 {
        self.get() * 100.0
    }
}

impl MetersPerSecond {
    /// Creates a speed from a km/h value.
    #[inline]
    pub fn from_kmh(kmh: f64) -> Self {
        MetersPerSecond::new(kmh / 3.6)
    }

    /// Returns the speed in km/h.
    #[inline]
    pub fn to_kmh(self) -> f64 {
        self.get() * 3.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn meters_arithmetic() {
        let a = Meters::new(3.0);
        let b = Meters::new(4.0);
        assert_eq!((a + b).get(), 7.0);
        assert_eq!((b - a).get(), 1.0);
        assert_eq!((-a).get(), -3.0);
        assert_eq!((a * 2.0).get(), 6.0);
        assert_eq!((2.0 * a).get(), 6.0);
        assert_eq!((b / 2.0).get(), 2.0);
        assert_eq!(b / a, 4.0 / 3.0);
    }

    #[test]
    fn assign_ops() {
        let mut a = Meters::new(1.0);
        a += Meters::new(2.0);
        a -= Meters::new(0.5);
        a *= 4.0;
        a /= 2.0;
        assert_eq!(a.get(), 5.0);
    }

    #[test]
    fn ttc_division() {
        let gap = Meters::new(100.0);
        let v = MetersPerSecond::new(25.0);
        assert_eq!((gap / v).get(), 4.0);
    }

    #[test]
    fn kinematics_products() {
        let v = MetersPerSecond::new(10.0);
        let t = Seconds::new(3.0);
        assert_eq!((v * t).get(), 30.0);
        let a = MetersPerSecond2::new(2.0);
        assert_eq!((a * t).get(), 6.0);
        assert_eq!((v / t).get(), 10.0 / 3.0);
        assert_eq!((Meters::new(30.0) / t).get(), 10.0);
    }

    #[test]
    fn millis_seconds_roundtrip() {
        let s = Seconds::new(0.05);
        assert!((s.to_millis().get() - 50.0).abs() < 1e-12);
        assert!((Millis::new(50.0).to_seconds().get() - 0.05).abs() < 1e-12);
        assert!((Seconds::from_millis(250.0).get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn angle_normalization() {
        let a = Radians::new(3.0 * std::f64::consts::PI);
        assert!((a.normalized().get() - std::f64::consts::PI).abs() < 1e-12);
        let b = Radians::new(-3.0 * std::f64::consts::PI);
        assert!((b.normalized().get() - std::f64::consts::PI).abs() < 1e-12);
        let c = Radians::new(0.5);
        assert_eq!(c.normalized().get(), 0.5);
    }

    #[test]
    fn degree_radian_roundtrip() {
        let d = Degrees::new(180.0);
        assert!((d.to_radians().get() - std::f64::consts::PI).abs() < 1e-12);
        assert!((Radians::PI.to_degrees().get() - 180.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_percent() {
        assert_eq!(Ratio::from_percent(5.0).get(), 0.05);
        assert_eq!(Ratio::new(0.02).to_percent(), 2.0);
        assert_eq!(Ratio::clamped(1.5), Ratio::ONE);
        assert_eq!(Ratio::clamped(-0.2), Ratio::ZERO);
    }

    #[test]
    fn hertz_period() {
        assert!((Hertz::new(25.0).period().get() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn kmh_conversion() {
        assert!((MetersPerSecond::from_kmh(36.0).get() - 10.0).abs() < 1e-12);
        assert!((MetersPerSecond::new(10.0).to_kmh() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:.1}", Meters::new(1.25)), "1.2 m");
        assert_eq!(format!("{}", Millis::new(50.0)), "50 ms");
        assert_eq!(format!("{:.0}", Degrees::new(90.0)), "90°");
    }

    #[test]
    fn signum_and_abs() {
        assert_eq!(Meters::new(-2.0).abs().get(), 2.0);
        assert_eq!(Meters::new(-2.0).signum(), -1.0);
        assert_eq!(Meters::ZERO.signum(), 0.0);
        assert_eq!(Meters::new(7.0).signum(), 1.0);
    }

    #[test]
    fn min_max_clamp() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Seconds::new(5.0).clamp(a, b), b);
        assert_eq!(Seconds::new(0.0).clamp(a, b), a);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Meters = vec![Meters::new(1.0), Meters::new(2.5)].into_iter().sum();
        assert_eq!(total.get(), 3.5);
    }

    proptest! {
        #[test]
        fn normalized_angle_in_range(raw in -100.0f64..100.0) {
            let n = Radians::new(raw).normalized().get();
            prop_assert!(n > -std::f64::consts::PI - 1e-9);
            prop_assert!(n <= std::f64::consts::PI + 1e-9);
        }

        #[test]
        fn normalized_preserves_direction(raw in -50.0f64..50.0) {
            let n = Radians::new(raw).normalized().get();
            // sin/cos must be unchanged by normalisation.
            prop_assert!((n.sin() - raw.sin()).abs() < 1e-9);
            prop_assert!((n.cos() - raw.cos()).abs() < 1e-9);
        }

        #[test]
        fn ratio_clamped_in_unit_interval(raw in -10.0f64..10.0) {
            let r = Ratio::clamped(raw).get();
            prop_assert!((0.0..=1.0).contains(&r));
        }

        #[test]
        fn addition_commutes(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            prop_assert_eq!(Meters::new(a) + Meters::new(b), Meters::new(b) + Meters::new(a));
        }
    }
}

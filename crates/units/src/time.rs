//! Discrete simulation time.
//!
//! The simulation clock counts integer **microseconds** from the start of a
//! run. Integer ticks make fixed-step loops exactly reproducible: stepping
//! 20 ms five hundred times lands on exactly 10 s, with no floating-point
//! drift, which in turn makes event ordering in the network emulator and the
//! world engine deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use crate::{Millis, Seconds};

/// An instant on the simulation clock, in microseconds since run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulation time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimTime must be non-negative and finite"
        );
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// The instant as a typed [`Seconds`] quantity.
    #[inline]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.as_secs_f64())
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference: `None` if `earlier > self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Checked addition: `None` if the instant would overflow the clock.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimDuration must be non-negative and finite"
        );
        SimDuration((s * 1e6).round() as u64)
    }

    /// Creates a duration from a (non-negative, finite) [`Millis`] quantity.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    #[inline]
    pub fn from_millis_quantity(ms: Millis) -> Self {
        Self::from_secs_f64(ms.to_seconds().get())
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// The duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// The duration as a typed [`Seconds`] quantity.
    #[inline]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.as_secs_f64())
    }

    /// `true` if the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Integer number of whole `step`s contained in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[inline]
    pub fn div_steps(self, step: SimDuration) -> u64 {
        assert!(step.0 > 0, "step must be non-zero");
        self.0 / step.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`SimTime::saturating_since`] for safe differences.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds on underflow.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}µs", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{}ms", self.as_millis_f64())
        } else {
            write!(f, "{}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_millis(50).as_micros(), 50_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn fixed_step_has_no_drift() {
        let step = SimDuration::from_millis(20);
        let mut t = SimTime::ZERO;
        for _ in 0..500 {
            t += step;
        }
        assert_eq!(t, SimTime::from_secs(10));
    }

    #[test]
    fn time_differences() {
        let a = SimTime::from_millis(100);
        let b = SimTime::from_millis(150);
        assert_eq!(b - a, SimDuration::from_millis(50));
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(50));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(a.checked_since(b), None);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_millis(50)));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(30) + SimDuration::from_millis(20);
        assert_eq!(d, SimDuration::from_millis(50));
        assert_eq!(
            d - SimDuration::from_millis(10),
            SimDuration::from_millis(40)
        );
        assert_eq!(d * 2, SimDuration::from_millis(100));
        assert_eq!(d / 5, SimDuration::from_millis(10));
        assert_eq!(
            d % SimDuration::from_millis(15),
            SimDuration::from_millis(5)
        );
        assert_eq!(d.div_steps(SimDuration::from_millis(20)), 2);
    }

    #[test]
    fn millis_quantity_bridge() {
        let d = SimDuration::from_millis_quantity(Millis::new(50.0));
        assert_eq!(d, SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_millis(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_millis(3)
            ]
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", SimDuration::from_micros(10)), "10µs");
        assert_eq!(format!("{}", SimDuration::from_millis(50)), "50ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2s");
        assert_eq!(format!("{}", SimTime::from_secs(1)), "t=1.000000s");
    }

    #[test]
    fn sum_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    proptest! {
        #[test]
        fn roundtrip_secs_f64(us in 0u64..10_000_000_000) {
            let t = SimTime::from_micros(us);
            let back = SimTime::from_secs_f64(t.as_secs_f64());
            // f64 has 52 bits of mantissa; within this range the roundtrip
            // is exact to the microsecond.
            prop_assert_eq!(t, back);
        }

        #[test]
        fn add_then_since_is_identity(base in 0u64..1_000_000_000, delta in 0u64..1_000_000) {
            let t = SimTime::from_micros(base);
            let d = SimDuration::from_micros(delta);
            prop_assert_eq!((t + d).saturating_since(t), d);
        }
    }
}

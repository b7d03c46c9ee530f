//! Planar geometry: vectors and poses.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use rdsim_units::{Meters, Radians};

/// A 2-D vector in metres (world frame: x east, y north).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component (metres).
    pub x: f64,
    /// Y component (metres).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector pointing along `heading` (0 = +x, π/2 = +y).
    #[inline]
    pub fn from_heading(heading: Radians) -> Self {
        Vec2::new(heading.cos(), heading.sin())
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared length (cheaper than [`Vec2::length`]).
    #[inline]
    pub fn length_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (other - self).length()
    }

    /// Typed distance to another point.
    #[inline]
    pub fn distance_m(self, other: Vec2) -> Meters {
        Meters::new(self.distance(other))
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z component of the 3-D cross product).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// The vector rotated by `angle` counter-clockwise.
    #[inline]
    pub fn rotated(self, angle: Radians) -> Vec2 {
        let (s, c) = (angle.sin(), angle.cos());
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Unit vector in the same direction; `None` for (near-)zero vectors.
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        if len < 1e-12 {
            None
        } else {
            Some(self / len)
        }
    }

    /// The heading of this vector (`atan2(y, x)`).
    #[inline]
    pub fn heading(self) -> Radians {
        Radians::new(self.y.atan2(self.x))
    }

    /// Left-perpendicular vector (rotated +90°).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Projects this point onto the segment `[a, b]`, returning the
    /// parameter `t ∈ [0, 1]` and the projected point.
    pub fn project_onto_segment(self, a: Vec2, b: Vec2) -> (f64, Vec2) {
        let ab = b - a;
        let len2 = ab.length_squared();
        if len2 < 1e-18 {
            return (0.0, a);
        }
        let t = ((self - a).dot(ab) / len2).clamp(0.0, 1.0);
        (t, a + ab * t)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// A planar pose: position plus heading.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose2 {
    /// Position in the world frame (metres).
    pub position: Vec2,
    /// Heading angle: 0 = +x, counter-clockwise positive.
    pub heading: Radians,
}

impl Pose2 {
    /// Creates a pose.
    #[inline]
    pub const fn new(position: Vec2, heading: Radians) -> Self {
        Pose2 { position, heading }
    }

    /// The forward unit vector of this pose.
    #[inline]
    pub fn forward(self) -> Vec2 {
        Vec2::from_heading(self.heading)
    }

    /// The left unit vector of this pose.
    #[inline]
    pub fn left(self) -> Vec2 {
        self.forward().perp()
    }

    /// Transforms a point from this pose's local frame (x forward, y left)
    /// to the world frame.
    #[inline]
    pub fn local_to_world(self, local: Vec2) -> Vec2 {
        self.position + local.rotated(self.heading)
    }

    /// Transforms a world point into this pose's local frame.
    #[inline]
    pub fn world_to_local(self, world: Vec2) -> Vec2 {
        (world - self.position).rotated(-self.heading)
    }

    /// Signed heading error from this pose to face `target` (positive =
    /// target is to the left).
    pub fn heading_error_to(self, target: Vec2) -> Radians {
        let desired = (target - self.position).heading();
        (desired - self.heading).normalized()
    }
}

impl fmt::Display for Pose2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {:.1}°",
            self.position,
            self.heading.to_degrees().get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn vector_basics() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.length(), 5.0);
        assert_eq!(v.length_squared(), 25.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!(v.cross(Vec2::new(1.0, 0.0)), -4.0);
        assert_eq!(Vec2::ZERO.distance(v), 5.0);
        assert_eq!(Vec2::ZERO.distance_m(v), Meters::new(5.0));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        let mut c = a;
        c += b;
        c -= a;
        assert_eq!(c, b);
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(Radians::new(FRAC_PI_2));
        assert!((v.x - 0.0).abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn heading_roundtrip() {
        let h = Radians::new(1.1);
        let v = Vec2::from_heading(h);
        assert!((v.heading().get() - 1.1).abs() < 1e-12);
        assert!((v.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        assert_eq!(Vec2::ZERO.normalized(), None);
        let n = Vec2::new(0.0, 5.0).normalized().unwrap();
        assert!((n.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_projection() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 0.0);
        let (t, p) = Vec2::new(3.0, 4.0).project_onto_segment(a, b);
        assert!((t - 0.3).abs() < 1e-12);
        assert_eq!(p, Vec2::new(3.0, 0.0));
        // Beyond the end: clamped.
        let (t, p) = Vec2::new(15.0, 1.0).project_onto_segment(a, b);
        assert_eq!(t, 1.0);
        assert_eq!(p, b);
        // Degenerate segment.
        let (t, p) = Vec2::new(1.0, 1.0).project_onto_segment(a, a);
        assert_eq!(t, 0.0);
        assert_eq!(p, a);
    }

    #[test]
    fn pose_frames() {
        let pose = Pose2::new(Vec2::new(10.0, 5.0), Radians::new(FRAC_PI_2));
        // Local +x (forward) points along world +y.
        let w = pose.local_to_world(Vec2::new(2.0, 0.0));
        assert!((w.x - 10.0).abs() < 1e-12);
        assert!((w.y - 7.0).abs() < 1e-12);
        let l = pose.world_to_local(w);
        assert!((l.x - 2.0).abs() < 1e-12);
        assert!(l.y.abs() < 1e-12);
    }

    #[test]
    fn heading_error() {
        let pose = Pose2::new(Vec2::ZERO, Radians::new(0.0));
        let err = pose.heading_error_to(Vec2::new(0.0, 1.0));
        assert!((err.get() - FRAC_PI_2).abs() < 1e-12);
        let err = pose.heading_error_to(Vec2::new(-1.0, 0.0));
        assert!((err.get().abs() - PI).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec2::new(1.0, 2.0)).is_empty());
        assert!(!format!("{}", Pose2::default()).is_empty());
    }

    proptest! {
        #[test]
        fn rotation_preserves_length(x in -100.0f64..100.0, y in -100.0f64..100.0, a in -10.0f64..10.0) {
            let v = Vec2::new(x, y);
            let r = v.rotated(Radians::new(a));
            prop_assert!((r.length() - v.length()).abs() < 1e-9);
        }

        #[test]
        fn local_world_roundtrip(
            px in -100.0f64..100.0, py in -100.0f64..100.0,
            h in -3.0f64..3.0,
            lx in -50.0f64..50.0, ly in -50.0f64..50.0,
        ) {
            let pose = Pose2::new(Vec2::new(px, py), Radians::new(h));
            let local = Vec2::new(lx, ly);
            let back = pose.world_to_local(pose.local_to_world(local));
            prop_assert!((back - local).length() < 1e-9);
        }

        #[test]
        fn projection_point_is_on_segment(
            px in -10.0f64..10.0, py in -10.0f64..10.0,
            bx in -10.0f64..10.0, by in -10.0f64..10.0,
        ) {
            let a = Vec2::ZERO;
            let b = Vec2::new(bx, by);
            let (t, p) = Vec2::new(px, py).project_onto_segment(a, b);
            prop_assert!((0.0..=1.0).contains(&t));
            prop_assert!((p - a.lerp(b, t)).length() < 1e-9);
        }
    }
}

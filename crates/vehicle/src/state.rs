//! The kinematic state of a vehicle body.

use rdsim_math::{Pose2, Vec2};
use rdsim_units::{MetersPerSecond, MetersPerSecond2, Radians};
use std::fmt;

/// Instantaneous state of a vehicle body (at its centre of gravity).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleState {
    /// Pose of the centre of gravity.
    pub pose: Pose2,
    /// Longitudinal speed along the body axis (negative when reversing).
    pub speed: MetersPerSecond,
    /// Lateral speed in the body frame (non-zero only for the dynamic model).
    pub lateral_speed: MetersPerSecond,
    /// Yaw rate (rad/s, CCW positive).
    pub yaw_rate: f64,
    /// Longitudinal acceleration over the last step.
    pub accel: MetersPerSecond2,
    /// Current road-wheel steering angle (after actuator dynamics).
    pub steer_angle: Radians,
}

impl VehicleState {
    /// Creates a state at rest at the given pose.
    pub fn at_pose(pose: Pose2) -> Self {
        VehicleState {
            pose,
            ..VehicleState::default()
        }
    }

    /// Creates a state moving at `speed` at the given pose.
    pub fn moving(pose: Pose2, speed: MetersPerSecond) -> Self {
        VehicleState {
            pose,
            speed,
            ..VehicleState::default()
        }
    }

    /// Velocity vector in the world frame.
    pub fn velocity(&self) -> Vec2 {
        let fwd = self.pose.forward() * self.speed.get();
        let lat = self.pose.left() * self.lateral_speed.get();
        fwd + lat
    }

    /// World-frame position shortcut.
    pub fn position(&self) -> Vec2 {
        self.pose.position
    }

    /// Heading shortcut.
    pub fn heading(&self) -> Radians {
        self.pose.heading
    }

    /// Ground speed (magnitude of the velocity vector).
    pub fn ground_speed(&self) -> MetersPerSecond {
        MetersPerSecond::new(self.velocity().length())
    }

    /// `true` if effectively stopped.
    pub fn is_stationary(&self) -> bool {
        self.ground_speed().get().abs() < 1e-3
    }
}

impl fmt::Display for VehicleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} v={:.1} m/s δ={:+.1}°",
            self.pose,
            self.speed.get(),
            self.steer_angle.to_degrees().get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velocity_composition() {
        let pose = Pose2::new(Vec2::ZERO, Radians::new(std::f64::consts::FRAC_PI_2));
        let s = VehicleState {
            pose,
            speed: MetersPerSecond::new(3.0),
            lateral_speed: MetersPerSecond::new(1.0),
            ..VehicleState::default()
        };
        let v = s.velocity();
        // Forward is +y; left of +y is -x.
        assert!((v.y - 3.0).abs() < 1e-12);
        assert!((v.x + 1.0).abs() < 1e-12);
        assert!((s.ground_speed().get() - (10.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stationary_detection() {
        assert!(VehicleState::default().is_stationary());
        let moving = VehicleState::moving(Pose2::default(), MetersPerSecond::new(1.0));
        assert!(!moving.is_stationary());
    }

    #[test]
    fn constructors() {
        let pose = Pose2::new(Vec2::new(5.0, 6.0), Radians::new(0.3));
        let s = VehicleState::at_pose(pose);
        assert_eq!(s.position(), Vec2::new(5.0, 6.0));
        assert_eq!(s.heading(), Radians::new(0.3));
        assert_eq!(s.speed, MetersPerSecond::ZERO);
        assert!(!format!("{s}").is_empty());
    }
}

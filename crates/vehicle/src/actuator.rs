//! Actuator models: steering column, powertrain and brakes.

use crate::VehicleSpec;
use rdsim_units::{MetersPerSecond, MetersPerSecond2, Radians, Ratio, Seconds};

/// Steering actuator: converts a normalised steering command into a
/// road-wheel angle, limited in both magnitude and slew rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteeringActuator {
    max_angle: Radians,
    max_rate: Radians,
    angle: Radians,
}

impl SteeringActuator {
    /// Creates an actuator from a vehicle spec, centred.
    pub fn new(spec: &VehicleSpec) -> Self {
        SteeringActuator {
            max_angle: spec.max_steer(),
            max_rate: spec.max_steer_rate(),
            angle: Radians::ZERO,
        }
    }

    /// Current road-wheel angle.
    pub fn angle(&self) -> Radians {
        self.angle
    }

    /// Advances the actuator toward the normalised command (`-1..=1`,
    /// positive = left) over `dt`, and returns the new angle.
    pub fn step(&mut self, command: f64, dt: Seconds) -> Radians {
        let target = self.max_angle * command.clamp(-1.0, 1.0);
        let max_step = self.max_rate.get() * dt.get();
        let delta = (target - self.angle).get().clamp(-max_step, max_step);
        self.angle = Radians::new(self.angle.get() + delta);
        self.angle
    }

    /// Forces the actuator to an angle (clamped to the limit). Used when
    /// (re)spawning vehicles.
    pub fn reset(&mut self, angle: Radians) {
        self.angle = angle.clamp(-self.max_angle, self.max_angle);
    }
}

/// Powertrain model: converts throttle into longitudinal acceleration,
/// with drive force fading linearly to zero at top speed, plus quadratic
/// aerodynamic drag and constant rolling resistance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Powertrain {
    max_accel: MetersPerSecond2,
    top_speed: MetersPerSecond,
    /// Aerodynamic drag coefficient (per-mass, 1/m units: a = -c·v²).
    drag_per_mass: f64,
    /// Rolling-resistance deceleration while moving.
    rolling: MetersPerSecond2,
}

impl Powertrain {
    /// Creates a powertrain from a vehicle spec.
    pub fn new(spec: &VehicleSpec) -> Self {
        // Calibrate drag so that drive force balances drag near top speed.
        let v_top = spec.top_speed().get();
        let drag_per_mass = if v_top > 0.0 {
            0.3 * spec.max_accel().get() / (v_top * v_top)
        } else {
            0.0
        };
        Powertrain {
            max_accel: spec.max_accel(),
            top_speed: spec.top_speed(),
            drag_per_mass,
            rolling: MetersPerSecond2::new(0.08),
        }
    }

    /// Net longitudinal acceleration for the given throttle at `speed`
    /// (forward speeds only; callers mirror for reverse).
    pub fn acceleration(&self, throttle: Ratio, speed: MetersPerSecond) -> MetersPerSecond2 {
        let v = speed.get().abs();
        let fade = (1.0 - v / self.top_speed.get()).clamp(0.0, 1.0);
        let drive = self.max_accel.get() * throttle.get() * fade;
        let drag = self.drag_per_mass * v * v;
        let rolling = if v > 0.05 { self.rolling.get() } else { 0.0 };
        MetersPerSecond2::new(drive - drag - rolling)
    }
}

/// Brake model: converts brake-pedal position into deceleration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrakeModel {
    max_brake: MetersPerSecond2,
}

impl BrakeModel {
    /// Creates a brake model from a vehicle spec.
    pub fn new(spec: &VehicleSpec) -> Self {
        BrakeModel {
            max_brake: spec.max_brake(),
        }
    }

    /// Braking deceleration (a non-negative magnitude) for the given pedal
    /// position. The handbrake applies 60 % of peak deceleration.
    pub fn deceleration(&self, brake: Ratio, handbrake: bool) -> MetersPerSecond2 {
        let pedal = self.max_brake.get() * brake.get();
        let hand = if handbrake {
            0.6 * self.max_brake.get()
        } else {
            0.0
        };
        MetersPerSecond2::new(pedal.max(hand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> VehicleSpec {
        VehicleSpec::passenger_car()
    }

    #[test]
    fn steering_slew_limited() {
        let s = spec();
        let mut act = SteeringActuator::new(&s);
        let dt = Seconds::new(0.02);
        let angle = act.step(1.0, dt);
        let expected = s.max_steer_rate().get() * 0.02;
        assert!((angle.get() - expected).abs() < 1e-12);
        // Converges to the full-lock angle.
        for _ in 0..200 {
            act.step(1.0, dt);
        }
        assert!((act.angle().get() - s.max_steer().get()).abs() < 1e-9);
    }

    #[test]
    fn steering_command_clamped() {
        let mut act = SteeringActuator::new(&spec());
        for _ in 0..1000 {
            act.step(5.0, Seconds::new(0.02));
        }
        assert!(act.angle() <= spec().max_steer());
    }

    #[test]
    fn steering_reset_clamps() {
        let mut act = SteeringActuator::new(&spec());
        act.reset(Radians::new(10.0));
        assert_eq!(act.angle(), spec().max_steer());
        act.reset(Radians::new(-10.0));
        assert_eq!(act.angle(), -spec().max_steer());
    }

    #[test]
    fn powertrain_standstill_full_throttle() {
        let p = Powertrain::new(&spec());
        let a = p.acceleration(Ratio::ONE, MetersPerSecond::ZERO);
        assert!((a.get() - spec().max_accel().get()).abs() < 1e-9);
    }

    #[test]
    fn powertrain_fades_at_top_speed() {
        let p = Powertrain::new(&spec());
        let a = p.acceleration(Ratio::ONE, spec().top_speed());
        assert!(a.get() <= 0.0, "no net acceleration at top speed: {a}");
    }

    #[test]
    fn powertrain_coasting_decelerates() {
        let p = Powertrain::new(&spec());
        let a = p.acceleration(Ratio::ZERO, MetersPerSecond::new(20.0));
        assert!(a.get() < 0.0);
    }

    #[test]
    fn brake_model() {
        let b = BrakeModel::new(&spec());
        assert_eq!(b.deceleration(Ratio::ZERO, false).get(), 0.0);
        assert!((b.deceleration(Ratio::ONE, false).get() - spec().max_brake().get()).abs() < 1e-12);
        let hb = b.deceleration(Ratio::ZERO, true);
        assert!((hb.get() - 0.6 * spec().max_brake().get()).abs() < 1e-12);
        // Pedal stronger than handbrake wins.
        let both = b.deceleration(Ratio::ONE, true);
        assert_eq!(both.get(), spec().max_brake().get());
    }

    proptest! {
        #[test]
        fn steering_never_exceeds_limits(cmds in proptest::collection::vec(-2.0f64..2.0, 1..200)) {
            let s = spec();
            let mut act = SteeringActuator::new(&s);
            for c in cmds {
                let a = act.step(c, Seconds::new(0.02));
                prop_assert!(a.get().abs() <= s.max_steer().get() + 1e-12);
            }
        }

        #[test]
        fn powertrain_bounded(throttle in 0.0f64..1.0, v in 0.0f64..60.0) {
            let p = Powertrain::new(&spec());
            let a = p.acceleration(Ratio::new(throttle), MetersPerSecond::new(v));
            prop_assert!(a.get() <= spec().max_accel().get() + 1e-12);
        }
    }
}

//! Kinematic single-track ("bicycle") vehicle model.

use crate::{BrakeModel, ControlInput, Powertrain, SteeringActuator, VehicleSpec, VehicleState};
use rdsim_math::Vec2;
use rdsim_units::{MetersPerSecond, MetersPerSecond2, Radians, Seconds};

/// Kinematic bicycle model with actuator dynamics.
///
/// State propagates as:
///
/// ```text
/// β  = atan(l_r / L · tan δ)          (side-slip at the CG)
/// ẋ  = v · cos(ψ + β)
/// ẏ  = v · sin(ψ + β)
/// ψ̇  = v / l_r · sin β
/// v̇  = a_drive − a_brake
/// ```
///
/// where `δ` is the road-wheel angle after the steering actuator's slew
/// limit. The model is exact for zero-slip rolling and is the standard
/// choice for urban-speed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct KinematicBicycle {
    spec: VehicleSpec,
    steering: SteeringActuator,
    powertrain: Powertrain,
    brakes: BrakeModel,
}

impl KinematicBicycle {
    /// Creates a model for the given vehicle.
    pub fn new(spec: VehicleSpec) -> Self {
        let steering = SteeringActuator::new(&spec);
        let powertrain = Powertrain::new(&spec);
        let brakes = BrakeModel::new(&spec);
        KinematicBicycle {
            spec,
            steering,
            powertrain,
            brakes,
        }
    }

    /// The vehicle spec this model simulates.
    pub fn spec(&self) -> &VehicleSpec {
        &self.spec
    }

    /// Resets actuator state (e.g. when respawning).
    pub fn reset(&mut self) {
        self.steering.reset(Radians::ZERO);
    }

    /// Advances one time step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(
        &mut self,
        state: &VehicleState,
        input: &ControlInput,
        dt: Seconds,
    ) -> VehicleState {
        assert!(dt.get() > 0.0, "dt must be positive");
        let input = input.sanitized();
        let delta = self.steering.step(input.steer, dt);

        // Longitudinal dynamics.
        let v = state.speed.get();
        let drive = self.powertrain.acceleration(input.throttle, state.speed);
        let brake = self.brakes.deceleration(input.brake, input.handbrake);
        let direction = if input.reverse { -1.0 } else { 1.0 };
        // Brakes oppose motion; throttle acts in gear direction.
        let mut accel = drive.get() * direction;
        if v.abs() > 1e-6 {
            accel -= brake.get() * v.signum();
        } else if brake.get() > 0.0 {
            accel = 0.0; // brakes hold a stopped car
        }
        // Coasting losses (rolling/drag baked into powertrain) act against
        // motion; powertrain returns them relative to forward travel, so
        // mirror for reverse.
        if input.reverse && input.throttle.get() == 0.0 {
            accel = -accel;
        }
        let mut new_v = v + accel * dt.get();
        // Brakes and resistive losses never reverse the direction of motion.
        if input.throttle.get() == 0.0 && v != 0.0 && new_v * v < 0.0 {
            new_v = 0.0;
        }
        // Reverse gear has a modest speed cap.
        let cap = if input.reverse {
            self.spec.top_speed().get() * 0.2
        } else {
            self.spec.top_speed().get()
        };
        new_v = new_v.clamp(-cap, cap);

        // Lateral kinematics at the mid-step speed.
        let v_mid = 0.5 * (v + new_v);
        let lr = self.spec.cg_to_rear().get();
        let wheelbase = self.spec.wheelbase().get();
        let beta = (lr / wheelbase * delta.get().tan()).atan();
        let heading = state.pose.heading.get();
        let dx = v_mid * (heading + beta).cos() * dt.get();
        let dy = v_mid * (heading + beta).sin() * dt.get();
        let yaw_rate = v_mid / lr * beta.sin();
        let new_heading = Radians::new(heading + yaw_rate * dt.get()).normalized();

        VehicleState {
            pose: rdsim_math::Pose2::new(state.pose.position + Vec2::new(dx, dy), new_heading),
            speed: MetersPerSecond::new(new_v),
            lateral_speed: MetersPerSecond::ZERO,
            yaw_rate,
            accel: MetersPerSecond2::new((new_v - v) / dt.get()),
            steer_angle: delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdsim_math::Pose2;

    const DT: Seconds = Seconds::new(0.02);

    fn model() -> KinematicBicycle {
        KinematicBicycle::new(VehicleSpec::passenger_car())
    }

    fn run(
        model: &mut KinematicBicycle,
        state: VehicleState,
        input: ControlInput,
        steps: usize,
    ) -> VehicleState {
        let mut s = state;
        for _ in 0..steps {
            s = model.step(&s, &input, DT);
        }
        s
    }

    #[test]
    fn accelerates_straight() {
        let mut m = model();
        let s = run(
            &mut m,
            VehicleState::default(),
            ControlInput::full_throttle(),
            250,
        );
        assert!(s.speed.get() > 10.0, "speed after 5 s: {}", s.speed);
        assert!(s.pose.position.x > 30.0);
        assert!(s.pose.position.y.abs() < 1e-6);
        assert!(s.pose.heading.get().abs() < 1e-9);
    }

    #[test]
    fn brakes_to_rest_and_holds() {
        let mut m = model();
        let moving = VehicleState::moving(Pose2::default(), MetersPerSecond::new(15.0));
        let s = run(&mut m, moving, ControlInput::full_brake(), 300);
        assert!(s.is_stationary(), "still moving: {}", s.speed);
        // Remains stopped under continued braking.
        let s2 = run(&mut m, s, ControlInput::full_brake(), 50);
        assert!(s2.is_stationary());
    }

    #[test]
    fn coasting_slows_down() {
        let mut m = model();
        let moving = VehicleState::moving(Pose2::default(), MetersPerSecond::new(15.0));
        let s = run(&mut m, moving, ControlInput::COAST, 500);
        assert!(s.speed.get() < 15.0);
        assert!(s.speed.get() >= 0.0, "coasting must not reverse");
    }

    #[test]
    fn steering_curves_left() {
        let mut m = model();
        let moving = VehicleState::moving(Pose2::default(), MetersPerSecond::new(10.0));
        // One second is enough to see the turn begin without wrapping the
        // heading through a full circle.
        let s = run(&mut m, moving, ControlInput::new(0.3, 0.0, 0.5), 50);
        assert!(s.pose.heading.get() > 0.1, "heading: {}", s.pose.heading);
        assert!(s.pose.position.y > 0.1);
    }

    #[test]
    fn circle_radius_matches_theory() {
        // At steady state with steer angle δ, turn radius R = L / tan(δ)
        // (bicycle approximation, measured at the rear axle; at the CG it
        // differs by a cos β factor ≈ 1 for small δ).
        let mut m = model();
        let mut s = VehicleState::moving(Pose2::default(), MetersPerSecond::new(8.0));
        let input = ControlInput::new(0.25, 0.0, 0.4);
        // Let the actuator settle, then measure yaw rate.
        for _ in 0..500 {
            s = m.step(&s, &input, DT);
        }
        let delta = s.steer_angle.get();
        let wheelbase = m.spec().wheelbase().get();
        let lr = m.spec().cg_to_rear().get();
        let beta = (lr / wheelbase * delta.tan()).atan();
        let expected_yaw = s.speed.get() / lr * beta.sin();
        assert!(
            (s.yaw_rate - expected_yaw).abs() < 0.02,
            "yaw {} vs expected {}",
            s.yaw_rate,
            expected_yaw
        );
    }

    #[test]
    fn reverse_gear_moves_backwards() {
        let mut m = model();
        let input = ControlInput::new(0.5, 0.0, 0.0).with_reverse(true);
        let s = run(&mut m, VehicleState::default(), input, 200);
        assert!(s.speed.get() < -0.5);
        assert!(s.pose.position.x < -0.5);
        // Reverse cap: 20 % of top speed.
        let s2 = run(&mut m, s, input, 3000);
        assert!(s2.speed.get().abs() <= m.spec().top_speed().get() * 0.2 + 1e-9);
    }

    #[test]
    fn handbrake_stops_vehicle() {
        let mut m = model();
        let moving = VehicleState::moving(Pose2::default(), MetersPerSecond::new(10.0));
        let input = ControlInput::COAST.with_handbrake(true);
        let s = run(&mut m, moving, input, 300);
        assert!(s.is_stationary());
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let mut m = model();
        let _ = m.step(
            &VehicleState::default(),
            &ControlInput::COAST,
            Seconds::ZERO,
        );
    }

    #[test]
    fn reset_centres_steering() {
        let mut m = model();
        let mut s = VehicleState::moving(Pose2::default(), MetersPerSecond::new(5.0));
        for _ in 0..100 {
            s = m.step(&s, &ControlInput::new(0.0, 0.0, 1.0), DT);
        }
        assert!(s.steer_angle.get() > 0.1);
        m.reset();
        let s2 = m.step(&s, &ControlInput::COAST, DT);
        assert!(s2.steer_angle.get() < s.steer_angle.get());
    }

    proptest! {
        #[test]
        fn speed_never_exceeds_top_speed(
            throttle in 0.0f64..1.0,
            steer in -1.0f64..1.0,
            steps in 1usize..400,
        ) {
            let mut m = model();
            let mut s = VehicleState::default();
            let input = ControlInput::new(throttle, 0.0, steer);
            for _ in 0..steps {
                s = m.step(&s, &input, DT);
                prop_assert!(s.speed.get() <= m.spec().top_speed().get() + 1e-9);
                prop_assert!(s.speed.get() >= 0.0);
                prop_assert!(s.pose.position.x.is_finite());
                prop_assert!(s.pose.position.y.is_finite());
            }
        }

        #[test]
        fn braking_monotonically_slows(initial in 1.0f64..40.0) {
            let mut m = model();
            let mut s = VehicleState::moving(Pose2::default(), MetersPerSecond::new(initial));
            let mut prev = s.speed.get();
            for _ in 0..200 {
                s = m.step(&s, &ControlInput::full_brake(), DT);
                prop_assert!(s.speed.get() <= prev + 1e-9);
                prev = s.speed.get();
            }
        }
    }
}

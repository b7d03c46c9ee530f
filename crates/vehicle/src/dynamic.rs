//! Dynamic single-track model with linear tire forces.

use crate::{BrakeModel, ControlInput, Powertrain, SteeringActuator, VehicleSpec, VehicleState};
use rdsim_math::{Pose2, Vec2};
use rdsim_units::{MetersPerSecond, MetersPerSecond2, Radians, Seconds};

/// 2-DOF dynamic single-track ("bicycle") model with linear cornering
/// stiffness.
///
/// Adds lateral velocity and yaw dynamics on top of the longitudinal model
/// shared with [`crate::KinematicBicycle`]:
///
/// ```text
/// m (v̇_y + v_x ψ̇) = F_yf + F_yr
/// I_z ψ̈            = l_f F_yf − l_r F_yr
/// F_yf = −C_f α_f,   α_f = atan((v_y + l_f ψ̇) / v_x) − δ
/// F_yr = −C_r α_r,   α_r = atan((v_y − l_r ψ̇) / v_x)
/// ```
///
/// Below `V_BLEND_LOW` the model blends into kinematic behaviour because
/// slip angles are ill-conditioned at near-zero speed.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicBicycle {
    spec: VehicleSpec,
    steering: SteeringActuator,
    powertrain: Powertrain,
    brakes: BrakeModel,
}

/// Below this speed (m/s) the dynamic equations are blended out.
const V_BLEND_LOW: f64 = 1.0;
/// Above this speed the dynamic equations fully apply.
const V_BLEND_HIGH: f64 = 3.0;
/// Gravitational acceleration (m/s²).
const G: f64 = 9.81;
/// Tire–road friction coefficient used for force saturation.
const MU: f64 = 1.0;

impl DynamicBicycle {
    /// Creates a model for the given vehicle.
    pub fn new(spec: VehicleSpec) -> Self {
        let steering = SteeringActuator::new(&spec);
        let powertrain = Powertrain::new(&spec);
        let brakes = BrakeModel::new(&spec);
        DynamicBicycle {
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

    /// Resets actuator state.
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
        let delta = self.steering.step(input.steer, dt).get();

        // Longitudinal: same force model as the kinematic variant.
        let vx = state.speed.get();
        let drive = self
            .powertrain
            .acceleration(input.throttle, state.speed)
            .get();
        let brake = self.brakes.deceleration(input.brake, input.handbrake).get();
        let mut ax = drive;
        if vx.abs() > 1e-6 {
            ax -= brake * vx.signum();
        } else if brake > 0.0 {
            ax = 0.0;
        }
        let mut new_vx = vx + ax * dt.get();
        if input.throttle.get() == 0.0 && vx != 0.0 && new_vx * vx < 0.0 {
            new_vx = 0.0;
        }
        new_vx = new_vx.clamp(0.0, self.spec.top_speed().get());

        // Lateral/yaw dynamics (only meaningful while moving forward).
        let vy = state.lateral_speed.get();
        let r = state.yaw_rate;
        let m = self.spec.mass_kg();
        let iz = self.spec.yaw_inertia();
        let lf = self.spec.cg_to_front().get();
        let lr = self.spec.cg_to_rear().get();
        let cf = self.spec.cornering_stiffness_front();
        let cr = self.spec.cornering_stiffness_rear();

        let vx_safe = new_vx.max(V_BLEND_LOW);
        let alpha_f = ((vy + lf * r) / vx_safe).atan() - delta;
        let alpha_r = ((vy - lr * r) / vx_safe).atan();
        // Linear cornering stiffness saturated at the friction limit
        // (μ ≈ 1 on dry asphalt, static load distribution over the axles).
        let wheelbase = self.spec.wheelbase().get();
        let fz_front = m * G * lr / wheelbase;
        let fz_rear = m * G * lf / wheelbase;
        let fyf = (-cf * alpha_f).clamp(-MU * fz_front, MU * fz_front);
        let fyr = (-cr * alpha_r).clamp(-MU * fz_rear, MU * fz_rear);

        let vy_dot = (fyf + fyr) / m - vx_safe * r;
        let r_dot = (lf * fyf - lr * fyr) / iz;

        let mut new_vy = vy + vy_dot * dt.get();
        let mut new_r = r + r_dot * dt.get();
        // The linear single-track model is only meaningful up to moderate
        // body slip; cap |β| at 45° (a real car has spun past that point).
        new_vy = new_vy.clamp(-vx_safe, vx_safe);

        // Kinematic fallback at low speed: yaw follows the Ackermann rate,
        // lateral slip dies out.
        let w = ((new_vx - V_BLEND_LOW) / (V_BLEND_HIGH - V_BLEND_LOW)).clamp(0.0, 1.0);
        let kin_beta = (lr / self.spec.wheelbase().get() * delta.tan()).atan();
        let kin_r = new_vx / lr.max(1e-6) * kin_beta.sin();
        new_r = w * new_r + (1.0 - w) * kin_r;
        new_vy *= w;

        let heading = state.pose.heading.get();
        let dx = (new_vx * heading.cos() - new_vy * heading.sin()) * dt.get();
        let dy = (new_vx * heading.sin() + new_vy * heading.cos()) * dt.get();
        let new_heading = Radians::new(heading + new_r * dt.get()).normalized();

        VehicleState {
            pose: Pose2::new(state.pose.position + Vec2::new(dx, dy), new_heading),
            speed: MetersPerSecond::new(new_vx),
            lateral_speed: MetersPerSecond::new(new_vy),
            yaw_rate: new_r,
            accel: MetersPerSecond2::new((new_vx - vx) / dt.get()),
            steer_angle: Radians::new(delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DT: Seconds = Seconds::new(0.01);

    fn model() -> DynamicBicycle {
        DynamicBicycle::new(VehicleSpec::passenger_car())
    }

    #[test]
    fn straight_line_matches_kinematic_longitudinally() {
        let mut dynamic = model();
        let mut kinematic = crate::KinematicBicycle::new(VehicleSpec::passenger_car());
        let mut sd = VehicleState::default();
        let mut sk = VehicleState::default();
        let input = ControlInput::full_throttle();
        for _ in 0..500 {
            sd = dynamic.step(&sd, &input, DT);
            sk = kinematic.step(&sk, &input, DT);
        }
        assert!(
            (sd.speed.get() - sk.speed.get()).abs() < 0.1,
            "dynamic {} vs kinematic {}",
            sd.speed,
            sk.speed
        );
        assert!(sd.pose.position.y.abs() < 1e-6);
    }

    #[test]
    fn steady_state_cornering_yaw_rate() {
        // At moderate speed and small steering angle, the steady-state yaw
        // rate of the linear model should be close to v·δ/(L + K·v²) with
        // understeer gradient K = m(lr·Cr − lf·Cf)/(L·Cf·Cr).
        let mut m = model();
        let spec = VehicleSpec::passenger_car();
        let mut s = VehicleState::moving(Pose2::default(), MetersPerSecond::new(20.0));
        // Small steering command so the lateral acceleration stays far from
        // the friction limit, where the linear formula is valid.
        let input = ControlInput::new(0.35, 0.0, 0.03);
        for _ in 0..3000 {
            s = m.step(&s, &input, DT);
        }
        let delta = s.steer_angle.get();
        let lf = spec.cg_to_front().get();
        let lr = spec.cg_to_rear().get();
        let cf = spec.cornering_stiffness_front();
        let cr = spec.cornering_stiffness_rear();
        let wheelbase = spec.wheelbase().get();
        let k = spec.mass_kg() * (lr * cr - lf * cf) / (wheelbase * cf * cr);
        let v = s.speed.get();
        let expected = v * delta / (wheelbase + k * v * v);
        assert!(
            (s.yaw_rate - expected).abs() < 0.05 * expected.abs().max(0.01),
            "yaw {} vs expected {}",
            s.yaw_rate,
            expected
        );
    }

    #[test]
    fn low_speed_blends_to_kinematic() {
        let mut m = model();
        let mut s = VehicleState::default();
        let input = ControlInput::new(0.05, 0.0, 1.0);
        for _ in 0..300 {
            s = m.step(&s, &input, DT);
        }
        // At crawl speed the model must remain stable and turn left.
        assert!(s.speed.get() < 3.0);
        assert!(s.pose.heading.get() > 0.0);
        assert!(s.lateral_speed.get().abs() < 0.5);
    }

    #[test]
    fn brakes_stop_without_oscillation() {
        let mut m = model();
        let mut s = VehicleState::moving(Pose2::default(), MetersPerSecond::new(25.0));
        for _ in 0..1000 {
            s = m.step(&s, &ControlInput::full_brake(), DT);
        }
        assert!(s.is_stationary());
        assert!(s.lateral_speed.get().abs() < 1e-3);
    }

    proptest! {
        #[test]
        fn dynamic_model_stays_finite(
            throttle in 0.0f64..1.0,
            steer in -1.0f64..1.0,
        ) {
            let mut m = model();
            let mut s = VehicleState::moving(Pose2::default(), MetersPerSecond::new(15.0));
            let input = ControlInput::new(throttle, 0.0, steer);
            for _ in 0..500 {
                s = m.step(&s, &input, DT);
                prop_assert!(s.pose.position.x.is_finite());
                prop_assert!(s.yaw_rate.is_finite());
                // Body slip is capped at 45°: |v_y| ≤ max(v_x, blend floor).
                prop_assert!(s.lateral_speed.get().abs() <= s.speed.get().max(1.0) + 1e-9);
            }
        }
    }
}

//! Vehicle parameter sets and the built-in catalog.

use rdsim_units::{Degrees, Meters, MetersPerSecond, MetersPerSecond2, Radians};

/// Physical and actuator parameters of a vehicle.
///
/// Construct via the catalog methods ([`VehicleSpec::passenger_car`],
/// [`VehicleSpec::rc_model_car`], …) or [`VehicleSpec::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleSpec {
    name: String,
    /// Overall body length.
    length: Meters,
    /// Overall body width.
    width: Meters,
    /// Distance between front and rear axle.
    wheelbase: Meters,
    /// Vehicle mass in kilograms.
    mass_kg: f64,
    /// Maximum road-wheel steering angle.
    max_steer: Radians,
    /// Maximum road-wheel steering rate.
    max_steer_rate: Radians,
    /// Peak drive acceleration at full throttle from standstill.
    max_accel: MetersPerSecond2,
    /// Peak braking deceleration at full brake.
    max_brake: MetersPerSecond2,
    /// Top speed (drive force fades to zero here).
    top_speed: MetersPerSecond,
}

impl VehicleSpec {
    /// A mid-size passenger car, matching the ego vehicle CARLA's default
    /// blueprints use in the paper's runs.
    pub fn passenger_car() -> Self {
        VehicleSpec {
            name: "passenger-car".to_owned(),
            length: Meters::new(4.6),
            width: Meters::new(1.85),
            wheelbase: Meters::new(2.8),
            mass_kg: 1500.0,
            max_steer: Degrees::new(35.0).to_radians(),
            max_steer_rate: Degrees::new(60.0).to_radians(),
            max_accel: MetersPerSecond2::new(3.5),
            max_brake: MetersPerSecond2::new(8.0),
            top_speed: MetersPerSecond::from_kmh(180.0),
        }
    }

    /// The scaled-down remotely-operated model vehicle used for the
    /// validity comparison in §VIII of the paper. Faster steering, much
    /// lower speeds, and far more latency-sensitive handling.
    pub fn rc_model_car() -> Self {
        VehicleSpec {
            name: "rc-model-car".to_owned(),
            length: Meters::new(0.5),
            width: Meters::new(0.25),
            wheelbase: Meters::new(0.33),
            mass_kg: 3.5,
            max_steer: Degrees::new(30.0).to_radians(),
            max_steer_rate: Degrees::new(360.0).to_radians(),
            max_accel: MetersPerSecond2::new(2.5),
            max_brake: MetersPerSecond2::new(4.0),
            top_speed: MetersPerSecond::new(8.0),
        }
    }

    /// A bicycle, used for the paper's "false" cyclist road users.
    pub fn bicycle() -> Self {
        VehicleSpec {
            name: "bicycle".to_owned(),
            length: Meters::new(1.8),
            width: Meters::new(0.6),
            wheelbase: Meters::new(1.1),
            mass_kg: 90.0,
            max_steer: Degrees::new(45.0).to_radians(),
            max_steer_rate: Degrees::new(120.0).to_radians(),
            max_accel: MetersPerSecond2::new(1.2),
            max_brake: MetersPerSecond2::new(3.0),
            top_speed: MetersPerSecond::from_kmh(30.0),
        }
    }

    /// A delivery van, used as stationary obstacles in the slalom scenario.
    pub fn van() -> Self {
        VehicleSpec {
            name: "van".to_owned(),
            length: Meters::new(5.9),
            width: Meters::new(2.05),
            wheelbase: Meters::new(3.6),
            mass_kg: 2800.0,
            max_steer: Degrees::new(32.0).to_radians(),
            max_steer_rate: Degrees::new(45.0).to_radians(),
            max_accel: MetersPerSecond2::new(2.2),
            max_brake: MetersPerSecond2::new(7.0),
            top_speed: MetersPerSecond::from_kmh(140.0),
        }
    }

    /// Starts a builder initialised from the passenger car.
    pub fn builder(name: impl Into<String>) -> VehicleSpecBuilder {
        VehicleSpecBuilder {
            spec: VehicleSpec {
                name: name.into(),
                ..VehicleSpec::passenger_car()
            },
        }
    }

    /// The spec's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Overall body length.
    pub fn length(&self) -> Meters {
        self.length
    }

    /// Overall body width.
    pub fn width(&self) -> Meters {
        self.width
    }

    /// Axle-to-axle wheelbase.
    pub fn wheelbase(&self) -> Meters {
        self.wheelbase
    }

    /// Vehicle mass in kilograms.
    pub fn mass_kg(&self) -> f64 {
        self.mass_kg
    }

    /// Maximum road-wheel steering angle.
    pub fn max_steer(&self) -> Radians {
        self.max_steer
    }

    /// Maximum steering slew rate.
    pub fn max_steer_rate(&self) -> Radians {
        self.max_steer_rate
    }

    /// Peak drive acceleration.
    pub fn max_accel(&self) -> MetersPerSecond2 {
        self.max_accel
    }

    /// Peak braking deceleration (positive number).
    pub fn max_brake(&self) -> MetersPerSecond2 {
        self.max_brake
    }

    /// Top speed.
    pub fn top_speed(&self) -> MetersPerSecond {
        self.top_speed
    }

    /// Distance from the centre of gravity to the front axle (taken as
    /// half the wheelbase; the catalog vehicles are near-balanced).
    pub fn cg_to_front(&self) -> Meters {
        self.wheelbase / 2.0
    }

    /// Distance from the centre of gravity to the rear axle.
    pub fn cg_to_rear(&self) -> Meters {
        self.wheelbase / 2.0
    }
}

/// Builder for custom [`VehicleSpec`]s (ablation studies, parameter sweeps).
#[derive(Debug, Clone)]
pub struct VehicleSpecBuilder {
    spec: VehicleSpec,
}

impl VehicleSpecBuilder {
    /// Sets body length and width.
    pub fn dimensions(mut self, length: Meters, width: Meters) -> Self {
        assert!(
            length.get() > 0.0 && width.get() > 0.0,
            "dimensions must be positive"
        );
        self.spec.length = length;
        self.spec.width = width;
        self
    }

    /// Sets the wheelbase.
    pub fn wheelbase(mut self, wheelbase: Meters) -> Self {
        assert!(wheelbase.get() > 0.0, "wheelbase must be positive");
        self.spec.wheelbase = wheelbase;
        self
    }

    /// Sets the mass in kilograms.
    pub fn mass_kg(mut self, mass: f64) -> Self {
        assert!(mass > 0.0, "mass must be positive");
        self.spec.mass_kg = mass;
        self
    }

    /// Sets steering limits.
    pub fn steering(mut self, max_steer: Radians, max_rate: Radians) -> Self {
        assert!(
            max_steer.get() > 0.0 && max_rate.get() > 0.0,
            "steering limits must be positive"
        );
        self.spec.max_steer = max_steer;
        self.spec.max_steer_rate = max_rate;
        self
    }

    /// Sets longitudinal limits.
    pub fn longitudinal(
        mut self,
        max_accel: MetersPerSecond2,
        max_brake: MetersPerSecond2,
        top_speed: MetersPerSecond,
    ) -> Self {
        assert!(
            max_accel.get() > 0.0 && max_brake.get() > 0.0 && top_speed.get() > 0.0,
            "longitudinal limits must be positive"
        );
        self.spec.max_accel = max_accel;
        self.spec.max_brake = max_brake;
        self.spec.top_speed = top_speed;
        self
    }

    /// Finalises the spec.
    pub fn build(self) -> VehicleSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_specs_are_sane() {
        for spec in [
            VehicleSpec::passenger_car(),
            VehicleSpec::rc_model_car(),
            VehicleSpec::bicycle(),
            VehicleSpec::van(),
        ] {
            assert!(!spec.name().is_empty());
            assert!(spec.length().get() > 0.0);
            assert!(spec.wheelbase() < spec.length());
            assert!(spec.max_steer().get() > 0.0);
            assert!(spec.max_accel().get() > 0.0);
            assert!(spec.max_brake() >= spec.max_accel());
            assert!(spec.top_speed().get() > 0.0);
            assert!(spec.mass_kg() > 0.0);
        }
    }

    #[test]
    fn rc_car_is_smaller_and_slower() {
        let car = VehicleSpec::passenger_car();
        let rc = VehicleSpec::rc_model_car();
        assert!(rc.length() < car.length());
        assert!(rc.top_speed() < car.top_speed());
        assert!(rc.max_steer_rate() > car.max_steer_rate());
    }

    #[test]
    fn builder_overrides() {
        let spec = VehicleSpec::builder("custom")
            .dimensions(Meters::new(4.0), Meters::new(1.8))
            .wheelbase(Meters::new(2.5))
            .mass_kg(1200.0)
            .steering(Radians::new(0.5), Radians::new(1.0))
            .longitudinal(
                MetersPerSecond2::new(4.0),
                MetersPerSecond2::new(9.0),
                MetersPerSecond::new(50.0),
            )
            .build();
        assert_eq!(spec.name(), "custom");
        assert_eq!(spec.wheelbase(), Meters::new(2.5));
        assert_eq!(spec.mass_kg(), 1200.0);
        assert_eq!(spec.max_steer(), Radians::new(0.5));
        assert_eq!(spec.top_speed(), MetersPerSecond::new(50.0));
        assert_eq!(spec.cg_to_front(), Meters::new(1.25));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_zero_mass() {
        let _ = VehicleSpec::builder("bad").mass_kg(0.0);
    }
}

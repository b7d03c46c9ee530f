//! Vehicle dynamics for the `rdsim` driving simulator.
//!
//! Provides CARLA-style normalised controls ([`ControlInput`]), vehicle
//! parameter sets ([`VehicleSpec`] with a small catalog), actuator models
//! (steering slew limits, powertrain and brake forces) and the
//! integration model, [`KinematicBicycle`]: a kinematic single-track model
//! with actuator dynamics, accurate at the urban speeds of the paper's
//! scenarios and unconditionally stable at the 20 ms step the simulator
//! uses.
//!
//! # Examples
//!
//! ```
//! use rdsim_units::Seconds;
//! use rdsim_vehicle::{ControlInput, KinematicBicycle, VehicleSpec, VehicleState};
//!
//! let spec = VehicleSpec::passenger_car();
//! let mut model = KinematicBicycle::new(spec);
//! let mut state = VehicleState::default();
//! let dt = Seconds::new(0.02);
//! for _ in 0..100 {
//!     state = model.step(&state, &ControlInput::full_throttle(), dt);
//! }
//! assert!(state.speed.get() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actuator;
mod controls;
mod kinematic;
mod spec;
mod state;

pub use actuator::{BrakeModel, Powertrain, SteeringActuator};
pub use controls::ControlInput;
pub use kinematic::KinematicBicycle;
pub use spec::VehicleSpec;
pub use state::VehicleState;

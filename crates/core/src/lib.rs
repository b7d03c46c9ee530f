//! The paper's methodology as a library: a Remote Driving System (RDS)
//! architecture plus a human-in-the-loop fault-injection test engine.
//!
//! An RDS, following the paper's §III.A (and the 5GAA reference
//! architecture it cites), has a vehicle, an operator and a communication
//! network subsystem:
//!
//! * **vehicle subsystem** — here the CARLA-substitute
//!   [`rdsim_simulator::SimulatorServer`];
//! * **operator subsystem** — the driving station plus the (simulated)
//!   human driver, abstracted as the [`OperatorSubsystem`] trait so driver
//!   models, scripted operators and replay operators are interchangeable;
//! * **communication network subsystem** — a
//!   [`rdsim_netem::DuplexLink`] carrying video frames one way and driving
//!   commands the other, with a [`rdsim_netem::FaultInjector`] emulating
//!   NETEM on the loopback path (bidirectional faults, as in the paper).
//!
//! The paper's optional infrastructure subsystem (roadside sensing) is not
//! modelled: no experiment uses it.
//!
//! [`RdsSession`] wires the three together in simulated time and records a
//! [`RunLog`] with exactly the paper's §V.F logging schema. [`fault`]
//! provides the paper's fault catalog, and [`campaign`] the
//! training/golden/faulty test protocol with randomised fault schedules.
//!
//! # Examples
//!
//! ```
//! use rdsim_core::{RdsSession, RdsSessionConfig, ScriptedOperator};
//! use rdsim_roadnet::town05;
//! use rdsim_simulator::World;
//! use rdsim_units::SimDuration;
//! use rdsim_vehicle::{ControlInput, VehicleSpec};
//!
//! let mut world = World::new(town05());
//! world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
//! let mut session = RdsSession::new(world, RdsSessionConfig::default(), 1);
//! let mut operator = ScriptedOperator::constant(ControlInput::new(0.4, 0.0, 0.0));
//! session.run(&mut operator, SimDuration::from_secs(5));
//! let log = session.into_log();
//! assert!(!log.ego_samples().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod digest;
pub mod fault;
mod protocol;
mod runlog;
pub mod safety;
mod session;
mod station;

pub use campaign::{RunKind, RunRecord, ScheduledFault};
pub use digest::Digestible;
pub use fault::{FaultKind, FaultSpec, PaperFault};
pub use protocol::{
    decode_command, encode_command_into, encode_command_pooled, CommandCodecError,
    COMMAND_PACKET_BYTES,
};
pub use runlog::{EgoSample, IncidentKind, IncidentMark, LeadObservation, OtherSample, RunLog};
pub use session::{RdsSession, RdsSessionConfig, SessionStats};
pub use station::{OperatorSubsystem, ReceivedFrame, ScriptedOperator, StationSpec};

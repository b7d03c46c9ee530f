//! # rdsim — simulation-based human-in-the-loop testing of remote driving
//!
//! A full-stack reproduction of *"Evaluating the Safety Impact of Network
//! Disturbances for Remote Driving with Simulation-Based Human-in-the-Loop
//! Testing"* (Trivedi & Warg, DSN-W/VERDI 2023): a deterministic driving
//! simulator standing in for CARLA, a NETEM-style network emulator, the
//! paper's Remote Driving System architecture, simulated human
//! driver models standing in for the test subjects, the paper's road-
//! safety metric suite (TTC, SRR, collision analysis), and the experiment
//! harness that regenerates every table and figure.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`units`] | `rdsim-units` | typed quantities, simulation time |
//! | [`math`] | `rdsim-math` | geometry, filters, stats, PRNGs |
//! | [`roadnet`] | `rdsim-roadnet` | lanes, maps, projection |
//! | [`vehicle`] | `rdsim-vehicle` | kinematic bicycle model, actuators |
//! | [`netem`] | `rdsim-netem` | the network-fault emulator |
//! | [`simulator`] | `rdsim-simulator` | the CARLA-substitute world |
//! | [`core`] | `rdsim-core` | RDS architecture + HIL sessions |
//! | [`operator`] | `rdsim-operator` | simulated human drivers |
//! | [`metrics`] | `rdsim-metrics` | TTC, SRR, collision analysis |
//! | [`obs`] | `rdsim-obs` | telemetry, campaign store, confidence intervals |
//! | [`experiments`] | `rdsim-experiments` | the paper-reproduction harness |
//!
//! # Quickstart
//!
//! ```
//! use rdsim::core::{RdsSession, RdsSessionConfig};
//! use rdsim::netem::NetemConfig;
//! use rdsim::operator::{HumanDriverModel, Instruction, SubjectProfile};
//! use rdsim::roadnet::town05;
//! use rdsim::simulator::World;
//! use rdsim::units::{MetersPerSecond, SimDuration};
//! use rdsim::vehicle::VehicleSpec;
//!
//! // A world with a remotely driven ego vehicle …
//! let net = town05();
//! let lane = net.spawn_point("ego-start").unwrap().lane;
//! let mut world = World::new(net.clone());
//! world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
//!
//! // … a session that wires it to an operator through an emulated network …
//! let mut session = RdsSession::new(world, RdsSessionConfig::default(), 7);
//! let mut driver = HumanDriverModel::new(&SubjectProfile::typical("demo"), net, 7);
//! driver.set_instruction(Instruction::drive(lane, MetersPerSecond::new(10.0)));
//!
//! // … inject the paper's worst fault and drive.
//! let fault: NetemConfig = "delay 50ms".parse()?;
//! session.inject_now(fault);
//! session.run(&mut driver, SimDuration::from_secs(10));
//! let log = session.into_log();
//! assert!(!log.ego_samples().is_empty());
//! # Ok::<(), rdsim::netem::ParseRuleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rdsim_core as core;
pub use rdsim_experiments as experiments;
pub use rdsim_math as math;
pub use rdsim_metrics as metrics;
pub use rdsim_netem as netem;
pub use rdsim_obs as obs;
pub use rdsim_operator as operator;
pub use rdsim_roadnet as roadnet;
pub use rdsim_simulator as simulator;
pub use rdsim_units as units;
pub use rdsim_vehicle as vehicle;

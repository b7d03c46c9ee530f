//! A deterministic driving simulator standing in for CARLA.
//!
//! The paper uses CARLA 0.9.12 as the vehicle-subsystem plant: a server
//! renders the world and streams video to a driving station, which returns
//! steer/throttle/brake commands. For this reproduction the relevant
//! behaviour of that plant is:
//!
//! * a world advancing on a fixed step with vehicle dynamics, NPC traffic
//!   and static obstacles on a road network ([`World`]);
//! * a sensor suite — collision sensor, lane-invasion sensor, odometry —
//!   logging exactly the quantities the paper records (§V.F);
//! * a camera producing frames at 25–30 fps, each frame a serialised
//!   snapshot of the world as seen at that instant ([`CameraSensor`],
//!   [`VideoFrame`], with a checksummed binary codec so that corruption
//!   faults are detectable like they are for real video streams);
//! * a CARLA-style server facade consuming [`rdsim_vehicle::ControlInput`]
//!   commands and emitting frames ([`SimulatorServer`]).
//!
//! # Examples
//!
//! ```
//! use rdsim_roadnet::town05;
//! use rdsim_simulator::{Behavior, World};
//! use rdsim_units::SimDuration;
//! use rdsim_vehicle::{ControlInput, VehicleSpec};
//!
//! let mut world = World::new(town05());
//! let ego = world.spawn_at("ego-start", VehicleSpec::passenger_car(), Behavior::External);
//! world.set_external_control(ego, ControlInput::full_throttle());
//! for _ in 0..100 {
//!     world.step(SimDuration::from_millis(20));
//! }
//! assert!(world.actor(ego).state().speed.get() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod camera;
mod codec;
mod sensors;
mod snapshot;
mod traffic;
mod world;

pub use actor::{Actor, ActorId, ActorKind, Behavior};
pub use camera::{CameraConfig, CameraSensor, VideoFrame};
pub use codec::{
    decode_frame_into, encode_frame_into, encode_frame_pooled, frame_len, wire_checksum, CodecError,
};
pub use sensors::{obb_overlap, CollisionEvent, LaneInvasionEvent};
pub use snapshot::{ActorSnapshot, WorldSnapshot};
pub use traffic::{idm_acceleration, IdmParams, LaneFollowConfig, LaneKeeper};
pub use world::World;

mod server;
pub use server::SimulatorServer;

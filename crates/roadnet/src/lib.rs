//! Road-network model for the `rdsim` driving simulator.
//!
//! The network is a graph of **lanes**. Each lane has a centreline
//! ([`Polyline`]) with arc-length parameterisation, a width, a speed limit,
//! optional left/right neighbours (for lane changes) and successor lanes
//! (for continuing along the road). World positions can be projected onto
//! lanes to obtain `(s, lateral offset)` coordinates, which drive both the
//! lane-keeping controllers and the lane-invasion sensor.
//!
//! [`town05`] builds the test map used throughout the experiments: a
//! CARLA-Town-5-inspired layout with a multi-lane ring road, a straight
//! urban section and a curved highway stretch.
//!
//! # Examples
//!
//! ```
//! use rdsim_roadnet::town05;
//!
//! let net = town05();
//! let lane = net.lane(net.spawn_points()[0].lane);
//! assert!(lane.length().get() > 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod lane;
mod network;
mod polyline;
mod town05;

pub use builder::RoadNetworkBuilder;
pub use lane::{Lane, LaneId, LaneKind, LanePosition};
pub use network::{LaneProjection, RoadNetwork, SpawnPoint};
pub use polyline::Polyline;
pub use town05::town05;

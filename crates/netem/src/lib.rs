//! A NETEM-style network-link emulator in simulated time.
//!
//! Linux NETEM ("network emulator") is a queuing discipline of the Linux
//! traffic-control (TC) stack that injects delay, jitter, packet loss,
//! duplication, corruption, reordering and rate limits into egress traffic.
//! The paper interposes NETEM on the loopback interface between the CARLA
//! server (vehicle subsystem) and the driving station (operator subsystem),
//! so both the video feed and the command stream traverse the emulated
//! faults bidirectionally.
//!
//! This crate reproduces that model deterministically in simulated time:
//!
//! * [`NetemConfig`] — the fault configuration, with a parser for the
//!   familiar `tc` rule grammar (`"delay 50ms"`, `"loss 5%"`, …);
//! * [`NetemQdisc`] — the queuing discipline implementing the semantics;
//! * [`Link`] / [`DuplexLink`] — unidirectional / bidirectional links with
//!   delivery statistics;
//! * [`FaultInjector`] — adds and deletes rules at scheduled times and logs
//!   every injection exactly as the paper's data-logging schema requires
//!   (timestamp, fault type, value, added/deleted);
//! * [`TraceSchedule`] — a measured network time-series (JSONL/CSV) compiled
//!   into deterministic config edges the injector replays, turning the
//!   six-condition fault matrix into "any measured network".
//!
//! # Examples
//!
//! ```
//! use rdsim_netem::{Link, NetemConfig, Packet, PacketKind};
//! use rdsim_units::SimTime;
//!
//! let config: NetemConfig = "delay 50ms loss 5%".parse()?;
//! let mut link = Link::new(7);
//! link.set_config(config);
//! let t0 = SimTime::ZERO;
//! link.send(Packet::new(0, PacketKind::Command, vec![1, 2, 3]), t0);
//! // Nothing arrives before the 50 ms delay has elapsed.
//! assert!(link.receive(SimTime::from_millis(49)).is_empty());
//! # Ok::<(), rdsim_netem::ParseRuleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod injector;
mod link;
mod packet;
mod parser;
pub mod pool;
mod qdisc;
mod trace;

pub use bytes::Bytes;
pub use config::{
    DelayConfig, LossConfig, NetemConfig, RateConfig, ReorderConfig, BDP_REFERENCE_PACKET,
    MAX_DELAY, MIN_AUTO_LIMIT,
};
pub use injector::{Direction, FaultInjector, InjectionAction, InjectionEvent, InjectionWindow};
pub use link::{DuplexLink, Link, LinkStats};
pub use packet::{Packet, PacketKind};
pub use parser::ParseRuleError;
pub use pool::{BufPool, PooledBuf};
pub use qdisc::{FifoQdisc, NetemQdisc, Qdisc};
pub use trace::{TraceParseError, TraceSample, TraceSchedule};

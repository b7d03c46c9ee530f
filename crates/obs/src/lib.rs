//! # rdsim-obs — zero-dependency telemetry for the rdsim stack
//!
//! This crate provides the observability primitives used across the
//! simulator, network emulator, session engine, and campaign runner:
//!
//! * [`Counter`] / [`Gauge`] — cheap atomic scalars.
//! * [`Histogram`] — fixed-bucket base-2 logarithmic histogram with
//!   `p50 / p90 / p99 / max` read-out, mergeable across runs.
//! * [`Event`] — structured events stamped with **sim-time** (deterministic,
//!   reproducible across identical seeds) *and* **wall-time** (diagnostic).
//! * [`Registry`] — owns all instruments for one run; snapshots into a
//!   serializable [`RunTelemetry`].
//! * [`Recorder`] — the handle threaded *explicitly* through the simulation
//!   code. There is deliberately **no global/thread-local state**: a
//!   component can only record into a registry it was handed, which keeps
//!   runs deterministic and makes parallel campaign execution trivially
//!   safe. [`Recorder::null`] is the disabled variant whose operations
//!   compile down to a branch on an `Option`.
//! * [`Tracer`] / [`TraceRing`] — causal per-frame/per-command tracing: a
//!   [`TraceId`] minted at each artifact's origin, span events for every
//!   pipeline hop, and an always-on bounded overwrite-oldest flight
//!   recorder. Snapshots ([`TraceLog`]) window around incidents and
//!   export as Chrome/Perfetto `trace_event` JSON
//!   ([`TraceLog::write_chrome_json`]).
//! * [`Timeline`] — time-resolved safety/QoS windows: fixed-width
//!   sim-time buckets of integer-only aggregates (glass-to-glass latency
//!   decomposition, per-direction link counters, min gated TTC, steering
//!   reversals, fault bitmask), mergeable and deterministically
//!   serializable — the substrate of incident forensics dossiers.
//!
//! The crate depends on nothing but `std` — not even other workspace
//! crates — so every layer can use it without dependency cycles.
//!
//! ## Conventions
//!
//! * Instrument names are dot-separated paths, e.g.
//!   `"session.frame_age_us"` or `"netem.uplink.dropped"`.
//! * Histogram samples are `u64`s in the unit named by the instrument
//!   (`_us` for microseconds, `_ns` for nanoseconds, `_bytes` for sizes).
//! * Sim-time stamps are microseconds since run start (`SimTime::as_micros`
//!   in `rdsim-units`, passed as a plain `u64` to keep this crate
//!   dependency-free).

#[cfg(feature = "alloc-count")]
mod alloc_count;
mod chrome;
mod ci;
mod event;
mod hist;
mod json;
mod metrics;
mod progress;
mod recorder;
mod ring;
mod store;
mod telemetry;
mod timeline;
mod trace;

#[cfg(feature = "alloc-count")]
pub use alloc_count::{alloc_counts, AllocCounts, CountingAlloc};
pub use ci::{wilson_interval, BinomialCi, Z_95, Z_99};
pub use event::Event;
pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use json::{write_f64, write_json_string, JsonError, JsonValue, MAX_JSON_DEPTH};
pub use metrics::{Counter, Gauge};
pub use progress::{ProgressMeter, WorkerStat};
pub use recorder::{Recorder, Registry};
pub use ring::TraceRing;
pub use store::{
    to_micro, CampaignStore, CellAggregate, CellSample, RiskPoint, RunKey, RunSummary, MICRO,
};
pub use telemetry::{deterministic_instrument, RunTelemetry, FLEET_PREFIX};
pub use timeline::{Timeline, TimelineWindow, DEFAULT_WINDOW_US};
pub use trace::{
    ArtifactKind, TraceEvent, TraceId, TraceLog, TraceStage, Tracer, DEFAULT_TRACE_CAPACITY,
};

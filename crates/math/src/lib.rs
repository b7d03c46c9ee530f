//! Geometry, signal processing, statistics and deterministic randomness for
//! the `rdsim` workspace.
//!
//! This crate collects the numerical substrate shared by the driving
//! simulator, the network emulator, the operator model and the metrics
//! pipeline:
//!
//! * [`Vec2`] / [`Pose2`] — planar geometry used by the road network and the
//!   vehicle models;
//! * [`ButterworthLowPass`] — the 2nd-order low-pass filter SAE J2944
//!   prescribes before counting steering reversals;
//! * [`RunningStats`] / [`summary`] — streaming and batch statistics for the
//!   metric tables;
//! * [`SplitMix64`] / [`Xoshiro256StarStar`] / [`RngStream`] — deterministic,
//!   stream-splittable randomness so that every experiment is reproducible
//!   bit-for-bit from a single campaign seed;
//! * [`StableHasher`] — a specified, platform-independent 64-bit digest used
//!   by the determinism-equivalence harness (`run_digest()` golden files).
//!
//! # Examples
//!
//! ```
//! use rdsim_math::{RngStream, Vec2};
//!
//! let mut rng = RngStream::from_seed(42).substream("traffic");
//! let jitter = rng.normal(0.0, 1.0);
//! assert!(jitter.is_finite());
//!
//! let p = Vec2::new(3.0, 4.0);
//! assert_eq!(p.length(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod filter;
mod geometry;
mod interp;
mod rng;
mod stats;

pub use digest::{stable_digest, StableHasher};
pub use filter::ButterworthLowPass;
pub use geometry::{Pose2, Vec2};
pub use interp::{lerp, Sample};
pub use rng::{RngStream, SplitMix64, Xoshiro256StarStar};
pub use stats::{percentile_sorted, summary, RunningStats, Summary};

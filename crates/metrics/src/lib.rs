//! Road-safety metrics for remote-driving runs.
//!
//! Implements the paper's §V.G metric suite over [`rdsim_core::RunLog`]s:
//!
//! * **TTC** ([`ttc_series`], [`TtcStats`]) — time-to-collision against
//!   the lead vehicle, gated to gaps ≤ 100 m as in §VI.C, with the 6 s
//!   danger threshold of Vogel (2003);
//! * **SRR** ([`steering_reversal_rate`]) — steering-reversal rate per
//!   SAE J2944: low-pass filter, stationary points, reversals larger than
//!   a gap threshold, reported in reversals per minute;
//! * **collision analysis** ([`CollisionAnalysis`]) — golden vs faulty
//!   collision counts and attribution of each crash to the fault active
//!   when it happened (§VI.E);
//! * **windowed extraction** ([`slice_samples`], [`ttc_stats_for_fault`],
//!   [`srr_for_fault`]) — per-fault-window metric slices, which is how
//!   Tables III and IV attribute values to fault columns;
//! * **auxiliary metrics** — headway time, speed/acceleration summaries
//!   and the steering/traversal profiles behind Fig. 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collision;
mod profile;
mod srr;
mod ttc;
mod windows;

pub use collision::{CollisionAnalysis, CrashAttribution};
pub use profile::{traversal_time, SteeringProfile};
pub use srr::{steering_reversal_rate, SrrConfig, SrrResult};
pub use ttc::{headway_series, ttc_series, TtcConfig, TtcSample, TtcStats};
pub use windows::{slice_samples, srr_for_fault, ttc_stats_for_fault};

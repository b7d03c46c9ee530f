//! Time-to-collision.

use rdsim_core::RunLog;
use rdsim_math::RunningStats;
use rdsim_units::{Meters, MetersPerSecond, Seconds};

/// TTC computation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtcConfig {
    /// Only gaps at or below this distance are analysed ("only intervals
    /// with relative distance ≤ 100 m were included", §VI.C).
    pub max_gap: Meters,
    /// Closing speeds below this are treated as non-approaching (TTC
    /// undefined rather than astronomically large).
    pub min_closing: MetersPerSecond,
    /// The danger threshold: "TTC > 6 s is not considered dangerous".
    pub threshold: Seconds,
}

impl Default for TtcConfig {
    /// 100 m gap gate and 6 s threshold per the paper; closing speeds
    /// below 1 m/s are treated as "not approaching" (they only produce
    /// astronomically large TTCs; with the 100 m gate this caps observable
    /// TTC at 100 s, the same order as the paper's maxima).
    fn default() -> Self {
        TtcConfig {
            max_gap: Meters::new(100.0),
            min_closing: MetersPerSecond::new(1.0),
            threshold: Seconds::new(6.0),
        }
    }
}

/// One TTC observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtcSample {
    /// Time of the observation (seconds from run start).
    pub t: f64,
    /// TTC value.
    pub ttc: Seconds,
}

/// Aggregate TTC statistics (one Table III cell is the max/avg/min trio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtcStats {
    /// Largest TTC observed.
    pub max: Seconds,
    /// Mean TTC.
    pub avg: Seconds,
    /// Smallest TTC observed.
    pub min: Seconds,
    /// Observations with `0 < TTC < threshold` (safety violations).
    pub violations: usize,
    /// Total observations.
    pub samples: usize,
}

impl TtcStats {
    /// Computes stats from samples; `None` when no TTC was observable.
    pub fn from_samples(samples: &[TtcSample], config: &TtcConfig) -> Option<TtcStats> {
        if samples.is_empty() {
            return None;
        }
        let stats: RunningStats = samples.iter().map(|s| s.ttc.get()).collect();
        let violations = samples
            .iter()
            .filter(|s| s.ttc.get() > 0.0 && s.ttc < config.threshold)
            .count();
        Some(TtcStats {
            max: Seconds::new(stats.max().expect("non-empty")),
            avg: Seconds::new(stats.mean()),
            min: Seconds::new(stats.min().expect("non-empty")),
            violations,
            samples: samples.len(),
        })
    }

    /// `true` if any observation violated the threshold.
    pub fn violated(&self) -> bool {
        self.violations > 0
    }
}

/// Extracts the TTC time series from a run log.
///
/// For each ego sample with a lead observation whose gap is within
/// `config.max_gap` and whose closing speed exceeds `config.min_closing`:
/// `TTC = gap / closing_speed` — the §V.G.1 formula `(X_L − X_F)/(v_F −
/// v_L)` with along-lane positions.
///
/// Returns an empty vector when the log has no usable lead data (the
/// T1–T4 situation in the paper).
pub fn ttc_series(log: &RunLog, config: &TtcConfig) -> Vec<TtcSample> {
    log.ego_samples()
        .iter()
        .filter_map(|s| {
            let lead = s.lead?;
            if lead.gap > config.max_gap {
                return None;
            }
            if lead.closing_speed < config.min_closing {
                return None;
            }
            Some(TtcSample {
                t: s.t.as_secs_f64(),
                ttc: Seconds::new(lead.gap.get() / lead.closing_speed.get()),
            })
        })
        .collect()
}

/// Headway-time series (gap / ego speed), the companion metric from
/// SAE J2944 §headway; useful for the European two-second rule check.
pub fn headway_series(log: &RunLog, max_gap: Meters) -> Vec<TtcSample> {
    log.ego_samples()
        .iter()
        .filter_map(|s| {
            let lead = s.lead?;
            if lead.gap > max_gap || s.speed.get() < 0.5 {
                return None;
            }
            Some(TtcSample {
                t: s.t.as_secs_f64(),
                ttc: Seconds::new(lead.gap.get() / s.speed.get()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_core::{EgoSample, LeadObservation};
    use rdsim_math::Vec2;
    use rdsim_simulator::ActorId;
    use rdsim_units::{MetersPerSecond2, SimTime};

    fn log_with(leads: &[Option<(f64, f64)>]) -> RunLog {
        let ego: Vec<EgoSample> = leads
            .iter()
            .enumerate()
            .map(|(i, lead)| EgoSample {
                t: SimTime::from_millis(20 * i as u64),
                frame: i as u64,
                position: Vec2::new(i as f64, 0.0),
                velocity: Vec2::new(10.0, 0.0),
                speed: MetersPerSecond::new(10.0),
                accel: MetersPerSecond2::ZERO,
                throttle: 0.3,
                steer: 0.0,
                brake: 0.0,
                lead: lead.map(|(gap, closing)| LeadObservation {
                    actor: ActorId(1),
                    gap: Meters::new(gap),
                    closing_speed: MetersPerSecond::new(closing),
                }),
            })
            .collect();
        RunLog::from_parts(
            ego,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            rdsim_units::SimDuration::from_secs(1),
        )
    }

    #[test]
    fn series_gates_and_formula() {
        let log = log_with(&[
            Some((50.0, 5.0)),  // TTC 10
            Some((120.0, 5.0)), // gated: gap > 100
            Some((30.0, -2.0)), // opening: undefined
            Some((30.0, 0.05)), // below min closing
            Some((12.0, 6.0)),  // TTC 2 (violation)
            None,               // no lead
        ]);
        let config = TtcConfig::default();
        let series = ttc_series(&log, &config);
        assert_eq!(series.len(), 2);
        assert!((series[0].ttc.get() - 10.0).abs() < 1e-12);
        assert!((series[1].ttc.get() - 2.0).abs() < 1e-12);
        let stats = TtcStats::from_samples(&series, &config).unwrap();
        assert_eq!(stats.samples, 2);
        assert!((stats.max.get() - 10.0).abs() < 1e-12);
        assert!((stats.min.get() - 2.0).abs() < 1e-12);
        assert!((stats.avg.get() - 6.0).abs() < 1e-12);
        assert_eq!(stats.violations, 1);
        assert!(stats.violated());
    }

    #[test]
    fn empty_series_yields_none() {
        let log = log_with(&[None, None]);
        let config = TtcConfig::default();
        let series = ttc_series(&log, &config);
        assert!(series.is_empty());
        assert_eq!(TtcStats::from_samples(&series, &config), None);
    }

    #[test]
    fn headway() {
        let log = log_with(&[Some((20.0, 1.0)), Some((40.0, -1.0))]);
        let hw = headway_series(&log, Meters::new(100.0));
        // Headway ignores closing sign: gap / ego speed (10 m/s).
        assert_eq!(hw.len(), 2);
        assert!((hw[0].ttc.get() - 2.0).abs() < 1e-12);
        assert!((hw[1].ttc.get() - 4.0).abs() < 1e-12);
    }
}

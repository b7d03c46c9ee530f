//! Per-fault-window metric extraction — how Tables III/IV assign values
//! to fault columns.

use crate::{steering_reversal_rate, ttc_series, SrrConfig, SrrResult, TtcConfig, TtcStats};
use rdsim_core::{PaperFault, RunRecord};
use rdsim_math::Sample;
use rdsim_netem::InjectionWindow;
use rdsim_units::Seconds;

/// Restricts a time series to the union of the given windows.
pub fn slice_samples(samples: &[Sample], windows: &[InjectionWindow]) -> Vec<Sample> {
    samples
        .iter()
        .filter(|s| {
            windows.iter().any(|w| {
                let t = s.t;
                t >= w.start.as_secs_f64() && t < w.end().as_secs_f64()
            })
        })
        .copied()
        .collect()
}

/// TTC statistics restricted to the windows where `fault` was active in a
/// faulty run. Returns `None` when the fault was never injected or no TTC
/// was observable during its windows (a "-" cell in Table III).
pub fn ttc_stats_for_fault(
    record: &RunRecord,
    fault: PaperFault,
    config: &TtcConfig,
) -> Option<TtcStats> {
    let windows = record.fault_windows(fault);
    if windows.is_empty() {
        return None;
    }
    let series = ttc_series(&record.log, config);
    let in_windows: Vec<crate::TtcSample> = series
        .into_iter()
        .filter(|s| {
            windows
                .iter()
                .any(|w| s.t >= w.start.as_secs_f64() && s.t < w.end().as_secs_f64())
        })
        .collect();
    TtcStats::from_samples(&in_windows, config)
}

/// SRR restricted to the windows where `fault` was active. Returns `None`
/// for never-injected faults or unusable (redacted/too-short) signals
/// (an "x" cell in Table IV).
pub fn srr_for_fault(
    record: &RunRecord,
    fault: PaperFault,
    config: &SrrConfig,
) -> Option<SrrResult> {
    let windows = record.fault_windows(fault);
    if windows.is_empty() {
        return None;
    }
    let steering = record.log.steering_series();
    // Each window is analysed separately (they are disjoint stretches of
    // driving); reversal counts and durations then pool into one rate.
    let mut total_reversals = 0usize;
    let mut total_duration = 0.0f64;
    let mut any = false;
    for w in &windows {
        let slice = slice_samples(&steering, std::slice::from_ref(w));
        if let Some(r) = steering_reversal_rate(&slice, config) {
            total_reversals += r.reversals;
            total_duration += r.duration.get();
            any = true;
        }
    }
    if !any || total_duration <= 0.0 {
        return None;
    }
    Some(SrrResult {
        reversals: total_reversals,
        duration: Seconds::new(total_duration),
        rate_per_min: total_reversals as f64 / total_duration * 60.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_core::{EgoSample, LeadObservation, RunKind, RunLog, ScheduledFault};
    use rdsim_math::Vec2;
    use rdsim_simulator::ActorId;
    use rdsim_units::{Meters, MetersPerSecond, MetersPerSecond2, SimDuration, SimTime};

    fn window(start: u64, dur: u64) -> InjectionWindow {
        InjectionWindow::new(
            SimTime::from_secs(start),
            SimDuration::from_secs(dur),
            PaperFault::Delay25ms.config(),
        )
    }

    #[test]
    fn slicing() {
        let samples: Vec<Sample> = (0..100).map(|i| Sample::new(i as f64, i as f64)).collect();
        let sliced = slice_samples(&samples, &[window(10, 5), window(50, 2)]);
        let ts: Vec<f64> = sliced.iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![10.0, 11.0, 12.0, 13.0, 14.0, 50.0, 51.0]);
    }

    fn record_with_fault(fault: PaperFault, start: u64, dur: u64) -> RunRecord {
        // 60 s of 50 Hz ego samples: oscillating steering, constant lead.
        let ego: Vec<EgoSample> = (0..3000)
            .map(|i| {
                let t = i as f64 * 0.02;
                EgoSample {
                    t: SimTime::from_secs_f64(t),
                    frame: i as u64,
                    position: Vec2::new(t * 10.0, 0.0),
                    velocity: Vec2::new(10.0, 0.0),
                    speed: MetersPerSecond::new(10.0),
                    accel: MetersPerSecond2::ZERO,
                    throttle: 0.3,
                    steer: 0.05 * (2.0 * std::f64::consts::PI * 0.2 * t).sin(),
                    brake: 0.0,
                    lead: Some(LeadObservation {
                        actor: ActorId(1),
                        gap: Meters::new(40.0),
                        closing_speed: MetersPerSecond::new(2.0),
                    }),
                }
            })
            .collect();
        let log = RunLog::from_parts(
            ego,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            SimDuration::from_secs(60),
        );
        RunRecord::new(
            "T5",
            RunKind::Faulty,
            log,
            vec![ScheduledFault {
                fault,
                window: InjectionWindow::new(
                    SimTime::from_secs(start),
                    SimDuration::from_secs(dur),
                    fault.config(),
                ),
            }],
        )
    }

    #[test]
    fn ttc_per_fault() {
        let rec = record_with_fault(PaperFault::Loss5Pct, 10, 10);
        let cfg = TtcConfig::default();
        let stats = ttc_stats_for_fault(&rec, PaperFault::Loss5Pct, &cfg).unwrap();
        // TTC = 40/2 = 20 s throughout the window.
        assert!((stats.avg.get() - 20.0).abs() < 1e-9);
        // Never-injected fault: None.
        assert!(ttc_stats_for_fault(&rec, PaperFault::Delay5ms, &cfg).is_none());
    }

    #[test]
    fn srr_per_fault() {
        let rec = record_with_fault(PaperFault::Delay50ms, 10, 20);
        let cfg = SrrConfig::default();
        let r = srr_for_fault(&rec, PaperFault::Delay50ms, &cfg).unwrap();
        // 0.2 Hz sine ⇒ ≈ 24 reversals/min.
        assert!(
            (18.0..30.0).contains(&r.rate_per_min),
            "rate {}",
            r.rate_per_min
        );
        assert!(srr_for_fault(&rec, PaperFault::Loss2Pct, &cfg).is_none());
    }

    #[test]
    fn srr_redacted_is_none() {
        let mut rec = record_with_fault(PaperFault::Delay50ms, 10, 20);
        rec.log.redact_steering();
        assert!(srr_for_fault(&rec, PaperFault::Delay50ms, &SrrConfig::default()).is_none());
    }
}

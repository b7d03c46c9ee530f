//! Steering profiles and traversal timing — the data behind Fig. 4.

use rdsim_core::RunLog;
use rdsim_math::Sample;
use rdsim_units::Seconds;

/// A steering profile: the time series plus scenario timing marks,
/// suitable for plotting golden vs faulty runs side by side (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringProfile {
    /// Run label ("golden run" / "faulty run").
    pub label: String,
    /// The steering time series.
    pub series: Vec<Sample>,
    /// Time taken to traverse the scenario section, if both marks were
    /// crossed.
    pub traversal: Option<Seconds>,
}

impl SteeringProfile {
    /// Extracts a profile from a run log, with traversal measured between
    /// the longitudinal positions `x_from` and `x_to` (the Fig. 4 circles
    /// mark a lane-change section of the map).
    pub fn extract(label: impl Into<String>, log: &RunLog, x_from: f64, x_to: f64) -> Self {
        SteeringProfile {
            label: label.into(),
            series: log.steering_series(),
            traversal: traversal_time(log, x_from, x_to),
        }
    }

    /// Root-mean-square steering magnitude — a scalar summary of how much
    /// wheel work the section needed.
    pub fn rms(&self) -> f64 {
        if self.series.is_empty() {
            return 0.0;
        }
        (self.series.iter().map(|s| s.value * s.value).sum::<f64>() / self.series.len() as f64)
            .sqrt()
    }

    /// Renders a compact ASCII sparkline of the steering signal (for the
    /// `repro fig4` output).
    pub fn sparkline(&self, width: usize) -> String {
        if self.series.is_empty() || width == 0 {
            return String::new();
        }
        const GLYPHS: [char; 7] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇'];
        let max = self
            .series
            .iter()
            .map(|s| s.value.abs())
            .fold(1e-6, f64::max);
        let stride = (self.series.len() / width).max(1);
        self.series
            .chunks(stride)
            .take(width)
            .map(|chunk| {
                let v = chunk.iter().map(|s| s.value).sum::<f64>() / chunk.len() as f64;
                let norm = ((v / max) + 1.0) / 2.0; // [-max, max] → [0, 1]
                GLYPHS[((norm * (GLYPHS.len() - 1) as f64).round() as usize).min(GLYPHS.len() - 1)]
            })
            .collect()
    }
}

/// Time between the first crossing of `x_from` and the first subsequent
/// crossing of `x_to` in the ego trajectory; `None` if either mark is
/// never crossed. Used for the "19 s golden vs 33 s faulty" observation.
pub fn traversal_time(log: &RunLog, x_from: f64, x_to: f64) -> Option<Seconds> {
    let mut entered: Option<f64> = None;
    for s in log.ego_samples() {
        let x = s.position.x;
        match entered {
            None => {
                if x >= x_from {
                    entered = Some(s.t.as_secs_f64());
                }
            }
            Some(t0) => {
                if x >= x_to {
                    return Some(Seconds::new(s.t.as_secs_f64() - t0));
                }
                let _ = t0;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_core::EgoSample;
    use rdsim_math::Vec2;
    use rdsim_units::{MetersPerSecond, MetersPerSecond2, SimDuration, SimTime};

    fn log_with_trajectory(xs: &[f64]) -> RunLog {
        let ego: Vec<EgoSample> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| EgoSample {
                t: SimTime::from_secs(i as u64),
                frame: i as u64,
                position: Vec2::new(x, 0.0),
                velocity: Vec2::new(1.0, 0.0),
                speed: MetersPerSecond::new(1.0),
                accel: MetersPerSecond2::ZERO,
                throttle: 0.2,
                steer: 0.01 * i as f64,
                brake: 0.0,
                lead: None,
            })
            .collect();
        RunLog::from_parts(
            ego,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            SimDuration::from_secs(xs.len() as u64),
        )
    }

    #[test]
    fn traversal_timing() {
        // Crosses x=10 at t=2 and x=30 at t=6.
        let log = log_with_trajectory(&[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0]);
        let t = traversal_time(&log, 10.0, 30.0).unwrap();
        assert_eq!(t, Seconds::new(4.0));
        // Never reaches x=100.
        assert!(traversal_time(&log, 10.0, 100.0).is_none());
        // Never reaches the start mark.
        assert!(traversal_time(&log, 50.0, 100.0).is_none());
    }

    #[test]
    fn profile_extraction() {
        let log = log_with_trajectory(&[0.0, 10.0, 20.0, 30.0]);
        let p = SteeringProfile::extract("golden run", &log, 5.0, 25.0);
        assert_eq!(p.label, "golden run");
        assert_eq!(p.series.len(), 4);
        assert_eq!(p.traversal, Some(Seconds::new(2.0)));
        assert!(p.rms() > 0.0);
    }

    #[test]
    fn sparkline_renders() {
        let log = log_with_trajectory(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0]);
        let p = SteeringProfile::extract("x", &log, 0.0, 50.0);
        let line = p.sparkline(5);
        assert_eq!(line.chars().count(), 5);
        assert!(p.sparkline(0).is_empty());
        let empty = SteeringProfile {
            label: "e".into(),
            series: vec![],
            traversal: None,
        };
        assert!(empty.sparkline(10).is_empty());
        assert_eq!(empty.rms(), 0.0);
    }
}

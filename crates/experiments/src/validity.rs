//! §VIII validity experiments: fault sweeps on the simulator plant and on
//! the remotely operated model vehicle.
//!
//! The paper reports, for the CARLA rig: delays > 100 ms made it
//! difficult to drive and > 200 ms stopped the simulator responding;
//! 1 % packet loss had no significant effect while 10 % made driving very
//! difficult. For the model vehicle: delays > 20 ms degraded driving and
//! > 100 ms made it impossible; 7 % loss had a conscious impact and 10 %
//! > made it impossible. These sweeps regenerate those dose–response
//! > curves.

use crate::{execute_ordered, run_protocol, ScenarioConfig};
use rdsim_core::RunKind;
use rdsim_netem::NetemConfig;
use rdsim_operator::SubjectProfile;
use rdsim_roadnet::town05;
use rdsim_units::{MetersPerSecond, Millis, Ratio, SimDuration};
use rdsim_vehicle::VehicleSpec;
use std::fmt;

/// Qualitative drivability verdict for one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Drivability {
    /// No noticeable effect.
    Fine,
    /// Noticeably degraded but controllable.
    Degraded,
    /// Very difficult to drive.
    Difficult,
    /// Impossible / vehicle effectively uncontrollable.
    Impossible,
}

impl fmt::Display for Drivability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Drivability::Fine => "fine",
            Drivability::Degraded => "degraded",
            Drivability::Difficult => "difficult",
            Drivability::Impossible => "impossible",
        })
    }
}

/// One sweep measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Condition label ("delay 100ms", "loss 10%").
    pub label: String,
    /// Mean absolute lateral deviation while moving (m).
    pub mean_lateral: f64,
    /// Worst lateral deviation (m).
    pub worst_lateral: f64,
    /// Whether the run crashed.
    pub collided: bool,
    /// Fraction of the course completed within the time budget.
    pub completion: f64,
    /// The verdict.
    pub verdict: Drivability,
}

/// A full sweep over one plant.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Plant description.
    pub plant: String,
    /// Delay sweep points, ascending.
    pub delays: Vec<SweepPoint>,
    /// Loss sweep points, ascending.
    pub losses: Vec<SweepPoint>,
}

impl SweepReport {
    /// The smallest delay classified `at_least` as bad, if any.
    pub fn delay_threshold(&self, at_least: Drivability) -> Option<&SweepPoint> {
        self.delays.iter().find(|p| p.verdict >= at_least)
    }

    /// The smallest loss classified `at_least` as bad, if any.
    pub fn loss_threshold(&self, at_least: Drivability) -> Option<&SweepPoint> {
        self.losses.iter().find(|p| p.verdict >= at_least)
    }
}

/// Classifies a point against the plant's own fault-free baseline: the
/// wobble *ratio* is what generalises across plants of different size and
/// speed, while collisions and failure to finish are absolute signals.
fn classify(
    mean_lat: f64,
    worst_lat: f64,
    collided: bool,
    completion: f64,
    baseline_mean: f64,
    tight_margins: bool,
) -> Drivability {
    let ratio = mean_lat / baseline_mean.max(0.02);
    // The model vehicle drove a small indoor track whose margins are
    // proportionally much tighter than the town05 lanes; the same wobble
    // ratio therefore reads one to two severity notches worse.
    let (degraded, difficult, impossible) = if tight_margins {
        (1.2, 1.9, 3.5)
    } else {
        (2.0, 5.0, 12.0)
    };
    if completion < 0.6 || worst_lat > 8.0 || (collided && completion < 0.9) || ratio > impossible {
        Drivability::Impossible
    } else if ratio > difficult || worst_lat > 3.5 || collided {
        Drivability::Difficult
    } else if ratio > degraded || worst_lat > 2.2 {
        Drivability::Degraded
    } else {
        Drivability::Fine
    }
}

/// Raw measurement before baseline-relative classification.
#[derive(Debug)]
struct RawPoint {
    tight_margins: bool,
    label: String,
    mean_lateral: f64,
    worst_lateral: f64,
    collided: bool,
    completion: f64,
}

impl RawPoint {
    fn into_point(self, baseline_mean: f64) -> SweepPoint {
        let verdict = classify(
            self.mean_lateral,
            self.worst_lateral,
            self.collided,
            self.completion,
            baseline_mean,
            self.tight_margins,
        );
        SweepPoint {
            label: self.label,
            mean_lateral: self.mean_lateral,
            worst_lateral: self.worst_lateral,
            collided: self.collided,
            completion: self.completion,
            verdict,
        }
    }
}

fn measure(label: String, config: &ScenarioConfig, seed: u64) -> RawPoint {
    let profile = SubjectProfile::typical("validity");
    let out = run_protocol(&profile, RunKind::Golden, seed, config);
    let net = town05();
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut worst: f64 = 0.0;
    for s in out.record.log.ego_samples() {
        if s.speed.get() < 1.0 {
            continue; // standstill start/end
        }
        if let Some(proj) = net.project(s.position) {
            let lat = proj.lateral.get().abs();
            sum += lat;
            n += 1;
            worst = worst.max(lat);
        }
    }
    let mean = if n > 0 { sum / n as f64 } else { 0.0 };
    let target = config
        .progress_target
        .unwrap_or(config.laps as f64 * 2000.0);
    let completion = (out.progress / target).clamp(0.0, 1.0);
    let collided = out.record.log.collided();
    RawPoint {
        tight_margins: config.vehicle.length().get() < 2.0,
        label,
        mean_lateral: mean,
        worst_lateral: worst,
        collided,
        completion,
    }
}

fn sweep_config(base: &ScenarioConfig, fault: Option<NetemConfig>) -> ScenarioConfig {
    ScenarioConfig {
        ambient_fault: fault,
        ..base.clone()
    }
}

/// E8: the simulator-plant sweep (passenger car on the town05 course),
/// its points run on `jobs` worker threads.
pub fn validity_sweep(seed: u64, jobs: usize) -> SweepReport {
    let base = ScenarioConfig {
        laps: 1,
        progress_target: Some(560.0),
        max_duration: SimDuration::from_secs(180),
        ..ScenarioConfig::default()
    };
    let delays = [0.0, 5.0, 25.0, 50.0, 100.0, 150.0, 200.0, 250.0];
    let losses = [1.0, 2.0, 5.0, 7.0, 10.0, 12.0];
    build_report(
        "simulator (passenger car)",
        &base,
        &delays,
        &losses,
        seed,
        jobs,
    )
}

/// E9: the model-vehicle sweep (RC car plant; §VIII's scaled prototype),
/// its points run on `jobs` worker threads.
pub fn model_vehicle_sweep(seed: u64, jobs: usize) -> SweepReport {
    let base = ScenarioConfig {
        laps: 1,
        progress_target: Some(200.0),
        urban_speed: MetersPerSecond::new(4.5),
        highway_speed: MetersPerSecond::new(5.0),
        lead_speed: MetersPerSecond::new(3.2),
        max_duration: SimDuration::from_secs(180),
        vehicle: VehicleSpec::rc_model_car(),
        // The operators had essentially no practice with the scaled
        // prototype: their efference-copy compensation of dead time is
        // poor, which is what makes the model vehicle so much more
        // latency-sensitive than the simulator rig (§VIII).
        driver_extrapolation: Some(0.25),
        ..ScenarioConfig::default()
    };
    let delays = [0.0, 10.0, 20.0, 50.0, 100.0, 150.0];
    let losses = [2.0, 5.0, 7.0, 10.0];
    build_report(
        "model vehicle (RC car)",
        &base,
        &delays,
        &losses,
        seed,
        jobs,
    )
}

/// Runs the delay and loss points as one job list on `jobs` workers. A
/// point's seed is `seed ^ (i << 8)`, with `i` its index in its own sweep,
/// so the report is the same for every worker count.
fn build_report(
    plant: &str,
    base: &ScenarioConfig,
    delays: &[f64],
    losses: &[f64],
    seed: u64,
    jobs: usize,
) -> SweepReport {
    let delay_points = delays.iter().enumerate().map(|(i, &ms)| {
        let fault = (ms > 0.0).then(|| NetemConfig::default().with_delay(Millis::new(ms)));
        (format!("delay {ms:.0}ms"), fault, i)
    });
    let loss_points = losses.iter().enumerate().map(|(i, &pct)| {
        let fault = NetemConfig::default().with_loss(Ratio::from_percent(pct));
        (format!("loss {pct:.0}%"), Some(fault), i)
    });
    let mut delay_raw = execute_ordered(
        delay_points.chain(loss_points).collect(),
        jobs,
        1,
        |chunk| {
            chunk
                .into_iter()
                .map(|(label, fault, i)| {
                    measure(label, &sweep_config(base, fault), seed ^ ((i as u64) << 8))
                })
                .collect()
        },
        |_| {},
    );
    let loss_raw = delay_raw.split_off(delays.len());
    // The fault-free point (delay 0) is the plant's baseline: verdicts
    // compare every condition against how this plant drives undisturbed.
    let baseline_mean = delay_raw
        .first()
        .map(|p| p.mean_lateral)
        .unwrap_or(0.15)
        .max(0.02);
    SweepReport {
        plant: plant.to_owned(),
        delays: delay_raw
            .into_iter()
            .map(|p| p.into_point(baseline_mean))
            .collect(),
        losses: loss_raw
            .into_iter()
            .map(|p| p.into_point(baseline_mean))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_ordering() {
        const BASE: f64 = 0.12;
        assert_eq!(
            classify(0.13, 0.5, false, 1.0, BASE, false),
            Drivability::Fine
        );
        assert_eq!(
            classify(0.30, 1.0, false, 1.0, BASE, false),
            Drivability::Degraded
        );
        assert_eq!(
            classify(0.70, 3.0, false, 1.0, BASE, false),
            Drivability::Difficult
        );
        assert_eq!(
            classify(0.13, 0.5, true, 1.0, BASE, false),
            Drivability::Difficult
        );
        assert_eq!(
            classify(1.6, 8.0, false, 1.0, BASE, false),
            Drivability::Impossible
        );
        assert_eq!(
            classify(0.13, 0.5, false, 0.4, BASE, false),
            Drivability::Impossible
        );
        // Worst-lateral escalations independent of the ratio.
        assert_eq!(
            classify(0.13, 2.5, false, 1.0, BASE, false),
            Drivability::Degraded
        );
        assert_eq!(
            classify(0.13, 4.0, false, 1.0, BASE, false),
            Drivability::Difficult
        );
        // Tight-margin plants read the same ratio more severely.
        assert_eq!(
            classify(0.16, 0.5, false, 1.0, BASE, true),
            Drivability::Degraded
        );
        assert_eq!(
            classify(0.25, 0.5, false, 1.0, BASE, true),
            Drivability::Difficult
        );
        assert_eq!(
            classify(0.45, 0.5, false, 1.0, BASE, true),
            Drivability::Impossible
        );
        assert!(Drivability::Fine < Drivability::Impossible);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Drivability::Fine.to_string(), "fine");
        assert_eq!(Drivability::Impossible.to_string(), "impossible");
    }

    #[test]
    fn thresholds_lookup() {
        let mk = |label: &str, verdict| SweepPoint {
            label: label.into(),
            mean_lateral: 0.0,
            worst_lateral: 0.0,
            collided: false,
            completion: 1.0,
            verdict,
        };
        let report = SweepReport {
            plant: "x".into(),
            delays: vec![
                mk("delay 0ms", Drivability::Fine),
                mk("delay 50ms", Drivability::Degraded),
                mk("delay 100ms", Drivability::Difficult),
            ],
            losses: vec![mk("loss 2%", Drivability::Fine)],
        };
        assert_eq!(
            report.delay_threshold(Drivability::Degraded).unwrap().label,
            "delay 50ms"
        );
        assert_eq!(
            report
                .delay_threshold(Drivability::Difficult)
                .unwrap()
                .label,
            "delay 100ms"
        );
        assert!(report.loss_threshold(Drivability::Degraded).is_none());
    }

    // The full sweeps run in the repro binary and are pinned by the
    // `repro_quick` golden; here we only verify tiny points end to end.
    #[test]
    fn single_measure_point_runs() {
        let cfg = ScenarioConfig {
            laps: 1,
            progress_target: Some(150.0),
            max_duration: SimDuration::from_secs(60),
            ..ScenarioConfig::default()
        };
        let p = measure("baseline".into(), &cfg, 5);
        assert!(p.completion > 0.9, "clean short run completes: {p:?}");
        assert!(!p.collided);
        let point = p.into_point(0.12);
        assert!(point.verdict <= Drivability::Difficult, "{point:?}");
    }

    #[test]
    fn sweep_points_are_the_same_on_any_worker_count() {
        let base = ScenarioConfig {
            laps: 1,
            progress_target: Some(100.0),
            max_duration: SimDuration::from_secs(60),
            ..ScenarioConfig::default()
        };
        let (delays, losses, seed) = ([0.0, 50.0], [5.0], 11);
        let serial = build_report("tiny", &base, &delays, &losses, seed, 1);
        let parallel = build_report("tiny", &base, &delays, &losses, seed, 3);
        assert_eq!(serial, parallel);

        // Each point is a direct measurement at its own sweep index's seed.
        let direct = |label: &str, fault, i: u64| {
            measure(label.into(), &sweep_config(&base, fault), seed ^ (i << 8))
        };
        let baseline = direct("delay 0ms", None, 0);
        let baseline_mean = baseline.mean_lateral.max(0.02);
        let delay_50 = NetemConfig::default().with_delay(Millis::new(50.0));
        let loss_5 = NetemConfig::default().with_loss(Ratio::from_percent(5.0));
        let expect = SweepReport {
            plant: "tiny".into(),
            delays: vec![
                baseline.into_point(baseline_mean),
                direct("delay 50ms", Some(delay_50), 1).into_point(baseline_mean),
            ],
            losses: vec![direct("loss 5%", Some(loss_5), 0).into_point(baseline_mean)],
        };
        assert_eq!(serial, expect);
    }
}

//! Safety measures for the vehicle subsystem.
//!
//! The paper's purpose is methodological: "to investigate which safety
//! measures are adequate, e.g., how they should be designed and when they
//! need to intervene" (§I) — its experiments deliberately run *without*
//! any measures. This module supplies the measures a production RDS would
//! deploy, so the same HIL methodology can evaluate them (the ablation
//! experiments in `rdsim-experiments` and the `safety_measures` example
//! do exactly that):
//!
//! * [`CommandWatchdog`] — neutralise the controls when no valid command
//!   has arrived for a bound;
//! * [`DegradedModeLimiter`] — cap speed while measured link quality is
//!   poor;
//! * [`SafeStop`] — brake to a halt after prolonged link silence;
//! * [`SafetyStack`] — ordered composition of measures, with an
//!   intervention log.
//!
//! Measures act on the vehicle side only, on information genuinely
//! available there ([`QosEstimate`]): they never peek at the operator's
//! intent or the simulator's ground truth.

use rdsim_units::{MetersPerSecond, Ratio, SimDuration, SimTime};
use rdsim_vehicle::ControlInput;

/// Link-quality estimate as observable from the vehicle subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosEstimate {
    /// Time since the last valid command arrived (`None` before the first
    /// command).
    pub command_age: Option<SimDuration>,
    /// Estimated command loss over the recent window, from sequence-number
    /// gaps.
    pub command_loss: Ratio,
    /// Commands received so far.
    pub commands_received: u64,
}

impl QosEstimate {
    /// A healthy-link estimate (used before any traffic has flowed).
    pub fn healthy() -> Self {
        QosEstimate {
            command_age: None,
            command_loss: Ratio::ZERO,
            commands_received: 0,
        }
    }
}

/// A recorded intervention by a safety measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Intervention {
    /// When the measure (first) fired.
    pub time: SimTime,
    /// The measure's name.
    pub measure: String,
}

/// A vehicle-side safety measure: may override the operator's command
/// based on observable link quality.
pub trait SafetyMeasure: std::fmt::Debug + Send {
    /// The measure's display name.
    fn name(&self) -> &str;

    /// Filters the command about to be applied. Returning `None` means
    /// "no intervention"; `Some(cmd)` replaces the command.
    fn filter(
        &mut self,
        now: SimTime,
        qos: &QosEstimate,
        command: ControlInput,
        speed: MetersPerSecond,
    ) -> Option<ControlInput>;
}

/// Neutralises the controls when the command stream goes quiet: steering
/// centred, pedals released. The mildest measure — the vehicle coasts.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandWatchdog {
    /// Command age beyond which the watchdog fires.
    pub timeout: SimDuration,
}

impl CommandWatchdog {
    /// Creates a watchdog with the given timeout.
    pub fn new(timeout: SimDuration) -> Self {
        CommandWatchdog { timeout }
    }
}

impl SafetyMeasure for CommandWatchdog {
    fn name(&self) -> &str {
        "command-watchdog"
    }

    fn filter(
        &mut self,
        _now: SimTime,
        qos: &QosEstimate,
        _command: ControlInput,
        _speed: MetersPerSecond,
    ) -> Option<ControlInput> {
        match qos.command_age {
            Some(age) if age > self.timeout => Some(ControlInput::COAST),
            _ => None,
        }
    }
}

/// Caps the vehicle's speed while measured command loss exceeds a
/// threshold: throttle is cut above the cap and gentle braking shaves
/// excess speed. Keeps the vehicle drivable in degraded mode, as remote
/// operation guidelines (e.g. BSI PAS 1883-style ODD contraction)
/// recommend.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedModeLimiter {
    /// Loss level that triggers degraded mode.
    pub trigger_loss: Ratio,
    /// Speed cap while degraded.
    pub speed_cap: MetersPerSecond,
}

impl DegradedModeLimiter {
    /// Creates a limiter.
    pub fn new(trigger_loss: Ratio, speed_cap: MetersPerSecond) -> Self {
        DegradedModeLimiter {
            trigger_loss,
            speed_cap,
        }
    }
}

impl SafetyMeasure for DegradedModeLimiter {
    fn name(&self) -> &str {
        "degraded-mode-limiter"
    }

    fn filter(
        &mut self,
        _now: SimTime,
        qos: &QosEstimate,
        command: ControlInput,
        speed: MetersPerSecond,
    ) -> Option<ControlInput> {
        if qos.command_loss < self.trigger_loss {
            return None;
        }
        if speed <= self.speed_cap {
            // Below the cap: allow the command but clamp throttle so the
            // cap is approached smoothly.
            if speed.get() > self.speed_cap.get() * 0.9 && command.throttle.get() > 0.2 {
                let mut c = command;
                c.throttle = Ratio::new(0.2);
                return Some(c);
            }
            return None;
        }
        // Above the cap: cut throttle, brake gently, keep steering.
        let mut c = command;
        c.throttle = Ratio::ZERO;
        c.brake = Ratio::new(c.brake.get().max(0.3));
        Some(c)
    }
}

/// Brings the vehicle to a controlled stop after prolonged link silence —
/// the minimal-risk manoeuvre of last resort.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeStop {
    /// Command age beyond which the stop engages.
    pub timeout: SimDuration,
    /// Braking intensity while stopping.
    pub brake: Ratio,
    engaged: bool,
}

impl SafeStop {
    /// Creates a safe-stop measure.
    pub fn new(timeout: SimDuration) -> Self {
        SafeStop {
            timeout,
            brake: Ratio::new(0.5),
            engaged: false,
        }
    }

    /// `true` once the stop has engaged (it latches until a fresh command
    /// arrives).
    pub fn engaged(&self) -> bool {
        self.engaged
    }
}

impl SafetyMeasure for SafeStop {
    fn name(&self) -> &str {
        "safe-stop"
    }

    fn filter(
        &mut self,
        _now: SimTime,
        qos: &QosEstimate,
        _command: ControlInput,
        speed: MetersPerSecond,
    ) -> Option<ControlInput> {
        match qos.command_age {
            Some(age) if age > self.timeout => {
                self.engaged = true;
            }
            Some(_) => {
                // Fresh command: release the latch.
                self.engaged = false;
            }
            None => {}
        }
        if self.engaged {
            let mut c = ControlInput::COAST;
            c.brake = self.brake;
            if speed.get() < 0.2 {
                c = c.with_handbrake(true);
            }
            Some(c)
        } else {
            None
        }
    }
}

/// An ordered stack of measures. Later measures see (and may override)
/// the output of earlier ones; the most defensive measure should be last.
#[derive(Debug, Default)]
pub struct SafetyStack {
    measures: Vec<Box<dyn SafetyMeasure>>,
    interventions: Vec<Intervention>,
    active: std::collections::BTreeSet<String>,
}

impl SafetyStack {
    /// An empty stack (no measures — the paper's §V configuration).
    pub fn new() -> Self {
        SafetyStack::default()
    }

    /// Adds a measure to the end of the stack.
    pub fn push(mut self, measure: Box<dyn SafetyMeasure>) -> Self {
        self.measures.push(measure);
        self
    }

    /// Number of measures installed.
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// `true` if no measures are installed.
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Interventions recorded so far (one per measure per engagement
    /// episode).
    pub fn interventions(&self) -> &[Intervention] {
        &self.interventions
    }

    /// Applies the stack; returns the (possibly overridden) command.
    pub fn apply(
        &mut self,
        now: SimTime,
        qos: &QosEstimate,
        mut command: ControlInput,
        speed: MetersPerSecond,
    ) -> ControlInput {
        for measure in &mut self.measures {
            match measure.filter(now, qos, command, speed) {
                Some(overridden) => {
                    if self.active.insert(measure.name().to_owned()) {
                        self.interventions.push(Intervention {
                            time: now,
                            measure: measure.name().to_owned(),
                        });
                    }
                    command = overridden;
                }
                None => {
                    self.active.remove(measure.name());
                }
            }
        }
        command
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qos(age_ms: Option<u64>, loss_pct: f64) -> QosEstimate {
        QosEstimate {
            command_age: age_ms.map(SimDuration::from_millis),
            command_loss: Ratio::from_percent(loss_pct),
            commands_received: 100,
        }
    }

    #[test]
    fn watchdog_fires_on_stale_commands() {
        let mut w = CommandWatchdog::new(SimDuration::from_millis(200));
        let cmd = ControlInput::full_throttle();
        let v = MetersPerSecond::new(10.0);
        assert_eq!(w.filter(SimTime::ZERO, &qos(Some(100), 0.0), cmd, v), None);
        assert_eq!(
            w.filter(SimTime::ZERO, &qos(Some(201), 0.0), cmd, v),
            Some(ControlInput::COAST)
        );
        // No command ever: the operator hasn't connected — do not fight
        // the (neutral) default.
        assert_eq!(w.filter(SimTime::ZERO, &qos(None, 0.0), cmd, v), None);
    }

    #[test]
    fn limiter_engages_on_loss() {
        let mut l = DegradedModeLimiter::new(Ratio::from_percent(5.0), MetersPerSecond::new(6.0));
        let cmd = ControlInput::new(0.8, 0.0, 0.2);
        // Healthy link: untouched.
        assert_eq!(
            l.filter(
                SimTime::ZERO,
                &qos(Some(20), 1.0),
                cmd,
                MetersPerSecond::new(12.0)
            ),
            None
        );
        // Lossy link, above cap: throttle cut, brake applied, steering kept.
        let out = l
            .filter(
                SimTime::ZERO,
                &qos(Some(20), 8.0),
                cmd,
                MetersPerSecond::new(12.0),
            )
            .expect("intervenes");
        assert_eq!(out.throttle, Ratio::ZERO);
        assert!(out.brake.get() >= 0.3);
        assert_eq!(out.steer, 0.2);
        // Lossy link, well below cap: untouched.
        assert_eq!(
            l.filter(
                SimTime::ZERO,
                &qos(Some(20), 8.0),
                cmd,
                MetersPerSecond::new(3.0)
            ),
            None
        );
        // Near the cap: throttle softened.
        let near = l
            .filter(
                SimTime::ZERO,
                &qos(Some(20), 8.0),
                cmd,
                MetersPerSecond::new(5.8),
            )
            .expect("softens");
        assert!((near.throttle.get() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn safe_stop_latches_and_releases() {
        let mut s = SafeStop::new(SimDuration::from_millis(500));
        let cmd = ControlInput::full_throttle();
        assert_eq!(
            s.filter(
                SimTime::ZERO,
                &qos(Some(100), 0.0),
                cmd,
                MetersPerSecond::new(10.0)
            ),
            None
        );
        assert!(!s.engaged());
        let out = s
            .filter(
                SimTime::ZERO,
                &qos(Some(600), 0.0),
                cmd,
                MetersPerSecond::new(10.0),
            )
            .expect("engages");
        assert!(s.engaged());
        assert_eq!(out.throttle, Ratio::ZERO);
        assert!(out.brake.get() > 0.0);
        // At standstill: handbrake.
        let held = s
            .filter(
                SimTime::ZERO,
                &qos(Some(700), 0.0),
                cmd,
                MetersPerSecond::new(0.1),
            )
            .expect("holds");
        assert!(held.handbrake);
        // Fresh command releases the latch.
        assert_eq!(
            s.filter(
                SimTime::ZERO,
                &qos(Some(10), 0.0),
                cmd,
                MetersPerSecond::new(0.1)
            ),
            None
        );
        assert!(!s.engaged());
    }

    #[test]
    fn stack_composes_and_logs_interventions() {
        let mut stack = SafetyStack::new()
            .push(Box::new(DegradedModeLimiter::new(
                Ratio::from_percent(5.0),
                MetersPerSecond::new(6.0),
            )))
            .push(Box::new(SafeStop::new(SimDuration::from_millis(500))));
        assert_eq!(stack.len(), 2);
        assert!(!stack.is_empty());

        // Lossy but alive: limiter fires, safe-stop does not.
        let out = stack.apply(
            SimTime::from_secs(1),
            &qos(Some(50), 10.0),
            ControlInput::full_throttle(),
            MetersPerSecond::new(12.0),
        );
        assert_eq!(out.throttle, Ratio::ZERO);
        assert_eq!(stack.interventions().len(), 1);
        assert_eq!(stack.interventions()[0].measure, "degraded-mode-limiter");

        // Sustained intervention logs only once per episode.
        stack.apply(
            SimTime::from_secs(2),
            &qos(Some(50), 10.0),
            ControlInput::full_throttle(),
            MetersPerSecond::new(12.0),
        );
        assert_eq!(stack.interventions().len(), 1);

        // Silence: safe-stop (last) wins over the limiter's output.
        let out = stack.apply(
            SimTime::from_secs(3),
            &qos(Some(800), 10.0),
            ControlInput::full_throttle(),
            MetersPerSecond::new(12.0),
        );
        assert!(out.brake.get() >= 0.5);
        assert_eq!(stack.interventions().len(), 2);

        // Recovery: a new episode re-logs.
        stack.apply(
            SimTime::from_secs(4),
            &qos(Some(10), 0.0),
            ControlInput::COAST,
            MetersPerSecond::new(2.0),
        );
        let out = stack.apply(
            SimTime::from_secs(5),
            &qos(Some(900), 0.0),
            ControlInput::COAST,
            MetersPerSecond::new(2.0),
        );
        assert!(out.brake.get() > 0.0);
        assert_eq!(stack.interventions().len(), 3);
    }

    #[test]
    fn empty_stack_is_transparent() {
        let mut stack = SafetyStack::new();
        let cmd = ControlInput::new(0.4, 0.1, -0.2);
        assert_eq!(
            stack.apply(
                SimTime::ZERO,
                &qos(Some(999), 50.0),
                cmd,
                MetersPerSecond::new(20.0)
            ),
            cmd
        );
        assert!(stack.interventions().is_empty());
    }
}

//! Fault injection: scheduled rule add/delete with a full event log.
//!
//! The paper's data-logging schema (§V.F) records for every fault
//! injection: timestamp, fault type, value, and whether the rule was added
//! or deleted. [`FaultInjector`] owns that lifecycle: callers schedule
//! [`InjectionWindow`]s (or trigger them ad hoc), the injector applies the
//! rule to a [`DuplexLink`] at the right simulated times, and every
//! transition is logged.

use crate::{DuplexLink, NetemConfig, TraceSchedule};
use rdsim_units::{SimDuration, SimTime};
use std::fmt;

/// Whether a rule was added or deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionAction {
    /// The rule became active.
    Added,
    /// The rule was removed (link back to passthrough).
    Deleted,
}

/// Which direction(s) of a duplex link a rule applies to.
///
/// The paper's loopback setup is inherently [`Direction::Both`]; the
/// unidirectional modes reproduce the per-direction experiments of the
/// related 4G/5G evaluation work it cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Both directions (the paper's loopback semantics).
    #[default]
    Both,
    /// Vehicle → operator only (video feed).
    Uplink,
    /// Operator → vehicle only (commands).
    Downlink,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Both => "both",
            Direction::Uplink => "uplink",
            Direction::Downlink => "downlink",
        })
    }
}

impl fmt::Display for InjectionAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InjectionAction::Added => "added",
            InjectionAction::Deleted => "deleted",
        })
    }
}

/// One entry of the injection log: exactly the tuple the paper records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionEvent {
    /// When the transition happened.
    pub time: SimTime,
    /// The rule involved.
    pub config: NetemConfig,
    /// Added or deleted.
    pub action: InjectionAction,
    /// The direction(s) affected.
    pub direction: Direction,
}

/// A scheduled fault window: `config` is active during
/// `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionWindow {
    /// Activation time.
    pub start: SimTime,
    /// How long the rule stays active.
    pub duration: SimDuration,
    /// The rule to apply.
    pub config: NetemConfig,
}

impl InjectionWindow {
    /// Creates a window.
    pub fn new(start: SimTime, duration: SimDuration, config: NetemConfig) -> Self {
        InjectionWindow {
            start,
            duration,
            config,
        }
    }

    /// End of the window.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// `true` if `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }

    /// `true` if this window overlaps another.
    pub fn overlaps(&self, other: &InjectionWindow) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// Applies scheduled fault windows to a duplex link and logs transitions.
///
/// Windows must not overlap (the paper injects one fault at a time).
#[derive(Debug, Default)]
pub struct FaultInjector {
    windows: Vec<InjectionWindow>,
    log: Vec<InjectionEvent>,
    /// The open window, kept by value: scheduling a window that sorts
    /// before it moves it to another index.
    active: Option<InjectionWindow>,
    /// Every window before this index had ended at an earlier
    /// [`advance`](Self::advance), so none of them can open again. A
    /// window scheduled later that sorts before one of them must end by
    /// the time that one starts, so it has ended too.
    next: usize,
    /// An ad-hoc (unscheduled) rule is currently applied via
    /// [`FaultInjector::inject_now`] / [`FaultInjector::inject_now_on`].
    adhoc_active: bool,
}

impl FaultInjector {
    /// Creates an injector with no scheduled faults.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Schedules a fault window.
    ///
    /// # Errors
    ///
    /// Returns the conflicting window if the new one overlaps an existing
    /// schedule entry.
    #[allow(clippy::result_large_err)] // the Err is a by-value copy of the conflicting window
    pub fn schedule(&mut self, window: InjectionWindow) -> Result<(), InjectionWindow> {
        if let Some(conflict) = self.windows.iter().find(|w| w.overlaps(&window)) {
            return Err(*conflict);
        }
        self.windows.push(window);
        self.windows.sort_by_key(|w| w.start);
        Ok(())
    }

    /// Replays a trace: schedules every compiled edge window, with the
    /// result of scheduling them one by one with
    /// [`FaultInjector::schedule`]. The trace's windows follow one another
    /// by construction (each ends no later than the next starts), so none
    /// overlaps another: the window a trace window conflicts with is the
    /// first one of the schedule before the call that it overlaps, and the
    /// trace windows are inserted with one stable sort instead of one per
    /// window.
    ///
    /// # Errors
    ///
    /// Returns the scheduled window that the first conflicting trace
    /// window overlaps; trace windows before that one stay scheduled.
    #[allow(clippy::result_large_err)] // the Err is a by-value copy of the conflicting window
    pub fn schedule_trace(&mut self, trace: &TraceSchedule) -> Result<(), InjectionWindow> {
        let run = trace.windows();
        let conflict = run.iter().enumerate().find_map(|(k, t)| {
            let c = self.windows.iter().find(|w| w.overlaps(t))?;
            Some((k, *c))
        });
        let kept = conflict.map_or(run.len(), |(k, _)| k);
        self.windows.extend_from_slice(&run[..kept]);
        // Stable, so windows with one start keep their insertion order.
        self.windows.sort_by_key(|w| w.start);
        conflict.map_or(Ok(()), |(_, c)| Err(c))
    }

    /// All scheduled windows, sorted by start time.
    pub fn windows(&self) -> &[InjectionWindow] {
        &self.windows
    }

    /// The currently active window, if any.
    pub fn active_window(&self) -> Option<&InjectionWindow> {
        self.active.as_ref()
    }

    /// `true` while any fault rule is applied — a scheduled window or an
    /// ad-hoc injection. This is what per-fault-window packet accounting
    /// keys on.
    pub fn fault_active(&self) -> bool {
        self.active.is_some() || self.adhoc_active
    }

    /// Advances the injector to time `now`, applying and removing rules on
    /// the link as windows open and close. Call once per simulation step
    /// *before* stepping the link, with `now` never earlier than the last
    /// call's.
    pub fn advance(&mut self, link: &mut DuplexLink, now: SimTime) {
        debug_assert!(
            self.next == 0 || self.windows[self.next - 1].end() <= now,
            "advance: time went backwards"
        );
        // Close the active window if its time has passed.
        if let Some(w) = self.active {
            if now >= w.end() {
                link.set_both(NetemConfig::passthrough());
                self.log.push(InjectionEvent {
                    time: w.end(),
                    config: w.config,
                    action: InjectionAction::Deleted,
                    direction: Direction::Both,
                });
                self.active = None;
            }
        }
        // Open a window whose start has arrived. Windows are sorted by
        // start and do not overlap, so once those that have ended are
        // skipped, the first one left is the only one that can contain
        // `now`: every later one starts no earlier than it.
        if self.active.is_none() {
            while self.windows.get(self.next).is_some_and(|w| w.end() <= now) {
                self.next += 1;
            }
            if let Some(&w) = self.windows.get(self.next).filter(|w| w.contains(now)) {
                link.set_both(w.config);
                self.log.push(InjectionEvent {
                    time: now.max(w.start),
                    config: w.config,
                    action: InjectionAction::Added,
                    direction: Direction::Both,
                });
                self.active = Some(w);
            }
        }
    }

    /// Immediately applies a rule outside any schedule (ad-hoc injection,
    /// e.g. from an interactive test leader) and logs it.
    pub fn inject_now(&mut self, link: &mut DuplexLink, config: NetemConfig, now: SimTime) {
        self.inject_now_on(link, Direction::Both, config, now);
    }

    /// Immediately applies a rule to one or both directions and logs it.
    pub fn inject_now_on(
        &mut self,
        link: &mut DuplexLink,
        direction: Direction,
        config: NetemConfig,
        now: SimTime,
    ) {
        match direction {
            Direction::Both => link.set_both(config),
            Direction::Uplink => link.uplink.set_config(config),
            Direction::Downlink => link.downlink.set_config(config),
        }
        self.adhoc_active = true;
        self.log.push(InjectionEvent {
            time: now,
            config,
            action: InjectionAction::Added,
            direction,
        });
    }

    /// Immediately clears the active rule and logs the deletion.
    pub fn clear_now(&mut self, link: &mut DuplexLink, now: SimTime) {
        let config = *link.uplink.config();
        link.set_both(NetemConfig::passthrough());
        self.log.push(InjectionEvent {
            time: now,
            config,
            action: InjectionAction::Deleted,
            direction: Direction::Both,
        });
        self.active = None;
        self.adhoc_active = false;
    }

    /// The complete injection log.
    pub fn log(&self) -> &[InjectionEvent] {
        &self.log
    }

    /// `true` once every scheduled window lies in the past.
    pub fn finished(&self, now: SimTime) -> bool {
        self.windows.iter().all(|w| now >= w.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_units::Millis;

    fn delay_rule(ms: f64) -> NetemConfig {
        NetemConfig::default().with_delay(Millis::new(ms))
    }

    #[test]
    fn window_geometry() {
        let w = InjectionWindow::new(
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            delay_rule(50.0),
        );
        assert_eq!(w.end(), SimTime::from_secs(15));
        assert!(w.contains(SimTime::from_secs(10)));
        assert!(w.contains(SimTime::from_millis(14_999)));
        assert!(!w.contains(SimTime::from_secs(15)));
        assert!(!w.contains(SimTime::from_secs(9)));
    }

    #[test]
    fn overlap_detection() {
        let a = InjectionWindow::new(
            SimTime::from_secs(0),
            SimDuration::from_secs(10),
            delay_rule(5.0),
        );
        let b = InjectionWindow::new(
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
            delay_rule(25.0),
        );
        let c = InjectionWindow::new(
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            delay_rule(50.0),
        );
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // touching, not overlapping
        let mut inj = FaultInjector::new();
        inj.schedule(a).unwrap();
        assert_eq!(inj.schedule(b).unwrap_err(), a);
        inj.schedule(c).unwrap();
        assert_eq!(inj.windows().len(), 2);
    }

    #[test]
    fn advance_applies_and_removes_rules() {
        let mut link = DuplexLink::new(1);
        let mut inj = FaultInjector::new();
        inj.schedule(InjectionWindow::new(
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
            delay_rule(50.0),
        ))
        .unwrap();

        inj.advance(&mut link, SimTime::ZERO);
        assert!(link.uplink.config().is_passthrough());
        assert!(inj.active_window().is_none());

        inj.advance(&mut link, SimTime::from_secs(1));
        assert!(!link.uplink.config().is_passthrough());
        assert!(!link.downlink.config().is_passthrough(), "bidirectional");
        assert!(inj.active_window().is_some());

        inj.advance(&mut link, SimTime::from_secs(3));
        assert!(link.uplink.config().is_passthrough());
        assert!(inj.finished(SimTime::from_secs(3)));

        let log = inj.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].action, InjectionAction::Added);
        assert_eq!(log[0].time, SimTime::from_secs(1));
        assert_eq!(log[1].action, InjectionAction::Deleted);
        assert_eq!(log[1].time, SimTime::from_secs(3));
    }

    #[test]
    fn back_to_back_windows() {
        let mut link = DuplexLink::new(1);
        let mut inj = FaultInjector::new();
        inj.schedule(InjectionWindow::new(
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            delay_rule(5.0),
        ))
        .unwrap();
        inj.schedule(InjectionWindow::new(
            SimTime::from_secs(2),
            SimDuration::from_secs(1),
            delay_rule(25.0),
        ))
        .unwrap();
        inj.advance(&mut link, SimTime::from_secs(1));
        assert_eq!(inj.active_window().unwrap().config, delay_rule(5.0));
        // At t=2 the first closes and the second opens within one call.
        inj.advance(&mut link, SimTime::from_secs(2));
        assert_eq!(inj.active_window().unwrap().config, delay_rule(25.0));
        assert_eq!(inj.log().len(), 3);
    }

    #[test]
    fn adhoc_injection() {
        let mut link = DuplexLink::new(1);
        let mut inj = FaultInjector::new();
        inj.inject_now(&mut link, delay_rule(50.0), SimTime::from_secs(4));
        assert!(!link.uplink.config().is_passthrough());
        inj.clear_now(&mut link, SimTime::from_secs(6));
        assert!(link.uplink.config().is_passthrough());
        let log = inj.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].action, InjectionAction::Deleted);
        assert_eq!(log[1].config, delay_rule(50.0));
    }

    #[test]
    fn fault_active_tracks_scheduled_and_adhoc() {
        let mut link = DuplexLink::new(1);
        let mut inj = FaultInjector::new();
        assert!(!inj.fault_active());

        // Ad-hoc lifecycle.
        inj.inject_now(&mut link, delay_rule(5.0), SimTime::ZERO);
        assert!(inj.fault_active());
        inj.clear_now(&mut link, SimTime::from_secs(1));
        assert!(!inj.fault_active());

        // Scheduled lifecycle.
        inj.schedule(InjectionWindow::new(
            SimTime::from_secs(2),
            SimDuration::from_secs(1),
            delay_rule(25.0),
        ))
        .unwrap();
        inj.advance(&mut link, SimTime::from_secs(2));
        assert!(inj.fault_active());
        inj.advance(&mut link, SimTime::from_secs(3));
        assert!(!inj.fault_active());
    }

    #[test]
    fn late_advance_still_opens_window() {
        // If the caller steps coarsely and lands inside the window, the
        // rule is applied and logged at the window start time.
        let mut link = DuplexLink::new(1);
        let mut inj = FaultInjector::new();
        inj.schedule(InjectionWindow::new(
            SimTime::from_secs(1),
            SimDuration::from_secs(10),
            delay_rule(25.0),
        ))
        .unwrap();
        inj.advance(&mut link, SimTime::from_secs(5));
        assert!(inj.active_window().is_some());
        assert_eq!(inj.log()[0].time, SimTime::from_secs(5));
    }

    #[test]
    fn scheduling_a_past_window_keeps_the_active_one() {
        // A window that sorts before the open one moves it one index on;
        // the open window must still be the one that closes.
        let mut link = DuplexLink::new(1);
        let mut inj = FaultInjector::new();
        let open = InjectionWindow::new(
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
            delay_rule(50.0),
        );
        inj.schedule(open).unwrap();
        inj.advance(&mut link, SimTime::from_secs(12));
        inj.schedule(InjectionWindow::new(
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
            delay_rule(5.0),
        ))
        .unwrap();
        inj.advance(&mut link, SimTime::from_secs(13));
        assert_eq!(inj.active_window(), Some(&open));
        assert_eq!(link.uplink.config(), &delay_rule(50.0));
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.log()[0].time, SimTime::from_secs(12));
        assert_eq!(inj.log()[0].action, InjectionAction::Added);

        inj.advance(&mut link, SimTime::from_secs(20));
        assert!(inj.active_window().is_none());
        assert_eq!(inj.log().len(), 2);
        assert_eq!(inj.log()[1].time, SimTime::from_secs(20));
        assert_eq!(inj.log()[1].action, InjectionAction::Deleted);
        assert_eq!(inj.log()[1].config, delay_rule(50.0));
    }
}

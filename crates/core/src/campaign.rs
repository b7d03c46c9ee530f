//! The test protocol (§V.E): training → golden run → faulty run, with
//! randomised fault schedules at points of interest.

use crate::{PaperFault, RunLog};
use rdsim_netem::InjectionWindow;
use std::fmt;

/// Which run of the protocol a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// Free driving in an empty town (3–5 minutes) to get familiar with
    /// the station.
    Training,
    /// The baseline run with no faults injected ("NFI").
    Golden,
    /// The run with faults injected at points of interest ("FI").
    Faulty,
}

impl fmt::Display for RunKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunKind::Training => "training",
            RunKind::Golden => "golden (NFI)",
            RunKind::Faulty => "faulty (FI)",
        })
    }
}

/// A fault chosen for one point of interest, with its injection window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Which of the paper's five faults was drawn.
    pub fault: PaperFault,
    /// When it is active.
    pub window: InjectionWindow,
}

/// One completed run of the protocol, as analysed by the tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// The subject identifier ("T1" … "T12").
    pub subject: String,
    /// Which run this is. `None` only for the default value.
    pub kind: Option<RunKind>,
    /// The recorded data.
    pub log: RunLog,
    /// The fault schedule that was applied (empty for golden runs).
    pub schedule: Vec<ScheduledFault>,
}

impl RunRecord {
    /// Creates a record.
    pub fn new(
        subject: impl Into<String>,
        kind: RunKind,
        log: RunLog,
        schedule: Vec<ScheduledFault>,
    ) -> Self {
        RunRecord {
            subject: subject.into(),
            kind: Some(kind),
            log,
            schedule,
        }
    }

    /// How many times `fault` was injected (a Table II cell).
    pub fn fault_count(&self, fault: PaperFault) -> usize {
        self.schedule.iter().filter(|s| s.fault == fault).count()
    }

    /// Total injections (the Table II row total).
    pub fn total_faults(&self) -> usize {
        self.schedule.len()
    }

    /// The injection windows of a given fault, for windowed metrics.
    pub fn fault_windows(&self, fault: PaperFault) -> Vec<InjectionWindow> {
        self.schedule
            .iter()
            .filter(|s| s.fault == fault)
            .map(|s| s.window)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_units::{SimDuration, SimTime};

    fn points(n: usize) -> Vec<(SimTime, SimDuration)> {
        (0..n)
            .map(|i| {
                (
                    SimTime::from_secs(10 + 30 * i as u64),
                    SimDuration::from_secs(10),
                )
            })
            .collect()
    }

    #[test]
    fn record_counting() {
        let sched: Vec<ScheduledFault> = points(20)
            .into_iter()
            .enumerate()
            .map(|(i, (start, duration))| {
                let fault = PaperFault::ALL[i % PaperFault::ALL.len()];
                let window = InjectionWindow::new(start, duration, fault.config());
                ScheduledFault { fault, window }
            })
            .collect();
        let rec = RunRecord::new("T5", RunKind::Faulty, RunLog::new(), sched);
        let total: usize = PaperFault::ALL.iter().map(|&f| rec.fault_count(f)).sum();
        assert_eq!(total, rec.total_faults());
        assert_eq!(rec.total_faults(), 20);
        for f in PaperFault::ALL {
            assert_eq!(rec.fault_windows(f).len(), rec.fault_count(f));
        }
        assert_eq!(rec.subject, "T5");
        assert_eq!(rec.kind, Some(RunKind::Faulty));
    }

    #[test]
    fn run_kind_display() {
        assert_eq!(format!("{}", RunKind::Golden), "golden (NFI)");
        assert_eq!(format!("{}", RunKind::Faulty), "faulty (FI)");
        assert_eq!(format!("{}", RunKind::Training), "training");
    }
}

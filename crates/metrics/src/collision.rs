//! Collision analysis (§VI.E): golden vs faulty crash counts and fault
//! attribution.

use rdsim_core::{PaperFault, RunKind, RunRecord};
use rdsim_units::SimTime;
use std::collections::BTreeMap;

/// A crash attributed to the fault active when it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashAttribution {
    /// Which subject crashed.
    pub subject: String,
    /// When.
    pub time: SimTime,
    /// The fault active at the moment of the crash, if any.
    pub fault: Option<PaperFault>,
}

/// Aggregated collision analysis across a campaign.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollisionAnalysis {
    /// Subjects analysed.
    pub subjects: usize,
    /// Subjects who collided in the golden run.
    pub collided_golden: usize,
    /// Subjects who collided in the faulty run.
    pub collided_faulty: usize,
    /// Crashes per fault type across faulty runs.
    pub crashes_by_fault: BTreeMap<PaperFault, usize>,
    /// Crashes in faulty runs while no fault window was active.
    pub crashes_outside_windows: usize,
    /// Every attributed crash.
    pub attributions: Vec<CrashAttribution>,
}

impl CollisionAnalysis {
    /// Analyses golden/faulty run pairs. Records not marked golden or
    /// faulty are ignored.
    pub fn analyze(records: &[RunRecord]) -> Self {
        let mut analysis = CollisionAnalysis::default();
        let mut subjects: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for rec in records {
            match rec.kind {
                Some(RunKind::Golden) => {
                    subjects.insert(&rec.subject);
                    if rec.log.collided() {
                        analysis.collided_golden += 1;
                    }
                }
                Some(RunKind::Faulty) => {
                    subjects.insert(&rec.subject);
                    if rec.log.collided() {
                        analysis.collided_faulty += 1;
                    }
                    for c in rec.log.collisions() {
                        // A crash is attributed to a fault active at the
                        // moment of impact, or one that ended within the
                        // previous few seconds — losing control takes a
                        // moment to turn into contact.
                        let fault = rec
                            .schedule
                            .iter()
                            .find(|s| {
                                s.window.contains(c.time)
                                    || (c.time >= s.window.end()
                                        && c.time.saturating_since(s.window.end())
                                            < rdsim_units::SimDuration::from_secs(5))
                            })
                            .map(|s| s.fault);
                        match fault {
                            Some(f) => *analysis.crashes_by_fault.entry(f).or_insert(0) += 1,
                            None => analysis.crashes_outside_windows += 1,
                        }
                        analysis.attributions.push(CrashAttribution {
                            subject: rec.subject.clone(),
                            time: c.time,
                            fault,
                        });
                    }
                }
                _ => {}
            }
        }
        analysis.subjects = subjects.len();
        analysis
    }

    /// The fault types that caused at least one crash, in catalog order.
    pub fn crashing_faults(&self) -> Vec<PaperFault> {
        PaperFault::ALL
            .into_iter()
            .filter(|f| self.crashes_by_fault.get(f).copied().unwrap_or(0) > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_core::{RunLog, ScheduledFault};
    use rdsim_netem::InjectionWindow;
    use rdsim_simulator::{ActorId, CollisionEvent};
    use rdsim_units::{MetersPerSecond, SimDuration};

    fn crash_at(secs: u64) -> CollisionEvent {
        CollisionEvent {
            time: SimTime::from_secs(secs),
            frame_id: 0,
            ego: ActorId(0),
            other: ActorId(1),
            relative_speed: MetersPerSecond::new(5.0),
        }
    }

    fn log_with_crashes(times: &[u64]) -> RunLog {
        RunLog::from_parts(
            Vec::new(),
            Vec::new(),
            times.iter().map(|&t| crash_at(t)).collect(),
            Vec::new(),
            Vec::new(),
            SimDuration::from_secs(600),
        )
    }

    fn scheduled(fault: PaperFault, start: u64, dur: u64) -> ScheduledFault {
        ScheduledFault {
            fault,
            window: InjectionWindow::new(
                SimTime::from_secs(start),
                SimDuration::from_secs(dur),
                fault.config(),
            ),
        }
    }

    #[test]
    fn attribution_and_counts() {
        let records = vec![
            RunRecord::new("T1", RunKind::Golden, log_with_crashes(&[]), vec![]),
            RunRecord::new(
                "T1",
                RunKind::Faulty,
                log_with_crashes(&[15, 100]),
                vec![
                    scheduled(PaperFault::Delay50ms, 10, 10),
                    scheduled(PaperFault::Loss5Pct, 95, 10),
                ],
            ),
            RunRecord::new("T2", RunKind::Golden, log_with_crashes(&[5]), vec![]),
            RunRecord::new(
                "T2",
                RunKind::Faulty,
                log_with_crashes(&[200]),
                vec![scheduled(PaperFault::Delay5ms, 10, 10)],
            ),
            RunRecord::new("T3", RunKind::Golden, log_with_crashes(&[]), vec![]),
            RunRecord::new("T3", RunKind::Faulty, log_with_crashes(&[]), vec![]),
        ];
        let a = CollisionAnalysis::analyze(&records);
        assert_eq!(a.subjects, 3);
        assert_eq!(a.collided_golden, 1);
        assert_eq!(a.collided_faulty, 2);
        assert_eq!(a.crashes_by_fault.get(&PaperFault::Delay50ms), Some(&1));
        assert_eq!(a.crashes_by_fault.get(&PaperFault::Loss5Pct), Some(&1));
        assert_eq!(a.crashes_by_fault.get(&PaperFault::Delay5ms), None);
        assert_eq!(a.crashes_outside_windows, 1); // T2's crash at t=200
        assert_eq!(
            a.crashing_faults(),
            vec![PaperFault::Delay50ms, PaperFault::Loss5Pct]
        );
        assert_eq!(a.attributions.len(), 3);
    }

    #[test]
    fn empty_analysis() {
        let a = CollisionAnalysis::analyze(&[]);
        assert_eq!(a.subjects, 0);
        assert!(a.crashing_faults().is_empty());
    }

    #[test]
    fn training_runs_ignored() {
        let records = vec![RunRecord::new(
            "T1",
            RunKind::Training,
            log_with_crashes(&[1]),
            vec![],
        )];
        let a = CollisionAnalysis::analyze(&records);
        assert_eq!(a.subjects, 0);
        assert_eq!(a.collided_golden, 0);
        assert_eq!(a.collided_faulty, 0);
    }
}

//! The full study: 12 subjects × (training, golden, faulty), with the
//! paper's exclusions and recording artifacts, plus the table generators.

use crate::executor::execute_ordered;
use crate::seeds::run_seed;
use crate::{paper_roster, run_protocol, RosterEntry, RunOutput, ScenarioConfig};
use rdsim_core::{IncidentMark, PaperFault, RunKind, RunRecord};
use rdsim_math::RngStream;
use rdsim_metrics::{
    srr_for_fault, steering_reversal_rate, ttc_series, ttc_stats_for_fault, CollisionAnalysis,
    SrrConfig, TtcConfig, TtcStats,
};
use rdsim_obs::{RunTelemetry, Timeline, TraceLog};
use rdsim_operator::{Questionnaire, QuestionnaireSummary};

/// Everything the analysis sections consume.
#[derive(Debug, Clone)]
pub struct StudyResults {
    /// The roster (including the excluded T7).
    pub roster: Vec<RosterEntry>,
    /// Golden and faulty records for every subject, redactions applied.
    pub records: Vec<RunRecord>,
    /// Questionnaire answers of the analysable subjects.
    pub questionnaires: Vec<Questionnaire>,
    /// Campaign-wide telemetry: every run's [`RunTelemetry`] folded
    /// together (counters add, histograms merge). Empty unless the study
    /// ran with [`ScenarioConfig::telemetry`] enabled.
    pub telemetry: RunTelemetry,
    /// Per-run flight-recorder snapshots (golden + faulty per subject).
    /// Empty unless the study ran with [`ScenarioConfig::trace`] or
    /// [`ScenarioConfig::timeline`] enabled.
    pub traces: Vec<RunTrace>,
}

/// One run's retained trace, keyed for export file names.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Subject id (e.g. `T5`).
    pub subject: String,
    /// Which protocol run this trace came from.
    pub kind: RunKind,
    /// The flight-recorder snapshot.
    pub trace: TraceLog,
    /// The run's safety-incident marks (collisions, TTC breaches, fault
    /// edges) — the anchors for incident-window dumps.
    pub incidents: Vec<IncidentMark>,
    /// The run's per-window safety timeline; empty unless the study ran
    /// with [`ScenarioConfig::timeline`] enabled.
    pub timeline: Timeline,
}

impl StudyResults {
    /// The golden record of a subject, if analysable.
    pub fn golden(&self, subject: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.subject == subject && r.kind == Some(RunKind::Golden))
    }

    /// The faulty record of a subject.
    pub fn faulty(&self, subject: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.subject == subject && r.kind == Some(RunKind::Faulty))
    }

    /// Subject ids included in analysis (T7 excluded), in roster order.
    pub fn analysable_ids(&self) -> Vec<String> {
        self.roster
            .iter()
            .filter(|r| !r.excluded)
            .map(|r| r.profile.id.clone())
            .collect()
    }

    /// Records of analysable subjects only.
    pub fn analysable_records(&self) -> Vec<RunRecord> {
        let ids = self.analysable_ids();
        self.records
            .iter()
            .filter(|r| ids.contains(&r.subject))
            .cloned()
            .collect()
    }
}

/// The protocol's run kinds in execution order; one campaign job per
/// subject × kind.
const PROTOCOL_KINDS: [RunKind; 3] = [RunKind::Training, RunKind::Golden, RunKind::Faulty];

/// The campaign's job list — roster index × kind, in roster order (the
/// order [`assemble_study`] folds outputs back in).
pub(crate) fn study_job_list(roster: &[RosterEntry]) -> Vec<(usize, RunKind)> {
    (0..roster.len())
        .flat_map(|subject| PROTOCOL_KINDS.iter().map(move |&kind| (subject, kind)))
        .collect()
}

/// The training-run variant of a scenario config. Training happens (and
/// matters for realism) but is not analysed; a short free drive suffices.
pub(crate) fn training_config(config: &ScenarioConfig) -> ScenarioConfig {
    let mut cfg = config.clone();
    cfg.progress_target = Some(250.0);
    cfg
}

/// Runs one (subject, kind) campaign cell.
pub(crate) fn run_cell(
    seed: u64,
    entry: &RosterEntry,
    kind: RunKind,
    config: &ScenarioConfig,
    training_cfg: &ScenarioConfig,
) -> RunOutput {
    let cfg = if kind == RunKind::Training {
        training_cfg
    } else {
        config
    };
    run_protocol(
        &entry.profile,
        kind,
        run_seed(seed, &entry.profile.id, kind),
        cfg,
    )
}

/// Folds the ordered run outputs of a full campaign into [`StudyResults`]:
/// telemetry merges, trace retention, the paper's recording-artifact
/// redactions, questionnaire synthesis, and the golden/faulty records.
///
/// `outputs` must be the complete campaign in job-list order
/// ([`study_job_list`]); both the study entry points and the observatory's
/// fresh-campaign path go through here, so the two agree bit for bit.
pub(crate) fn assemble_study(
    seed: u64,
    config: &ScenarioConfig,
    roster: Vec<RosterEntry>,
    outputs: Vec<RunOutput>,
) -> StudyResults {
    let mut records = Vec::with_capacity(roster.len() * 2);
    let mut questionnaires = Vec::new();
    let mut telemetry = RunTelemetry::default();
    let mut traces = Vec::new();
    let q_rng = RngStream::from_seed(seed).substream("questionnaire");
    let mut outputs = outputs.into_iter();
    for entry in &roster {
        let _training = outputs.next().expect("training output");
        let mut golden = outputs.next().expect("golden output");
        let mut faulty = outputs.next().expect("faulty output");
        telemetry.merge(&golden.telemetry);
        telemetry.merge(&faulty.telemetry);
        if config.trace || config.timeline {
            for run in [&mut golden, &mut faulty] {
                traces.push(RunTrace {
                    subject: entry.profile.id.clone(),
                    kind: run.record.kind.expect("protocol runs are kinded"),
                    trace: std::mem::take(&mut run.trace),
                    incidents: run.record.log.incidents().to_vec(),
                    timeline: std::mem::take(&mut run.timeline),
                });
            }
        }
        // Recording artifacts (§VI.A).
        if entry.steering_lost_golden {
            golden.record.log.redact_steering();
        }
        if entry.steering_lost_faulty {
            faulty.record.log.redact_steering();
        }
        if entry.lead_velocity_lost {
            golden.record.log.redact_lead_observations();
            faulty.record.log.redact_lead_observations();
        }
        if !entry.excluded {
            questionnaires.push(Questionnaire::answer_from_feed(
                &entry.profile,
                faulty.stutter_time,
                faulty.worst_display_gap,
                faulty.frames_seen,
                &mut q_rng.substream(&entry.profile.id),
            ));
        }
        records.push(golden.record);
        records.push(faulty.record);
    }
    StudyResults {
        roster,
        records,
        questionnaires,
        telemetry,
        traces,
    }
}

/// Runs the whole study on `jobs` worker threads, `batch` runs per
/// executor task; a task runs its chunk one session after another.
///
/// The roster × kind matrix is sharded into one job per run (12 subjects ×
/// {training, golden, faulty} = 36 jobs) and dispatched through
/// [`execute_ordered`]. Two properties make the result independent of
/// `jobs`, `batch` and scheduling order, bit for bit:
///
/// * every run's seed is a pure function of the campaign seed, subject id
///   and kind ([`crate::seeds::run_seed`]) — no run's randomness can see
///   another run or the scheduler;
/// * the executor returns outputs in job order, and aggregation folds them
///   in that (roster) order — completion order never reaches the fold.
///
/// The chunk size clamps to the jobs remaining (a 36-run campaign at
/// `batch 8` ends with a 4-run chunk). The equivalence is asserted by
/// `tests/parallel_equivalence.rs` and the CI `parallel-equivalence` job.
pub fn run_study_with_exec(
    seed: u64,
    config: &ScenarioConfig,
    jobs: usize,
    batch: usize,
) -> StudyResults {
    let roster = paper_roster();
    let job_list = study_job_list(&roster);
    let training_cfg = training_config(config);
    let outputs: Vec<RunOutput> = execute_ordered(
        job_list,
        jobs,
        batch,
        |chunk| {
            chunk
                .into_iter()
                .map(|(subject, kind)| {
                    run_cell(seed, &roster[subject], kind, config, &training_cfg)
                })
                .collect()
        },
        |_| {},
    );
    assemble_study(seed, config, roster, outputs)
}

/// One row of Table II: faults injected per test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Subject id.
    pub test: String,
    /// Counts per fault, in catalog order (5ms, 25ms, 50ms, 2%, 5%).
    pub counts: [usize; 5],
    /// Row total.
    pub total: usize,
}

/// Generates Table II from the analysable faulty runs.
pub fn table2(results: &StudyResults) -> Vec<Table2Row> {
    results
        .analysable_ids()
        .into_iter()
        .filter_map(|id| {
            let rec = results.faulty(&id)?;
            let counts: [usize; 5] = std::array::from_fn(|i| rec.fault_count(PaperFault::ALL[i]));
            Some(Table2Row {
                total: counts.iter().sum(),
                test: id,
                counts,
            })
        })
        .collect()
}

/// One row of Table III: TTC statistics per test.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Subject id.
    pub test: String,
    /// Golden-run (NFI) TTC statistics.
    pub nfi: Option<TtcStats>,
    /// Faulty-run statistics per fault column.
    pub per_fault: [Option<TtcStats>; 5],
}

/// Generates Table III (max/avg/min TTC) for subjects with lead data.
pub fn table3(results: &StudyResults, config: &TtcConfig) -> Vec<Table3Row> {
    results
        .analysable_ids()
        .into_iter()
        .filter_map(|id| {
            let golden = results.golden(&id)?;
            let faulty = results.faulty(&id)?;
            if !golden.log.has_lead_data() && !faulty.log.has_lead_data() {
                return None; // the T1–T4 missing-velocity case
            }
            let nfi_series = ttc_series(&golden.log, config);
            let nfi = TtcStats::from_samples(&nfi_series, config);
            let per_fault: [Option<TtcStats>; 5] =
                std::array::from_fn(|i| ttc_stats_for_fault(faulty, PaperFault::ALL[i], config));
            Some(Table3Row {
                test: id,
                nfi,
                per_fault,
            })
        })
        .collect()
}

/// One row of Table IV: SRR (reversals/minute) per test.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Subject id.
    pub test: String,
    /// Whole golden run.
    pub nfi: Option<f64>,
    /// Whole faulty run.
    pub fi: Option<f64>,
    /// Per-fault windowed rates.
    pub per_fault: [Option<f64>; 5],
    /// Mean of the per-fault rates present ("Avg" column).
    pub avg: Option<f64>,
}

/// Generates Table IV.
pub fn table4(results: &StudyResults, config: &SrrConfig) -> Vec<Table4Row> {
    results
        .analysable_ids()
        .into_iter()
        .filter_map(|id| {
            let golden = results.golden(&id)?;
            let faulty = results.faulty(&id)?;
            let nfi = steering_reversal_rate(&golden.log.steering_series(), config)
                .map(|r| r.rate_per_min);
            let fi = steering_reversal_rate(&faulty.log.steering_series(), config)
                .map(|r| r.rate_per_min);
            let per_fault: [Option<f64>; 5] = std::array::from_fn(|i| {
                srr_for_fault(faulty, PaperFault::ALL[i], config).map(|r| r.rate_per_min)
            });
            let present: Vec<f64> = per_fault.iter().flatten().copied().collect();
            let avg = if present.is_empty() {
                None
            } else {
                Some(present.iter().sum::<f64>() / present.len() as f64)
            };
            Some(Table4Row {
                test: id,
                nfi,
                fi,
                per_fault,
                avg,
            })
        })
        .collect()
}

/// Collision analysis over the analysable records (§VI.E).
pub fn collision_summary(results: &StudyResults) -> CollisionAnalysis {
    CollisionAnalysis::analyze(&results.analysable_records())
}

/// Questionnaire aggregation (§VI.F).
pub fn questionnaire_summary(results: &StudyResults) -> QuestionnaireSummary {
    QuestionnaireSummary::aggregate(&results.questionnaires)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared quick study for all assertions (runs are the expensive
    /// part; the table generators are cheap).
    fn quick_study() -> StudyResults {
        run_study_with_exec(424242, &ScenarioConfig::quick(), crate::default_jobs(), 1)
    }

    #[test]
    fn study_structure_and_tables() {
        let results = quick_study();
        assert_eq!(results.roster.len(), 12);
        assert_eq!(results.records.len(), 24);
        assert_eq!(results.questionnaires.len(), 11);
        assert_eq!(results.analysable_ids().len(), 11);
        assert!(!results.analysable_ids().iter().any(|id| id == "T7"));

        // Table II: 11 rows, totals consistent, at least one injection.
        let t2 = table2(&results);
        assert_eq!(t2.len(), 11);
        for row in &t2 {
            assert_eq!(row.counts.iter().sum::<usize>(), row.total);
            assert!(row.total >= 1, "{} had no injections", row.test);
        }

        // Table III: T1–T4 excluded by missing lead data.
        let t3 = table3(&results, &TtcConfig::default());
        for missing in ["T1", "T2", "T3", "T4"] {
            assert!(
                t3.iter().all(|r| r.test != missing),
                "{missing} must be absent"
            );
        }
        assert!(t3.len() >= 5, "T5..T12 rows expected, got {}", t3.len());

        // Table IV: redacted steering shows as absent cells.
        let t4 = table4(&results, &SrrConfig::default());
        assert_eq!(t4.len(), 11);
        let row_t3 = t4.iter().find(|r| r.test == "T3").unwrap();
        assert!(row_t3.nfi.is_none(), "T3 NFI steering was lost");
        for id in ["T8", "T10", "T12"] {
            let row = t4.iter().find(|r| r.test == *id).unwrap();
            assert!(row.fi.is_none(), "{id} FI steering was lost");
            assert!(row.avg.is_none());
        }
        let row_t5 = t4.iter().find(|r| r.test == "T5").unwrap();
        assert!(row_t5.nfi.is_some() && row_t5.fi.is_some());

        // Collision + questionnaire summaries exist and are consistent.
        let collisions = collision_summary(&results);
        assert_eq!(collisions.subjects, 11);
        let q = questionnaire_summary(&results);
        assert_eq!(q.respondents, 11);
        assert_eq!(q.virtual_testing_useful, 11);
        assert_eq!(q.with_racing_games, 9);
        assert!(q.mean_qoe >= 1.0 && q.mean_qoe <= 5.0);

        // Lookups.
        assert!(results.golden("T5").is_some());
        assert!(results.faulty("T5").is_some());
        assert!(results.golden("nope").is_none());
    }
}

//! The campaign observatory: streaming result store, checkpoint/resume,
//! and live progress for the study campaign.
//!
//! The table generators in [`crate::study`] need every [`RunRecord`] in
//! memory, which is fine for 36 runs and hopeless for the population-scale
//! campaigns of ROADMAP item 1. The observatory is the streaming
//! alternative: as each run completes — on whichever worker, in whatever
//! order — it is boiled down to a [`RunSummary`] and
//!
//! * folded into the order-insensitive [`CampaignStore`] (per-cell
//!   collision/TTC/SRR aggregates, merged histograms, run-digest folds),
//! * appended as one JSON line to the checkpoint stream (if enabled), and
//! * counted into the live [`ProgressMeter`] on stderr (if enabled).
//!
//! A campaign interrupted at any point can be resumed from its checkpoint:
//! [`run_campaign`] folds the checkpointed summaries back in (bit-exactly
//! — every summary field is an integer or string) and executes only the
//! runs the store does not contain. The resulting store fingerprint is
//! identical to a single-shot campaign's, for any interrupt point and any
//! `--jobs`/`--batch` schedule; `tests/resume_equivalence.rs` and the CI
//! `resume-equivalence` job hold that equality.
//!
//! [`RunRecord`]: rdsim_core::RunRecord

use crate::digest::run_digest;
use crate::executor::{execute_ordered, ChunkDone};
use crate::study::{assemble_study, run_cell, study_job_list, training_config};
use crate::{paper_roster, RunOutput, ScenarioConfig, StudyResults};
use rdsim_core::{PaperFault, RunKind, ScheduledFault};
use rdsim_metrics::{
    srr_for_fault, steering_reversal_rate, ttc_series, ttc_stats_for_fault, SrrConfig, TtcConfig,
    TtcStats,
};
use rdsim_obs::{
    to_micro, CampaignStore, CellSample, Histogram, JsonValue, ProgressMeter, RunKey, RunSummary,
    RunTelemetry,
};
use rdsim_units::{SimDuration, SimTime};
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The study's scenario name — the first component of every [`RunKey`].
pub const SCENARIO: &str = "town05";

/// Checkpoint stream format tag (the header line's `format` field).
const CHECKPOINT_FORMAT: &str = "rdsim-campaign-checkpoint";

/// Checkpoint stream version; bump on any incompatible summary change
/// (v2: cells gained `fault_exposure_us`).
const CHECKPOINT_VERSION: u64 = 2;

/// A crash is attributed to a fault window when it happens inside the
/// window or within this long after it ends (delayed consequences — the
/// same grace the §VI.E collision analysis uses).
const ATTRIBUTION_GRACE: SimDuration = SimDuration::from_secs(5);

/// Lowercase slug of a run kind — the [`RunKey::kind`] component and the
/// `run:*` condition suffix.
pub fn kind_slug(kind: RunKind) -> &'static str {
    match kind {
        RunKind::Training => "training",
        RunKind::Golden => "golden",
        RunKind::Faulty => "faulty",
    }
}

/// The store condition label of a paper fault. Magnitudes are zero-padded
/// so lexicographic cell order equals magnitude order within each axis
/// (`delay:05ms < delay:25ms < delay:50ms`).
pub fn fault_condition(fault: PaperFault) -> &'static str {
    match fault {
        PaperFault::Delay5ms => "delay:05ms",
        PaperFault::Delay25ms => "delay:25ms",
        PaperFault::Delay50ms => "delay:50ms",
        PaperFault::Loss2Pct => "loss:02pct",
        PaperFault::Loss5Pct => "loss:05pct",
    }
}

/// Whether a crash at `t` is attributed to a scheduled fault window (first
/// matching window in schedule order wins, mirroring the §VI.E analysis).
fn attributable(s: &ScheduledFault, t: SimTime) -> bool {
    s.window.contains(t)
        || (t >= s.window.end() && t.saturating_since(s.window.end()) < ATTRIBUTION_GRACE)
}

/// Boils one finished run down to its streamable summary: identity, run
/// digest, the whole-run `run:<kind>` cell, one cell per injected fault
/// condition, and the mergeable telemetry (counters + histograms).
///
/// `wall_ns` is the run's wall-clock cost for ETA/utilization reporting;
/// it never reaches any fingerprint, so summaries of the same run from
/// different machines still fold to identical store content.
pub fn summarize_run(scenario: &str, seed: u64, output: &RunOutput, wall_ns: u64) -> RunSummary {
    let record = &output.record;
    let kind = record.kind.expect("protocol runs are kinded");
    let mut summary = RunSummary {
        scenario: scenario.to_owned(),
        subject: record.subject.clone(),
        kind: kind_slug(kind).to_owned(),
        seed,
        digest: run_digest(output),
        wall_ns,
        ..RunSummary::default()
    };
    summary.set_telemetry(&output.telemetry);

    let ttc_cfg = TtcConfig::default();
    let srr_cfg = SrrConfig::default();

    // The whole-run cell: one exposure per run.
    let series = ttc_series(&record.log, &ttc_cfg);
    let stats = TtcStats::from_samples(&series, &ttc_cfg);
    let srr = steering_reversal_rate(&record.log.steering_series(), &srr_cfg);
    let collisions = record.log.collisions().len() as u64;
    summary.cells.push(CellSample {
        condition: format!("run:{}", kind_slug(kind)),
        exposures: 1,
        collided: u64::from(collisions > 0),
        collisions,
        ttc_breaches: stats.as_ref().map_or(0, |s| s.violations as u64),
        ttc_samples: stats.as_ref().map_or(0, |s| s.samples as u64),
        srr_reversals: srr.as_ref().map_or(0, |r| r.reversals as u64),
        srr_rate_micro: srr.as_ref().map_or(0, |r| to_micro(r.rate_per_min)),
        srr_runs: u64::from(srr.is_some()),
        fault_exposure_us: record
            .schedule
            .iter()
            .map(|s| s.window.duration.as_micros())
            .sum(),
    });

    // A replayed measurement is a first-class condition: the whole run is
    // one exposure of its `trace:<label>` cell (stratum-compatible with
    // the sampler grid and the store's cell keys). Exposure time is the
    // impaired fraction of the replay, recovered from the logged add /
    // delete edge pairs.
    if let Some(condition) = &output.trace_condition {
        let mut impaired_us = 0u64;
        let mut opened: Option<SimTime> = None;
        for ev in record.log.fault_events() {
            match ev.action {
                rdsim_netem::InjectionAction::Added => opened = Some(ev.time),
                rdsim_netem::InjectionAction::Deleted => {
                    if let Some(start) = opened.take() {
                        impaired_us += ev.time.saturating_since(start).as_micros();
                    }
                }
            }
        }
        summary.cells.push(CellSample {
            condition: condition.clone(),
            exposures: 1,
            collided: u64::from(collisions > 0),
            collisions,
            ttc_breaches: stats.as_ref().map_or(0, |s| s.violations as u64),
            ttc_samples: stats.as_ref().map_or(0, |s| s.samples as u64),
            srr_reversals: srr.as_ref().map_or(0, |r| r.reversals as u64),
            srr_rate_micro: srr.as_ref().map_or(0, |r| to_micro(r.rate_per_min)),
            srr_runs: u64::from(srr.is_some()),
            fault_exposure_us: impaired_us,
        });
    }

    // Per-fault-condition cells: each injection window is one exposure.
    let schedule = &record.schedule;
    if !schedule.is_empty() {
        let mut per_window = vec![0u64; schedule.len()];
        for c in record.log.collisions() {
            if let Some(idx) = schedule.iter().position(|s| attributable(s, c.time)) {
                per_window[idx] += 1;
            }
        }
        for fault in PaperFault::ALL {
            let windows: Vec<usize> = schedule
                .iter()
                .enumerate()
                .filter(|(_, s)| s.fault == fault)
                .map(|(i, _)| i)
                .collect();
            if windows.is_empty() {
                continue;
            }
            let ttc = ttc_stats_for_fault(record, fault, &ttc_cfg);
            let srr = srr_for_fault(record, fault, &srr_cfg);
            summary.cells.push(CellSample {
                condition: fault_condition(fault).to_owned(),
                exposures: windows.len() as u64,
                collided: windows.iter().filter(|&&i| per_window[i] > 0).count() as u64,
                collisions: windows.iter().map(|&i| per_window[i]).sum(),
                ttc_breaches: ttc.as_ref().map_or(0, |s| s.violations as u64),
                ttc_samples: ttc.as_ref().map_or(0, |s| s.samples as u64),
                srr_reversals: srr.as_ref().map_or(0, |r| r.reversals as u64),
                srr_rate_micro: srr.as_ref().map_or(0, |r| to_micro(r.rate_per_min)),
                srr_runs: u64::from(srr.is_some()),
                fault_exposure_us: windows
                    .iter()
                    .map(|&i| schedule[i].window.duration.as_micros())
                    .sum(),
            });
        }
    }
    summary
}

/// The checkpoint stream's header line. One JSON object identifying the
/// format, the campaign seed, the scenario and the total run count; the
/// loader refuses streams whose identity does not match the resuming
/// campaign.
fn checkpoint_header(seed: u64, total: usize) -> String {
    format!(
        "{{\"format\":\"{CHECKPOINT_FORMAT}\",\"version\":{CHECKPOINT_VERSION},\
         \"seed\":{seed},\"scenario\":\"{SCENARIO}\",\"total\":{total}}}"
    )
}

/// Loads a checkpoint stream written by [`run_campaign`] and folds every
/// summary into a fresh store.
///
/// Validates the header against the resuming campaign's `seed` and
/// `total`. A torn *final* line (a crash mid-append) is skipped; a
/// malformed line anywhere else is an error. Duplicate summaries fold
/// idempotently ([`CampaignStore::fold`]).
pub fn load_checkpoint(path: &Path, seed: u64, total: usize) -> Result<CampaignStore, String> {
    let mut store = CampaignStore::new();
    for summary in load_checkpoint_summaries(path, seed, total)? {
        store.fold(&summary);
    }
    Ok(store)
}

/// Parses a checkpoint stream into its summaries *without* folding them —
/// the adaptive campaign needs to replay resumed runs round by round so
/// the sampler's per-round view of the store never sees ahead of the
/// barrier it is planning at. Same validation and torn-tail semantics as
/// [`load_checkpoint`].
pub(crate) fn load_checkpoint_summaries(
    path: &Path,
    seed: u64,
    total: usize,
) -> Result<Vec<RunSummary>, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| format!("checkpoint {} is empty", path.display()))?;
    let header =
        JsonValue::parse(header).map_err(|e| format!("checkpoint header is not JSON: {e}"))?;
    let field = |name: &str| header.get(name).and_then(JsonValue::as_u64);
    if header.get("format").and_then(JsonValue::as_str) != Some(CHECKPOINT_FORMAT) {
        return Err(format!("{} is not a campaign checkpoint", path.display()));
    }
    if field("version") != Some(CHECKPOINT_VERSION) {
        return Err(format!(
            "checkpoint version mismatch (want {CHECKPOINT_VERSION})"
        ));
    }
    if field("seed") != Some(seed) {
        return Err(format!(
            "checkpoint is for seed {}, campaign runs seed {seed}",
            field("seed").unwrap_or(0)
        ));
    }
    if field("total") != Some(total as u64) {
        return Err(format!(
            "checkpoint expects {} total runs, campaign has {total}",
            field("total").unwrap_or(0)
        ));
    }
    let mut summaries = Vec::new();
    let last = text.lines().count().saturating_sub(1);
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match RunSummary::from_json(line) {
            Ok(summary) => summaries.push(summary),
            // A process killed mid-append leaves at most one torn line,
            // necessarily the last; everything before it is intact.
            Err(_) if i == last => break,
            Err(e) => return Err(format!("checkpoint line {}: {e}", i + 1)),
        }
    }
    Ok(summaries)
}

/// Opens the checkpoint stream for appending summaries: creates the
/// parent directory, then either appends to an existing stream (resume)
/// or creates a fresh one with a validated header line. Shared by the
/// study campaign and the adaptive population campaign.
pub(crate) fn open_checkpoint_writer(
    path: &Path,
    resume: bool,
    seed: u64,
    total: usize,
) -> Result<Mutex<BufWriter<fs::File>>, String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let file = if resume {
        fs::OpenOptions::new().append(true).open(path)
    } else {
        fs::File::create(path)
    }
    .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    if !resume {
        writeln!(w, "{}", checkpoint_header(seed, total))
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write checkpoint header: {e}"))?;
    }
    Ok(Mutex::new(w))
}

/// How [`run_campaign`] should run the study campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The campaign seed.
    pub seed: u64,
    /// The scenario configuration shared by all runs.
    pub config: ScenarioConfig,
    /// Worker threads.
    pub jobs: usize,
    /// Runs per executor task (the chunk a worker takes at a time).
    pub batch: usize,
    /// Render the live progress line on stderr.
    pub progress: bool,
    /// Append each completed run's summary to this JSONL checkpoint.
    pub checkpoint: Option<PathBuf>,
    /// Fold the checkpoint back in first and execute only missing runs
    /// (requires `checkpoint`).
    pub resume: bool,
    /// Stop after this many runs of this invocation (deterministic: the
    /// first N remaining runs in job order execute; which ones *finish
    /// first* does not matter). For exercising interrupt/resume.
    pub interrupt_after: Option<usize>,
}

impl CampaignOptions {
    /// Options for a plain single-shot campaign.
    pub fn new(seed: u64, config: ScenarioConfig, jobs: usize, batch: usize) -> Self {
        CampaignOptions {
            seed,
            config,
            jobs,
            batch,
            progress: false,
            checkpoint: None,
            resume: false,
            interrupt_after: None,
        }
    }
}

/// What a campaign invocation produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The full in-memory study — present only when this invocation
    /// executed *every* run fresh (no resume, no interrupt): resumed runs
    /// exist only as summaries, which cannot rebuild the records the
    /// table generators need. The store below is always complete for the
    /// runs that ran.
    pub results: Option<StudyResults>,
    /// The streaming aggregate over every folded run.
    pub store: CampaignStore,
    /// Fleet-level scheduling telemetry (`executor.*` instruments: queue
    /// depth, per-worker runs completed, chunk cost) for this invocation.
    /// Excluded from every fingerprint by the [`rdsim_obs::FLEET_PREFIX`]
    /// convention.
    pub fleet: RunTelemetry,
    /// Runs in the store (resumed + fresh).
    pub completed: usize,
    /// Runs the full campaign comprises.
    pub total: usize,
    /// Runs adopted from the checkpoint rather than executed.
    pub resumed: usize,
}

/// Runs the study campaign through the observatory: parallel
/// execution with per-run streaming into the [`CampaignStore`], optional
/// JSONL checkpointing, optional resume, and optional live progress.
///
/// The store fingerprint of `resume(checkpoint) ∪ remaining runs` is
/// bit-identical to a single-shot campaign's, for every interrupt point
/// and every `jobs`/`batch` combination.
pub fn run_campaign(opts: &CampaignOptions) -> Result<CampaignOutcome, String> {
    let roster = paper_roster();
    let job_list = study_job_list(&roster);
    let total = job_list.len();
    let batch = opts.batch.max(1);

    let mut store = CampaignStore::new();
    let mut resumed = 0usize;
    if opts.resume {
        let path = opts
            .checkpoint
            .as_ref()
            .ok_or("resume requires a checkpoint path")?;
        store = load_checkpoint(path, opts.seed, total)?;
        resumed = store.runs() as usize;
    }

    let remaining: Vec<(usize, RunKind)> = job_list
        .into_iter()
        .filter(|&(subject, kind)| {
            !store.contains(&RunKey {
                scenario: SCENARIO.to_owned(),
                subject: roster[subject].profile.id.clone(),
                kind: kind_slug(kind).to_owned(),
            })
        })
        .collect();
    let interrupted = opts.interrupt_after.is_some_and(|n| n < remaining.len());
    let remaining: Vec<(usize, RunKind)> = match opts.interrupt_after {
        Some(n) => remaining.into_iter().take(n).collect(),
        None => remaining,
    };

    // The checkpoint writer: header + one summary line per completed run,
    // flushed per line so an interrupt loses at most the line in flight.
    let writer: Option<Mutex<BufWriter<fs::File>>> = match &opts.checkpoint {
        Some(path) => Some(open_checkpoint_writer(path, opts.resume, opts.seed, total)?),
        None => None,
    };

    // Fleet instruments, accumulated lock-free on the worker threads.
    let chunks = remaining.len().div_ceil(batch);
    let workers = opts.jobs.max(1).min(chunks.max(1));
    let meter = Mutex::new(ProgressMeter::new(remaining.len() as u64, workers));
    let chunk_ns = Histogram::new();
    let queue_depth_max = AtomicU64::new(0);
    let write_failed = AtomicBool::new(false);
    let store_mx = Mutex::new(store);
    let started = Instant::now();

    let training_cfg = training_config(&opts.config);
    let remaining_jobs = remaining.clone();
    let outputs: Vec<RunOutput> = execute_ordered(
        remaining_jobs,
        opts.jobs,
        batch,
        |chunk| {
            chunk
                .into_iter()
                .map(|(subject, kind)| {
                    run_cell(
                        opts.seed,
                        &roster[subject],
                        kind,
                        &opts.config,
                        &training_cfg,
                    )
                })
                .collect()
        },
        |done: ChunkDone<'_, RunOutput>| {
            // The hook sees only the chunk's wall time; attribute it
            // evenly to the chunk's runs.
            let per_run_ns = done.busy_ns / done.results.len().max(1) as u64;
            chunk_ns.record(done.busy_ns);
            queue_depth_max.fetch_max(done.pending as u64, Ordering::Relaxed);
            for (i, output) in done.results.iter().enumerate() {
                let (subject, kind) = remaining[done.chunk * batch + i];
                let seed = crate::seeds::run_seed(opts.seed, &roster[subject].profile.id, kind);
                let summary = summarize_run(SCENARIO, seed, output, per_run_ns);
                if let Some(w) = &writer {
                    let mut w = w.lock().expect("checkpoint writer lock");
                    if writeln!(w, "{}", summary.to_json())
                        .and_then(|()| w.flush())
                        .is_err()
                    {
                        write_failed.store(true, Ordering::Relaxed);
                    }
                }
                store_mx.lock().expect("store lock").fold(&summary);
                let mut m = meter.lock().expect("meter lock");
                m.on_run(done.worker, per_run_ns, output.record.log.collided());
                if opts.progress {
                    m.render_stderr(started.elapsed().as_nanos() as u64);
                }
            }
        },
    );

    if write_failed.load(Ordering::Relaxed) {
        return Err("failed to append to the checkpoint stream".to_owned());
    }
    let meter = meter.into_inner().expect("meter lock");
    if opts.progress && meter.done() > 0 {
        meter.finish_stderr(started.elapsed().as_nanos() as u64);
    }

    let mut fleet = RunTelemetry::default();
    fleet
        .counters
        .insert("executor.runs_completed".to_owned(), meter.done());
    for (i, w) in meter.workers().iter().enumerate() {
        fleet
            .counters
            .insert(format!("executor.worker.{i}.runs_completed"), w.runs);
    }
    fleet.gauges.insert(
        "executor.queue_depth.max".to_owned(),
        queue_depth_max.load(Ordering::Relaxed) as f64,
    );
    fleet
        .histograms
        .insert("executor.chunk_ns".to_owned(), chunk_ns.snapshot());
    fleet.wall_elapsed_ns = started.elapsed().as_nanos() as u64;

    let results = if resumed == 0 && !interrupted {
        let mut results = assemble_study(opts.seed, &opts.config, roster, outputs);
        if opts.config.telemetry {
            // Fleet instruments ride along in campaign telemetry reports;
            // fingerprints skip the executor.* prefix, so the campaign
            // digest is unchanged by them.
            results.telemetry.merge(&fleet);
        }
        Some(results)
    } else {
        None
    };

    let store = store_mx.into_inner().expect("store lock");
    Ok(CampaignOutcome {
        completed: store.runs() as usize,
        results,
        store,
        fleet,
        total,
        resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_protocol;
    use proptest::prelude::*;
    use rdsim_operator::SubjectProfile;

    fn short_config() -> ScenarioConfig {
        ScenarioConfig {
            progress_target: Some(150.0),
            ..ScenarioConfig::quick()
        }
    }

    #[test]
    fn fault_conditions_are_padded_and_ordered() {
        let labels: Vec<&str> = PaperFault::ALL.into_iter().map(fault_condition).collect();
        let delays: Vec<&&str> = labels.iter().filter(|l| l.starts_with("delay")).collect();
        let mut sorted = delays.clone();
        sorted.sort();
        assert_eq!(delays, sorted, "lexicographic == magnitude order");
        assert_eq!(
            labels,
            vec![
                "delay:05ms",
                "delay:25ms",
                "delay:50ms",
                "loss:02pct",
                "loss:05pct"
            ]
        );
    }

    #[test]
    fn summaries_cover_run_and_fault_cells() {
        let out = run_protocol(
            &SubjectProfile::typical("TQ"),
            RunKind::Faulty,
            101,
            &short_config(),
        );
        let summary = summarize_run(SCENARIO, 101, &out, 5_000);
        assert_eq!(summary.key().kind, "faulty");
        assert_eq!(summary.wall_ns, 5_000);
        let run_cell = summary
            .cells
            .iter()
            .find(|c| c.condition == "run:faulty")
            .expect("whole-run cell");
        assert_eq!(run_cell.exposures, 1);
        // One cell per distinct injected fault, each with the window count
        // as exposures.
        let fault_cells: Vec<&CellSample> = summary
            .cells
            .iter()
            .filter(|c| !c.condition.starts_with("run:"))
            .collect();
        let scheduled: u64 = fault_cells.iter().map(|c| c.exposures).sum();
        assert_eq!(scheduled as usize, out.record.schedule.len());
        assert!(!fault_cells.is_empty(), "quick faulty run injects faults");
        // Time-in-fault exposure: the whole-run cell carries the total,
        // which the per-fault cells partition exactly.
        assert!(run_cell.fault_exposure_us > 0);
        assert_eq!(
            run_cell.fault_exposure_us,
            fault_cells.iter().map(|c| c.fault_exposure_us).sum::<u64>()
        );
        for cell in &fault_cells {
            assert!(cell.collided <= cell.exposures);
            assert!(cell.ttc_breaches <= cell.ttc_samples);
        }
        // Summaries are deterministic given the same output.
        assert_eq!(summary, summarize_run(SCENARIO, 101, &out, 5_000));
        // And round-trip through the checkpoint line format.
        let line = summary.to_json();
        assert_eq!(RunSummary::from_json(&line).expect("parse"), summary);
    }

    #[test]
    fn trace_runs_register_a_trace_condition_cell() {
        let trace = rdsim_netem::TraceSchedule::parse(
            "lab",
            "{\"t\": 0.0, \"delay_ms\": 40.0, \"loss_pct\": 1.0}\n\
             {\"t\": 4.0}\n\
             {\"t\": 8.0, \"delay_ms\": 25.0, \"rate_kbit\": 8000}\n\
             {\"t\": 12.0, \"delay_ms\": 25.0, \"rate_kbit\": 8000}\n",
        )
        .expect("valid trace");
        let config = ScenarioConfig {
            ambient_trace: Some(trace),
            ..short_config()
        };
        let out = run_protocol(&SubjectProfile::typical("TQ"), RunKind::Golden, 9, &config);
        let summary = summarize_run(SCENARIO, 9, &out, 1);
        let cell = summary
            .cells
            .iter()
            .find(|c| c.condition == "trace:lab")
            .expect("the trace is a first-class condition cell");
        assert_eq!(cell.exposures, 1);
        assert!(
            cell.fault_exposure_us > 0,
            "impaired time recovered from the edge log"
        );
        // The cell key survives the checkpoint line format, so resumed
        // campaigns fold trace cells exactly like fault cells.
        let line = summary.to_json();
        let parsed = RunSummary::from_json(&line).expect("parse");
        assert_eq!(parsed, summary);
        // A trace-less run registers no trace cell.
        let plain = run_protocol(
            &SubjectProfile::typical("TQ"),
            RunKind::Golden,
            9,
            &short_config(),
        );
        let plain_summary = summarize_run(SCENARIO, 9, &plain, 1);
        assert!(plain_summary
            .cells
            .iter()
            .all(|c| !c.condition.starts_with("trace:")));
    }

    #[test]
    fn checkpoint_header_roundtrip_and_validation() {
        let dir = std::env::temp_dir().join("rdsim-obs-test-checkpoint");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("header.jsonl");
        fs::write(&path, format!("{}\n", checkpoint_header(7, 36))).expect("write");
        assert_eq!(load_checkpoint(&path, 7, 36).expect("load").runs(), 0);
        assert!(load_checkpoint(&path, 8, 36).is_err(), "seed mismatch");
        assert!(load_checkpoint(&path, 7, 35).is_err(), "total mismatch");
        fs::write(&path, "not json\n").expect("write");
        assert!(load_checkpoint(&path, 7, 36).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_checkpoint_line_is_skipped() {
        let out = run_protocol(
            &SubjectProfile::typical("TQ"),
            RunKind::Golden,
            44,
            &short_config(),
        );
        let summary = summarize_run(SCENARIO, 44, &out, 1);
        let dir = std::env::temp_dir().join("rdsim-obs-test-torn");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("torn.jsonl");
        let line = summary.to_json();
        fs::write(
            &path,
            format!(
                "{}\n{line}\n{}",
                checkpoint_header(44, 36),
                &line[..line.len() / 2]
            ),
        )
        .expect("write");
        let store = load_checkpoint(&path, 44, 36).expect("load tolerates torn tail");
        assert_eq!(store.runs(), 1);
        // The same torn content *not* at the tail is corruption.
        fs::write(
            &path,
            format!(
                "{}\n{}\n{line}\n",
                checkpoint_header(44, 36),
                &line[..line.len() / 2]
            ),
        )
        .expect("write");
        assert!(load_checkpoint(&path, 44, 36).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Printable ASCII lines, blank ones included.
    fn ascii_line() -> impl Strategy<Value = String> {
        proptest::collection::vec(32u8..127, 0..48)
            .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
    }

    /// A line nested `depth` arrays or objects deep: unterminated, or
    /// balanced and so well-formed but for its depth.
    fn nested_line(shape: u8, depth: usize) -> String {
        match shape {
            0 => "[".repeat(depth),
            1 => format!("{{\"cells\":{}{}}}", "[".repeat(depth), "]".repeat(depth)),
            _ => format!("{}0{}", "{\"a\":".repeat(depth), "}".repeat(depth)),
        }
    }

    proptest! {
        #[test]
        fn malformed_checkpoint_lines_are_errors(
            ascii in proptest::collection::vec(ascii_line(), 8),
            nested in proptest::collection::vec((0u8..3, 50_000usize..200_000), 2),
        ) {
            let dir = std::env::temp_dir()
                .join(format!("rdsim-checkpoint-props-{}", std::process::id()));
            fs::create_dir_all(&dir).expect("tmp dir");
            let path = dir.join("bad.jsonl");
            let header = checkpoint_header(3, 36);
            // A valid summary after the bad line, so the bad line is never
            // the torn tail a crash may leave.
            let valid = RunSummary {
                scenario: SCENARIO.into(),
                subject: "T1".into(),
                kind: "golden".into(),
                ..RunSummary::default()
            }
            .to_json();
            let lines = ascii
                .iter()
                .cloned()
                .chain(nested.iter().map(|&(shape, depth)| nested_line(shape, depth)));
            for line in lines {
                fs::write(&path, format!("{line}\n{valid}\n")).expect("write");
                let err = load_checkpoint(&path, 3, 36).expect_err("a bad header was accepted");
                prop_assert!(
                    err.starts_with("checkpoint header is not JSON")
                        || err.ends_with("is not a campaign checkpoint"),
                    "{}",
                    err
                );
                fs::write(&path, format!("{header}\n{line}\n{valid}\n")).expect("write");
                let loaded = load_checkpoint(&path, 3, 36);
                if line.trim().is_empty() {
                    // Blank lines are skipped by design.
                    prop_assert_eq!(loaded.map(|store| store.runs()), Ok(1));
                } else {
                    let err = loaded.expect_err("a bad line was accepted");
                    prop_assert!(err.starts_with("checkpoint line 2:"), "{}", err);
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

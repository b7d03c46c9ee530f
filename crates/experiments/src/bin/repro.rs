//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all|table1|table2|table3|table4|fig4|collisions|questionnaire|
//!        validity|model-vehicle] [--seed N] [--quick] [--jobs N]
//!       [--batch N] [--telemetry] [--telemetry-out FILE]
//!       [--trace-in FILE] [--trace-out DIR] [--forensics DIR] [--progress]
//!       [--report-out DIR] [--checkpoint FILE] [--resume]
//!       [--interrupt-after N]
//!       [--campaign RUNS] [--population N] [--sampler NAME] [--round N]
//!       [--min-pulls N]
//! ```
//!
//! `--quick` shortens the runs (for smoke testing); the full study drives
//! two laps of the course per run, as the experiments in `EXPERIMENTS.md`
//! were recorded. `--jobs N` runs the campaign's 36 runs, and the §VIII
//! sweep points, on N worker threads (default: available parallelism);
//! `--batch N` hands the workers N runs per executor task, which a worker
//! runs one after another (default: 1 for the roster study, 16 for
//! `--campaign`; the chunk clamps to the jobs remaining). Results are
//! bit-identical for every jobs × batch combination — the printed
//! campaign digest is the proof, and the CI `parallel-equivalence` job
//! holds it for both knobs. `--telemetry` records pipeline telemetry during the
//! study runs and appends a campaign report (frame/command age quantiles,
//! per-fault-window packet accounting, stage timings, steps/sec).
//! `--telemetry-out FILE` additionally writes the campaign telemetry as
//! machine-readable JSON to FILE (the stdout table is unchanged, and is
//! only printed when `--telemetry` itself is passed).
//! `--trace-in FILE` replays a measured network trace (JSONL or CSV of
//! `t, delay_ms, jitter_ms, loss_pct, rate_kbit` samples; see
//! `examples/traces/`) over every study run: the trace compiles into
//! deterministic config edges the fault injector replays, the file stem
//! becomes the run's `trace:<stem>` campaign condition, and the printed
//! campaign digest covers both the trace's identity and its content —
//! byte-identical across `--jobs`/`--batch` (the CI
//! `trace-replay-determinism` job holds it).
//! `--trace-out DIR` retains each study run's flight-recorder snapshot
//! and writes it as Chrome/Perfetto `trace_event` JSON
//! (`DIR/<subject>_<kind>.trace.json`, loadable in ui.perfetto.dev or
//! `chrome://tracing`), plus an incident dump per safety incident
//! (`DIR/incidents/…`, the 12 s window around each collision, TTC breach,
//! or fault edge).
//! `--forensics DIR` enables the per-window safety timeline and writes
//! incident forensics: one timeline JSON per analysable run
//! (`DIR/<subject>_<kind>_timeline.json`) and one dossier per safety
//! incident (`DIR/incidents/<subject>_<kind>_<nn>_<label>.json`) splicing
//! the ±5 s timeline windows, the flight-recorder slice, the overlapping
//! fault windows, and the operator command history around the mark. Both
//! are deterministic: byte-identical for every `--jobs`/`--batch`
//! schedule (the CI `forensics-determinism` job diffs them).
//!
//! The remaining flags engage the **campaign observatory** (streaming
//! per-run aggregation; see `DESIGN.md` §11). `--progress` renders a live
//! status line on stderr (runs done/total, EWMA ETA, rolling collision
//! rate, worker utilization). `--checkpoint FILE` appends each completed
//! run's summary to a JSONL stream; `--resume` folds that stream back in
//! and executes only the missing runs. `--interrupt-after N` stops after N
//! runs (for exercising resume). `--report-out DIR` writes
//! `DIR/campaign.json` (deterministic: per-cell aggregates with Wilson
//! CIs and the pooled delay/loss risk surface — byte-diffable across
//! schedules and across interrupt/resume) and `DIR/timings.json`
//! (wall-clock rollups; not deterministic). With any observatory flag the
//! run prints a `campaign store digest:` line whose bytes are invariant
//! across `--jobs`, `--batch`, and interrupt/resume splits — the CI
//! `resume-equivalence` job diffs that line and `campaign.json`.
//!
//! `--campaign RUNS` replaces the 12-subject study with an **adaptive
//! population campaign** (DESIGN §13): `--population N` (default 24)
//! subjects are synthesized deterministically from the seed, the
//! (stratum × fault) grid is sampled round by round under `--sampler
//! {uniform,ucb,ci-width}` (default `ucb`, `--round N` runs per round,
//! default 8, `--min-pulls N` support floor per cell, default 2), and
//! stdout reports the population digest, every round's
//! allocation, and the campaign store digest — all byte-identical across
//! `--jobs`/`--batch` and across interrupt/resume (the CI
//! `campaign-sampler-determinism` job diffs them). `--checkpoint` /
//! `--resume` / `--interrupt-after` / `--progress` work as above;
//! `--report-out DIR` additionally writes `DIR/sampler.json`, the
//! deterministic per-round decision log.

use rdsim_core::{IncidentKind, RunKind};
use rdsim_experiments::{
    campaign_digest, collision_summary, decision_log_json, default_jobs, fault_condition, figure4,
    model_vehicle_sweep, questionnaire_summary, run_campaign, run_population_campaign,
    run_study_with_exec, store_digest, table2, table3, table4, validity_sweep, CampaignOptions,
    CampaignOutcome, PopulationOptions, SamplerConfig, SamplerPolicy, ScenarioConfig, StationSpec,
    StudyResults, SweepReport, TextTable,
};
use rdsim_metrics::{SrrConfig, TtcConfig, TtcStats};
use rdsim_netem::TraceSchedule;
use rdsim_obs::{write_f64, write_json_string, CampaignStore, TraceLog, Z_95};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_owned();
    let mut seed = 424242u64;
    let mut quick = false;
    let mut jobs = default_jobs();
    let mut batch: Option<usize> = None;
    let mut telemetry = false;
    let mut telemetry_out: Option<PathBuf> = None;
    let mut trace_in: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut forensics: Option<PathBuf> = None;
    let mut progress = false;
    let mut report_out: Option<PathBuf> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut resume = false;
    let mut interrupt_after: Option<usize> = None;
    let mut campaign: Option<u64> = None;
    let mut population = 24usize;
    let mut sampler = SamplerPolicy::Ucb;
    let mut round = 8usize;
    let mut min_pulls: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs needs an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--batch" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => batch = Some(n),
                _ => {
                    eprintln!("--batch needs an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => quick = true,
            "--telemetry" => telemetry = true,
            "--telemetry-out" => match iter.next() {
                Some(file) => telemetry_out = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--telemetry-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-in" => match iter.next() {
                Some(file) => trace_in = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--trace-in needs a trace file (JSONL or CSV)");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match iter.next() {
                Some(dir) => trace_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--trace-out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--forensics" => match iter.next() {
                Some(dir) => forensics = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--forensics needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--progress" => progress = true,
            "--resume" => resume = true,
            "--report-out" => match iter.next() {
                Some(dir) => report_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--report-out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint" => match iter.next() {
                Some(file) => checkpoint = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--checkpoint needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--interrupt-after" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => interrupt_after = Some(n),
                None => {
                    eprintln!("--interrupt-after needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--campaign" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => campaign = Some(n),
                _ => {
                    eprintln!("--campaign needs a run budget >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--population" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => population = n,
                _ => {
                    eprintln!("--population needs an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--sampler" => match iter.next().and_then(|s| SamplerPolicy::parse(s)) {
                Some(policy) => sampler = policy,
                None => {
                    eprintln!("--sampler needs one of: uniform, ucb, ci-width");
                    return ExitCode::FAILURE;
                }
            },
            "--round" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => round = n,
                _ => {
                    eprintln!("--round needs an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--min-pulls" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => min_pulls = Some(n),
                _ => {
                    eprintln!("--min-pulls needs an integer >= 0");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with('-') => command = other.to_owned(),
            other => {
                eprintln!("unknown flag '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut config = if quick {
        ScenarioConfig::quick()
    } else {
        ScenarioConfig::default()
    };
    config.telemetry = telemetry || telemetry_out.is_some();
    config.trace = trace_out.is_some() || forensics.is_some();
    config.timeline = forensics.is_some();
    if let Some(file) = &trace_in {
        let label = file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
            .to_owned();
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("failed to read trace {}: {err}", file.display());
                return ExitCode::FAILURE;
            }
        };
        match TraceSchedule::parse(&label, &text) {
            Ok(trace) => {
                eprintln!(
                    "replaying trace '{label}' ({} sample(s), {} edge(s), {:.1} s) over every run",
                    trace.samples(),
                    trace.edges(),
                    trace.end().as_micros() as f64 * 1e-6
                );
                config.ambient_trace = Some(trace);
            }
            Err(err) => {
                eprintln!("failed to parse trace {}: {err}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let needs_study = matches!(
        command.as_str(),
        "all" | "table2" | "table3" | "table4" | "fig4" | "collisions" | "questionnaire"
    );
    // Any observatory flag switches the campaign onto the streaming path;
    // without them the study runs exactly as before (byte-identical
    // output — the alloc-regression golden file pins it).
    let observatory = progress
        || report_out.is_some()
        || checkpoint.is_some()
        || resume
        || interrupt_after.is_some();
    if resume && checkpoint.is_none() {
        eprintln!("--resume requires --checkpoint");
        return ExitCode::FAILURE;
    }
    if let Some(budget) = campaign {
        // Population campaigns default to 16 runs per executor task.
        // Results are bit-identical for every chunk size (the digest
        // line below still prints the resolved knob), so this only
        // changes scheduling, never output.
        let batch = batch.unwrap_or(16);
        let mut sampler_cfg = SamplerConfig::new(sampler);
        sampler_cfg.round_size = round;
        if let Some(floor) = min_pulls {
            sampler_cfg.min_pulls = floor;
        }
        let opts = PopulationOptions {
            seed,
            population,
            budget,
            sampler: sampler_cfg,
            config: config.clone(),
            jobs,
            batch,
            progress,
            checkpoint: checkpoint.clone(),
            resume,
            interrupt_after,
        };
        eprintln!(
            "running the population campaign (seed {seed}, {population} subject(s), budget \
             {budget}, sampler {}, round {round}, {jobs} job(s), batch {batch}) …",
            sampler.name()
        );
        return match run_population_campaign(&opts) {
            Ok(o) => {
                // Everything printed here is schedule- and resume-
                // invariant: the CI campaign-sampler-determinism job
                // byte-diffs the whole stdout across --jobs 1/4 and
                // across interrupt+resume.
                println!(
                    "population digest: {:016x} ({} subjects, {} strata)",
                    o.population_digest, population, o.strata
                );
                for decision in &o.rounds {
                    let alloc: Vec<String> = decision
                        .allocations
                        .iter()
                        .map(|(cell, n)| format!("{cell}×{n}"))
                        .collect();
                    println!(
                        "sampler round {:03} [{}]: {}",
                        decision.round,
                        sampler.name(),
                        alloc.join(", ")
                    );
                }
                println!(
                    "campaign store digest: {:016x} ({} of {} runs)",
                    store_digest(&o.store),
                    o.completed,
                    o.total
                );
                if let Some(dir) = &report_out {
                    if let Err(err) = write_reports(dir, &o.store).and_then(|()| {
                        std::fs::write(dir.join("sampler.json"), decision_log_json(&o.rounds))
                    }) {
                        eprintln!("failed to write reports to {}: {err}", dir.display());
                        return ExitCode::FAILURE;
                    }
                }
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("population campaign failed: {err}");
                ExitCode::FAILURE
            }
        };
    }
    // The roster study keeps the serial-equivalent default: its output
    // (and the alloc-regression golden) is pinned byte-for-byte, and CI
    // byte-diffs it across explicit --batch values anyway.
    let batch = batch.unwrap_or(1);
    let mut outcome: Option<CampaignOutcome> = None;
    let study: Option<StudyResults> = if needs_study {
        eprintln!(
            "running the study (seed {seed}, {} mode, {jobs} job(s), batch {batch}) …",
            if quick { "quick" } else { "full" }
        );
        if observatory {
            let opts = CampaignOptions {
                seed,
                config: config.clone(),
                jobs,
                batch,
                progress,
                checkpoint: checkpoint.clone(),
                resume,
                interrupt_after,
            };
            match run_campaign(&opts) {
                Ok(mut o) => {
                    let study = o.results.take();
                    outcome = Some(o);
                    study
                }
                Err(err) => {
                    eprintln!("campaign failed: {err}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            Some(run_study_with_exec(seed, &config, jobs, batch))
        }
    } else {
        if observatory {
            eprintln!("observatory flags only apply to study commands; ignored");
        }
        None
    };

    if !needs_study || study.is_some() {
        match command.as_str() {
            "all" => {
                let study = study.as_ref().expect("study ran");
                print_table1();
                print_table2(study);
                print_table3(study);
                print_table4(study);
                print_fig4(study);
                print_collisions(study);
                print_questionnaire(study);
                print_sweep(&validity_sweep(seed, jobs));
                print_sweep(&model_vehicle_sweep(seed, jobs));
            }
            "table1" => print_table1(),
            "table2" => print_table2(study.as_ref().expect("study")),
            "table3" => print_table3(study.as_ref().expect("study")),
            "table4" => print_table4(study.as_ref().expect("study")),
            "fig4" => print_fig4(study.as_ref().expect("study")),
            "collisions" => print_collisions(study.as_ref().expect("study")),
            "questionnaire" => print_questionnaire(study.as_ref().expect("study")),
            "validity" => print_sweep(&validity_sweep(seed, jobs)),
            "model-vehicle" => print_sweep(&model_vehicle_sweep(seed, jobs)),
            other => {
                eprintln!("unknown command '{other}'");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let o = outcome.as_ref().expect("observatory outcome");
        eprintln!(
            "tables skipped: the store holds {} of {} runs{} — the table generators need a \
             complete fresh campaign; the store digest and reports below are still exact",
            o.completed,
            o.total,
            if o.resumed > 0 {
                " (resumed runs exist only as summaries)"
            } else {
                " (interrupted)"
            }
        );
    }
    if let Some(study) = &study {
        // The digest is scheduling-independent: identical for every
        // --jobs and --batch value. The CI equivalence checks diff this
        // line between runs after normalising the knob report.
        println!(
            "campaign digest: {:016x} (seed {seed}, jobs {jobs}, batch {batch})",
            campaign_digest(study)
        );
        // Schedule-invariant by construction (no jobs/batch report): the
        // CI trace-replay-determinism job both byte-diffs and greps it.
        if let Some(trace) = &config.ambient_trace {
            println!(
                "trace condition: {} ({} sample(s), {} edge(s))",
                trace.condition(),
                trace.samples(),
                trace.edges()
            );
        }
    }
    if let Some(o) = &outcome {
        // The whole line is schedule-invariant (no jobs/batch report) and
        // resume-invariant: the CI resume-equivalence job byte-diffs it
        // between a single-shot and an interrupted-then-resumed campaign.
        println!(
            "campaign store digest: {:016x} ({} of {} runs)",
            store_digest(&o.store),
            o.completed,
            o.total
        );
        if let Some(dir) = &report_out {
            if let Err(err) = write_reports(dir, &o.store) {
                eprintln!("failed to write reports to {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if telemetry {
        match &study {
            Some(study) => print_telemetry(study),
            None => eprintln!("--telemetry only applies to study commands; ignored"),
        }
    }
    if let Some(dir) = &trace_out {
        match &study {
            Some(study) => {
                if let Err(err) = write_traces(dir, study) {
                    eprintln!("failed to write traces to {}: {err}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
            None => eprintln!("--trace-out only applies to study commands; ignored"),
        }
    }
    if let Some(file) = &telemetry_out {
        match &study {
            Some(study) => {
                if let Err(err) = std::fs::write(file, study.telemetry.to_json()) {
                    eprintln!("failed to write telemetry to {}: {err}", file.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote campaign telemetry JSON to {}", file.display());
            }
            None => eprintln!("--telemetry-out only applies to study commands; ignored"),
        }
    }
    if let Some(dir) = &forensics {
        match &study {
            Some(study) => {
                if let Err(err) = write_forensics(dir, study) {
                    eprintln!("failed to write forensics to {}: {err}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
            None => eprintln!("--forensics only applies to study commands; ignored"),
        }
    }
    ExitCode::SUCCESS
}

fn kind_slug(kind: RunKind) -> &'static str {
    match kind {
        RunKind::Training => "training",
        RunKind::Golden => "golden",
        RunKind::Faulty => "faulty",
    }
}

/// Writes the machine-readable campaign reports: `campaign.json`
/// (deterministic — aggregates, CIs, risk surface) and `timings.json`
/// (wall-clock rollups — never byte-diff it).
fn write_reports(dir: &Path, store: &CampaignStore) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("campaign.json"), store.report_json(Z_95))?;
    std::fs::write(dir.join("timings.json"), store.timings_json())?;
    eprintln!(
        "wrote campaign.json ({} cells over {} runs) and timings.json under {}",
        store.cells().count(),
        store.runs(),
        dir.display()
    );
    Ok(())
}

/// Incident dumps cover this much run-up before the incident …
const INCIDENT_LOOKBACK_US: u64 = 10_000_000;
/// … and this much aftermath.
const INCIDENT_LOOKAHEAD_US: u64 = 2_000_000;
/// At most this many incident dumps per run (fault-heavy runs can mark
/// dozens of edges; the full trace file still has everything). Collisions
/// are exempt from the cap — they are the rare marks the dumps exist for,
/// and they tend to come *after* a run's many fault-edge marks.
const MAX_DUMPS_PER_RUN: usize = 8;

/// Writes every retained run trace as Perfetto-loadable JSON plus one
/// windowed incident dump per safety-incident mark.
fn write_traces(dir: &Path, study: &StudyResults) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let incidents_dir = dir.join("incidents");
    std::fs::create_dir_all(&incidents_dir)?;
    let mut n_traces = 0usize;
    let mut n_dumps = 0usize;
    for run in &study.traces {
        let kind = kind_slug(run.kind);
        let path = dir.join(format!("{}_{kind}.trace.json", run.subject));
        write_chrome_file(&path, &run.trace)?;
        n_traces += 1;
        let mut dumped = 0usize;
        for (i, mark) in run.incidents.iter().enumerate() {
            if mark.kind != IncidentKind::Collision && dumped >= MAX_DUMPS_PER_RUN {
                continue;
            }
            dumped += 1;
            let t = mark.time.as_micros();
            let window = run.trace.window(
                t.saturating_sub(INCIDENT_LOOKBACK_US),
                t.saturating_add(INCIDENT_LOOKAHEAD_US),
            );
            let name = format!("{}_{kind}_{i:02}_{}.json", run.subject, mark.kind.label());
            write_chrome_file(&incidents_dir.join(name), &window)?;
            n_dumps += 1;
        }
        if dumped < run.incidents.len() {
            eprintln!(
                "note: {} {kind} marked {} incidents; dumped {dumped} (every collision, \
                 then fault edges / TTC breaches up to {MAX_DUMPS_PER_RUN})",
                run.subject,
                run.incidents.len()
            );
        }
    }
    eprintln!(
        "wrote {n_traces} trace file(s) and {n_dumps} incident dump(s) under {}",
        dir.display()
    );
    Ok(())
}

/// Streams `log` into a new file at `path` as Chrome `trace_event` JSON.
fn write_chrome_file(path: &Path, log: &TraceLog) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    log.write_chrome_json(&mut out)?;
    out.flush()
}

/// A forensics dossier covers this much timeline, trace, and command
/// history on each side of the incident mark.
const FORENSICS_WINDOW_US: u64 = 5_000_000;

/// Writes the incident forensics: one timeline JSON per analysable run
/// and one dossier per incident mark, splicing the ±5 s timeline windows,
/// the flight-recorder slice, the overlapping fault windows, and the
/// operator command history. Everything written here is deterministic —
/// byte-identical across `--jobs`/`--batch` schedules.
fn write_forensics(dir: &Path, study: &StudyResults) -> std::io::Result<()> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(dir)?;
    let incidents_dir = dir.join("incidents");
    std::fs::create_dir_all(&incidents_dir)?;
    let mut n_timelines = 0usize;
    let mut n_dossiers = 0usize;
    for run in &study.traces {
        let kind = kind_slug(run.kind);
        let path = dir.join(format!("{}_{kind}_timeline.json", run.subject));
        std::fs::write(&path, run.timeline.to_json())?;
        n_timelines += 1;
        let record = match run.kind {
            RunKind::Golden => study.golden(&run.subject),
            RunKind::Faulty => study.faulty(&run.subject),
            RunKind::Training => None,
        };
        for (i, mark) in run.incidents.iter().enumerate() {
            let t = mark.time.as_micros();
            let from = t.saturating_sub(FORENSICS_WINDOW_US);
            let to = t.saturating_add(FORENSICS_WINDOW_US);
            let mut out = String::with_capacity(8192);
            out.push_str("{\"subject\":");
            write_json_string(&mut out, &run.subject);
            out.push_str(",\"kind\":");
            write_json_string(&mut out, kind);
            let _ = write!(
                out,
                ",\"incident\":{{\"kind\":\"{}\",\"index\":{i},\"time_us\":{t}}},\
                 \"window\":{{\"from_us\":{from},\"to_us\":{to}}}",
                mark.kind.label()
            );
            // Fault windows overlapping the dossier window, with whether
            // each was live at the mark itself.
            out.push_str(",\"faults\":[");
            let schedule = record.map(|r| r.schedule.as_slice()).unwrap_or(&[]);
            let mut first = true;
            for sf in schedule {
                let start = sf.window.start.as_micros();
                let end = sf.window.end().as_micros();
                if end < from || start > to {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"condition\":");
                write_json_string(&mut out, fault_condition(sf.fault));
                let _ = write!(
                    out,
                    ",\"start_us\":{start},\"end_us\":{end},\"active_at_mark\":{}}}",
                    sf.window.contains(mark.time)
                );
            }
            // The operator's command history around the mark (what was
            // being asked of the vehicle while things went wrong).
            out.push_str("],\"commands\":[");
            let samples = record.map(|r| r.log.ego_samples()).unwrap_or(&[]);
            let mut first = true;
            for s in samples {
                let st = s.t.as_micros();
                if st < from || st > to {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{{\"t_us\":{st},\"frame\":{},\"speed_mps\":", s.frame);
                write_f64(&mut out, s.speed.get());
                out.push_str(",\"throttle\":");
                write_f64(&mut out, s.throttle);
                out.push_str(",\"steer\":");
                write_f64(&mut out, s.steer);
                out.push_str(",\"brake\":");
                write_f64(&mut out, s.brake);
                out.push('}');
            }
            // The ±5 s slice of the per-window timeline and of the
            // flight-recorder trace (Chrome trace_event form, the same
            // format `--trace-out` writes), the trace streamed straight
            // into the file.
            out.push_str("],\"timeline\":");
            out.push_str(&run.timeline.range_json(from, to).to_json());
            out.push_str(",\"trace\":");
            let name = format!("{}_{kind}_{i:02}_{}.json", run.subject, mark.kind.label());
            let mut file = BufWriter::new(File::create(incidents_dir.join(name))?);
            file.write_all(out.as_bytes())?;
            run.trace.window(from, to).write_chrome_json(&mut file)?;
            file.write_all(b"}")?;
            file.flush()?;
            n_dossiers += 1;
        }
    }
    eprintln!(
        "wrote {n_timelines} timeline file(s) and {n_dossiers} incident dossier(s) under {}",
        dir.display()
    );
    Ok(())
}

fn print_telemetry(study: &StudyResults) {
    println!("\n== Campaign telemetry ==\n");
    let t = &study.telemetry;
    if t.is_empty() {
        println!("(no telemetry was recorded)");
        return;
    }
    if let Some(h) = t.histogram("session.frame_age_us") {
        println!(
            "frame age (glass-to-glass): p50 {} µs, p99 {} µs ({} frames)",
            h.p50(),
            h.p99(),
            h.count
        );
    }
    if let Some(h) = t.histogram("session.command_age_us") {
        println!(
            "command age (send → apply): p50 {} µs, p99 {} µs ({} commands)",
            h.p50(),
            h.p99(),
            h.count
        );
    }
    println!(
        "packets inside fault windows : sent {}, delivered {}, dropped {}, corrupted {}",
        t.counter("session.fault_window.inside.sent"),
        t.counter("session.fault_window.inside.delivered"),
        t.counter("session.fault_window.inside.dropped"),
        t.counter("session.fault_window.inside.corrupted"),
    );
    println!(
        "packets outside fault windows: sent {}, delivered {}, dropped {}, corrupted {}",
        t.counter("session.fault_window.outside.sent"),
        t.counter("session.fault_window.outside.delivered"),
        t.counter("session.fault_window.outside.dropped"),
        t.counter("session.fault_window.outside.corrupted"),
    );
    println!(
        "throughput: {:.0} session steps/sec of compute ({} steps, {:.1} s total compute)",
        t.steps_per_sec("session.steps"),
        t.counter("session.steps"),
        t.wall_elapsed_ns as f64 * 1e-9
    );
    println!(
        "telemetry events: {} retained, {} dropped",
        t.events.len(),
        t.events_dropped
    );
    println!(
        "trace ring: {} event(s) recorded, {} overwritten by the bound",
        t.counter("session.trace.recorded"),
        t.counter("session.trace.overwritten"),
    );
    println!("\n{}", t.report());
}

fn print_table1() {
    println!("\n== Table I: Technical Specifications for Driving Station ==\n");
    println!("{}", StationSpec::paper_station());
    println!();
}

fn fault_headers() -> Vec<String> {
    ["5ms", "25ms", "50ms", "2%", "5%"]
        .into_iter()
        .map(str::to_owned)
        .collect()
}

fn print_table2(study: &StudyResults) {
    println!("\n== Table II: Summary for Faults Injected ==\n");
    let mut header = vec!["Test".to_owned()];
    header.extend(fault_headers());
    header.push("Total".to_owned());
    let mut t = TextTable::new(header);
    let rows = table2(study);
    let mut totals = [0usize; 6];
    for row in &rows {
        let mut cells = vec![row.test.clone()];
        for (i, c) in row.counts.iter().enumerate() {
            cells.push(c.to_string());
            totals[i] += c;
        }
        cells.push(row.total.to_string());
        totals[5] += row.total;
        t.row(cells);
    }
    let mut total_row = vec!["Total".to_owned()];
    total_row.extend(totals.iter().map(|c| c.to_string()));
    t.row(total_row);
    println!("{t}");
}

fn ttc_cell(stats: &Option<TtcStats>, pick: impl Fn(&TtcStats) -> f64) -> String {
    match stats {
        Some(s) => format!("{:.2}", pick(s)),
        None => "-".to_owned(),
    }
}

fn print_table3(study: &StudyResults) {
    println!("\n== Table III: Statistics for TTC (in sec) ==");
    let rows = table3(study, &TtcConfig::default());
    for (title, pick) in [
        (
            "Maximum TTC",
            (|s: &TtcStats| s.max.get()) as fn(&TtcStats) -> f64,
        ),
        ("Average TTC", |s: &TtcStats| s.avg.get()),
        ("Minimum TTC", |s: &TtcStats| s.min.get()),
    ] {
        println!("\n-- {title} --\n");
        let mut header = vec!["Test".to_owned(), "NFI".to_owned()];
        header.extend(fault_headers());
        let mut t = TextTable::new(header);
        for row in &rows {
            let mut cells = vec![row.test.clone(), ttc_cell(&row.nfi, pick)];
            for f in &row.per_fault {
                cells.push(ttc_cell(f, pick));
            }
            t.row(cells);
        }
        println!("{t}");
    }
}

fn print_table4(study: &StudyResults) {
    println!("\n== Table IV: Statistics for SRR (in reversals per minute) ==\n");
    let rows = table4(study, &SrrConfig::default());
    let mut header = vec!["Test".to_owned(), "NFI".to_owned(), "FI".to_owned()];
    header.extend(fault_headers());
    header.push("Avg".to_owned());
    let mut t = TextTable::new(header);
    let fmt = |v: &Option<f64>| match v {
        Some(v) => format!("{v:.1}"),
        None => "x".to_owned(),
    };
    let mut col_sums = vec![(0.0f64, 0usize); 8];
    for row in &rows {
        let mut cells = vec![row.test.clone(), fmt(&row.nfi), fmt(&row.fi)];
        for f in &row.per_fault {
            cells.push(fmt(f));
        }
        cells.push(fmt(&row.avg));
        t.row(cells);
        let all = [
            row.nfi,
            row.fi,
            row.per_fault[0],
            row.per_fault[1],
            row.per_fault[2],
            row.per_fault[3],
            row.per_fault[4],
            row.avg,
        ];
        for (i, v) in all.iter().enumerate() {
            if let Some(v) = v {
                col_sums[i].0 += v;
                col_sums[i].1 += 1;
            }
        }
    }
    let mut avg_row = vec!["Avg".to_owned()];
    for (sum, n) in &col_sums {
        avg_row.push(if *n > 0 {
            format!("{:.2}", sum / *n as f64)
        } else {
            "x".to_owned()
        });
    }
    t.row(avg_row);
    println!("{t}");
}

fn print_fig4(study: &StudyResults) {
    println!("\n== Fig. 4: Results from steering profile ==\n");
    match figure4(study, None) {
        Some(fig) => {
            let fmt_t = |t: &Option<rdsim_units::Seconds>| match t {
                Some(t) => format!("{:.1} s", t.get()),
                None => "(section not traversed)".to_owned(),
            };
            println!("subject {}", fig.subject);
            println!(
                "  faulty : {}  traversal {}  rms {:.3}",
                fig.faulty.sparkline(72),
                fmt_t(&fig.faulty.traversal),
                fig.faulty.rms()
            );
            println!(
                "  golden : {}  traversal {}  rms {:.3}",
                fig.golden.sparkline(72),
                fmt_t(&fig.golden.traversal),
                fig.golden.rms()
            );
        }
        None => println!("(no subject with steering data in both runs)"),
    }
    println!();
}

fn print_collisions(study: &StudyResults) {
    println!("\n== §VI.E: Collision analysis ==\n");
    let a = collision_summary(study);
    println!(
        "{} participants: {} collided in the golden run, {} in the faulty run",
        a.subjects, a.collided_golden, a.collided_faulty
    );
    if a.crashes_by_fault.is_empty() {
        println!("no crash attributable to a fault window");
    } else {
        for (fault, count) in &a.crashes_by_fault {
            println!("  {fault}: {count} crash(es)");
        }
    }
    if a.crashes_outside_windows > 0 {
        println!(
            "  ({} crash(es) outside fault windows)",
            a.crashes_outside_windows
        );
    }
    println!();
}

fn print_questionnaire(study: &StudyResults) {
    println!("\n== §VI.F: Answers from Questionnaire ==\n");
    let q = questionnaire_summary(study);
    println!(
        "1) {} of {} have gaming experience ({} recent)",
        q.with_gaming_experience, q.respondents, q.with_recent_gaming
    );
    println!(
        "2) {} of {} have car-racing game experience",
        q.with_racing_games, q.respondents
    );
    println!(
        "3) {} of {} had no prior driving-station experience",
        q.without_station_experience, q.respondents
    );
    println!(
        "4) mean QoE {:.2} (min {}, max {})",
        q.mean_qoe, q.min_qoe, q.max_qoe
    );
    println!(
        "5) {} of {} consider virtual testing useful",
        q.virtual_testing_useful, q.respondents
    );
    println!(
        "6) {} of {} felt a difference when faults were injected",
        q.felt_difference, q.respondents
    );
    println!();
}

fn print_sweep(report: &SweepReport) {
    println!("\n== §VIII validity: {} ==\n", report.plant);
    let mut t = TextTable::new(vec![
        "condition".into(),
        "mean |lat| (m)".into(),
        "worst |lat| (m)".into(),
        "collided".into(),
        "completion".into(),
        "verdict".into(),
    ]);
    for p in report.delays.iter().chain(&report.losses) {
        t.row(vec![
            p.label.clone(),
            format!("{:.2}", p.mean_lateral),
            format!("{:.2}", p.worst_lateral),
            if p.collided { "yes" } else { "no" }.into(),
            format!("{:.0}%", p.completion * 100.0),
            p.verdict.to_string(),
        ]);
    }
    println!("{t}");
}

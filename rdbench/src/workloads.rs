//! The three workloads, each a closed batch of protocol runs executed
//! back to back on one worker through `rdsim-experiments`' public entry
//! points.
//!
//! A repetition ([`Rep`]) times every call into the program as a span
//! under one root span; the checks that follow (digests, cross-pass
//! comparisons) run after the root closes, outside the timed region.

use crate::linktrace::{self, TraceShape};
use crate::spans::{Part, SpanId, Spans};
use rdsim_core::RunKind;
use rdsim_experiments::{
    campaign_digest, collision_summary, decision_log_json, figure4, paper_roster,
    population_digest, questionnaire_summary, record_digest, run_campaign, run_digest,
    run_population_campaign, run_protocol, run_seed, run_study_with_exec, store_digest,
    synthesize_population, table2, table3, table4, CampaignOptions, PopulationOptions, RosterEntry,
    RunOutput, SamplerConfig, SamplerPolicy, ScenarioConfig, StudyResults, SyntheticSubject,
};
use rdsim_metrics::{SrrConfig, TtcConfig};
use rdsim_netem::TraceSchedule;
use rdsim_obs::{CampaignStore, RunTelemetry, Timeline, TraceLog, Z_95};
use std::hint::black_box;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's protocol as `repro` runs it: 12 subjects × {training,
    /// golden, faulty}, then Tables II–IV, Fig. 4 and the summaries.
    PaperStudy,
    /// `repro --campaign`: a synthesized population, the UCB sampler,
    /// fault-pinned faulty runs in lockstep batches, then the report.
    PopulationCampaign,
    /// Every roster subject's training drive under a seeded link trace,
    /// with telemetry, timeline and trace retained and exported.
    LinkReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperStudy,
        Workload::PopulationCampaign,
        Workload::LinkReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStudy => "paper_study",
            Workload::PopulationCampaign => "population_campaign",
            Workload::LinkReplay => "link_replay",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big each workload is.
#[derive(Debug, Clone)]
pub struct Size {
    /// Label recorded with every result (`full` or `smoke`).
    pub label: &'static str,
    /// `paper_study` run length.
    pub study: ScenarioConfig,
    /// `population_campaign` subjects.
    pub population: usize,
    /// `population_campaign` run budget.
    pub budget: u64,
    /// `population_campaign` lockstep batch.
    pub batch: usize,
    /// `population_campaign` run length.
    pub campaign: ScenarioConfig,
    /// `link_replay` drives (roster subjects, in roster order).
    pub link_subjects: usize,
    /// `link_replay` run length, before the trace and observability are set.
    pub link: ScenarioConfig,
    /// `link_replay` trace shape.
    pub trace: TraceShape,
}

impl Size {
    /// The benchmark's size: quick-length study and campaign runs (a
    /// repetition takes seconds, so a run holds several), and two-lap
    /// link drives.
    pub fn full() -> Size {
        Size {
            label: "full",
            study: ScenarioConfig::quick(),
            population: 24,
            budget: 48,
            batch: 16,
            campaign: ScenarioConfig::quick(),
            link_subjects: 12,
            link: ScenarioConfig::default(),
            trace: TraceShape::drive(),
        }
    }

    /// The smallest size that still exercises every layer, for the smoke
    /// test.
    pub fn smoke() -> Size {
        let short = ScenarioConfig {
            progress_target: Some(120.0),
            ..ScenarioConfig::quick()
        };
        Size {
            label: "smoke",
            study: short.clone(),
            population: 4,
            budget: 6,
            batch: 4,
            campaign: short.clone(),
            link_subjects: 2,
            link: short,
            trace: TraceShape {
                seconds: 120,
                choke_every: 12.0,
                ..TraceShape::drive()
            },
        }
    }
}

/// The inputs a workload needs, built before the first run.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The 12-subject roster (`paper_study`, `link_replay`).
    pub roster: Vec<RosterEntry>,
    /// The synthesized population (`population_campaign`).
    pub population: Vec<SyntheticSubject>,
    /// The parsed link trace (`link_replay`).
    pub trace: Option<TraceSchedule>,
    /// Time `TraceSchedule::parse` took in this set-up.
    pub parse_ns: u64,
    /// The scenario every run of the workload uses.
    pub config: ScenarioConfig,
    /// `population_campaign` options.
    pub campaign: Option<PopulationOptions>,
    /// `link_replay` drives.
    pub link_subjects: usize,
}

/// Builds a workload's inputs from its seed.
///
/// # Errors
///
/// When town05 lacks the ego spawn point or the generated link trace does
/// not parse.
pub fn setup(workload: Workload, seed: u64, size: &Size) -> Result<Inputs, String> {
    // Every run drives town05 from its ego spawn point; the program builds
    // its own copy per run, so set-up only proves the map is usable.
    let net = rdsim_roadnet::town05();
    if net.spawn_point("ego-start").is_none() {
        return Err("town05 has no ego-start spawn point".to_owned());
    }
    let mut inputs = Inputs {
        workload,
        seed,
        roster: Vec::new(),
        population: Vec::new(),
        trace: None,
        parse_ns: 0,
        config: size.study.clone(),
        campaign: None,
        link_subjects: 0,
    };
    match workload {
        Workload::PaperStudy => inputs.roster = paper_roster(),
        Workload::PopulationCampaign => {
            inputs.population = synthesize_population(seed, size.population);
            inputs.config = size.campaign.clone();
            let mut opts = PopulationOptions::new(
                seed,
                size.population,
                size.budget,
                SamplerConfig::new(SamplerPolicy::Ucb),
            );
            opts.config = size.campaign.clone();
            opts.batch = size.batch;
            opts.jobs = 1;
            inputs.campaign = Some(opts);
        }
        Workload::LinkReplay => {
            inputs.roster = paper_roster();
            let text = linktrace::generate(seed, &size.trace);
            let started = Instant::now();
            let trace = TraceSchedule::parse(&format!("link{seed}"), &text)
                .map_err(|e| format!("generated trace does not parse: {e}"))?;
            inputs.parse_ns = started.elapsed().as_nanos() as u64;
            inputs.config = ScenarioConfig {
                ambient_trace: Some(trace.clone()),
                telemetry: true,
                timeline: true,
                trace: true,
                ..size.link.clone()
            };
            inputs.trace = Some(trace);
            inputs.link_subjects = size.link_subjects.min(inputs.roster.len());
        }
    }
    Ok(inputs)
}

/// Counters the per-layer table reads from a campaign store.
const COUNTERS: [&str; 18] = [
    "session.steps",
    "session.frames_sent",
    "session.frames_delivered",
    "session.commands_delivered",
    "session.trace.recorded",
    "session.trace.overwritten",
    "netem.uplink.enqueued",
    "netem.downlink.enqueued",
    "netem.uplink.dropped",
    "netem.downlink.dropped",
    "netem.uplink.queue_dropped",
    "netem.downlink.queue_dropped",
    "netem.uplink.duplicated",
    "netem.downlink.duplicated",
    "netem.uplink.reordered",
    "netem.downlink.reordered",
    "netem.uplink.corrupted",
    "netem.downlink.corrupted",
];

/// The telemetry a campaign store folded, as one merged run.
fn store_telemetry(store: &CampaignStore) -> RunTelemetry {
    RunTelemetry {
        counters: COUNTERS
            .iter()
            .map(|&n| (n.to_owned(), store.counter(n)))
            .collect(),
        histograms: store.histograms().clone(),
        ..RunTelemetry::default()
    }
}

/// The session pipeline's stages in execution order.
pub const STAGES: [&str; 10] = [
    "fault_window",
    "vehicle",
    "capture",
    "uplink",
    "display",
    "operator",
    "downlink",
    "actuate",
    "safety",
    "logging",
];

/// The module each stage's self time belongs to.
fn stage_layer(stage: &str) -> &'static str {
    match stage {
        "vehicle" | "logging" | "capture" | "display" => "rdsim-simulator",
        "fault_window" | "uplink" | "downlink" => "rdsim-netem",
        "operator" => "rdsim-operator",
        _ => "rdsim-core",
    }
}

/// Which pass a repetition belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The workload as defined, for the end-to-end metrics.
    EndToEnd,
    /// The per-layer pass: the program's recorder on, its stage spans read.
    Traced,
    /// The traced pass's calls with the program's recorder off, the other
    /// side of `obs.tracing_overhead`: `run_campaign` on `paper_study`,
    /// the end-to-end calls on `population_campaign`, and drives without
    /// telemetry, timeline, trace or export on `link_replay`.
    Untraced,
}

/// What a repetition produced that the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Whether the program's telemetry was on. Run and campaign digests
    /// fold telemetry in, so only repetitions with the same setting must
    /// agree on them.
    pub telemetry: bool,
    /// The workload's whole-output digest: the campaign digest
    /// (`paper_study`), population ⊕ store digest (`population_campaign`)
    /// or the fold of every run digest (`link_replay`).
    pub primary: u64,
    /// Per-run digests (`link_replay`), so a mismatch fails single runs.
    pub runs: Vec<u64>,
    /// Telemetry-independent identity of the simulation: record digests
    /// (`paper_study`, `link_replay`, one per run there), or the decision
    /// log and cell aggregates (`population_campaign`), which every pass
    /// must reproduce.
    pub records: Vec<u64>,
}

/// One repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// The pass it belongs to.
    pub pass: Pass,
    /// The benchmark's spans; `root` covers the whole repetition.
    pub spans: Spans,
    /// The repetition's root span.
    pub root: SpanId,
    /// Spans of the simulation calls.
    pub sim: Vec<SpanId>,
    /// Protocol runs executed.
    pub runs: u64,
    /// Simulated 20 ms ticks, when the outputs expose them.
    pub steps: Option<u64>,
    /// Digests, computed after the root span closed.
    pub observed: Observed,
    /// Program telemetry merged over the runs (traced, or `link_replay`).
    pub tele: RunTelemetry,
    /// Collisions over every run (traced repetitions).
    pub collisions: u64,
    /// Sampler rounds (`population_campaign`).
    pub rounds: u64,
    /// Bytes of timeline and Chrome trace JSON built (`link_replay`).
    pub export_bytes: u64,
    /// Timeline windows over every run (`link_replay`).
    pub timeline_windows: u64,
    /// Problems found outside the digest comparison.
    pub errors: Vec<String>,
}

impl Rep {
    fn new(pass: Pass, workload: Workload, telemetry: bool) -> Rep {
        let mut spans = Spans::new();
        let root = spans.open(workload.name(), "bench");
        Rep {
            pass,
            spans,
            root,
            sim: Vec::new(),
            runs: 0,
            steps: None,
            observed: Observed {
                telemetry,
                primary: 0,
                runs: Vec::new(),
                records: Vec::new(),
            },
            tele: RunTelemetry::default(),
            collisions: 0,
            rounds: 0,
            export_bytes: 0,
            timeline_windows: 0,
            errors: Vec::new(),
        }
    }

    /// Wall time from the first call into the program to the last result.
    pub fn wall_ns(&self) -> u64 {
        self.spans.get(self.root).dur_ns()
    }

    /// Time inside the simulation calls.
    pub fn sim_ns(&self) -> u64 {
        self.sim.iter().map(|&id| self.spans.get(id).dur_ns()).sum()
    }

    fn close(&mut self) {
        self.spans.close(self.root);
    }
}

/// Attaches the program's stage time (and any `extra` program-reported
/// parts) as children of simulation call `call`.
fn attach(spans: &mut Spans, call: SpanId, tele: &RunTelemetry, extra: &[Part]) {
    let mut parts: Vec<Part> = STAGES
        .iter()
        .filter_map(|stage| {
            let h = tele.histogram(&format!("session.stage.{stage}_ns"))?;
            Some((
                format!("core.stage.{stage}"),
                stage_layer(stage),
                h.sum as u64,
                h.count,
            ))
        })
        .collect();
    parts.extend_from_slice(extra);
    let first = spans.spans().len();
    spans.aggregate(call, &parts);
    // Codec time nests inside the capture and display stages.
    for (stage, codec, label) in [
        ("core.stage.capture", "codec.encode_ns", "simulator.encode"),
        ("core.stage.display", "codec.decode_ns", "simulator.decode"),
    ] {
        let stage_span = (first..spans.spans().len()).find(|&j| spans.get(j).name == stage);
        if let (Some(h), Some(id)) = (tele.histogram(codec), stage_span) {
            spans.aggregate(
                id,
                &[(label.to_owned(), "rdsim-simulator", h.sum as u64, h.count)],
            );
        }
    }
}

/// FNV-1a offset basis: the state [`fnv1a`] starts from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from state `h`.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the little-endian bytes of `values`.
fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// Collisions over every run a campaign store folded.
fn store_collisions(store: &CampaignStore) -> u64 {
    store
        .cells()
        .filter(|(_, condition, _, _)| condition.starts_with("run:"))
        .map(|(_, _, _, agg)| agg.collisions)
        .sum()
}

/// Runs one repetition of the workload.
///
/// # Errors
///
/// When a campaign entry point returns an error.
pub fn run_rep(inputs: &Inputs, pass: Pass) -> Result<Rep, String> {
    match inputs.workload {
        Workload::PaperStudy => paper_study(inputs, pass),
        Workload::PopulationCampaign => population_campaign(inputs, pass),
        Workload::LinkReplay => Ok(link_replay(inputs, pass)),
    }
}

/// The analysis `repro` prints after a study: Tables II–IV, Fig. 4, the
/// collision and questionnaire summaries.
fn analysis(spans: &mut Spans, study: &StudyResults) {
    let id = spans.open("analysis", "rdsim-metrics");
    black_box(spans.time("table2", "rdsim-metrics", || table2(study)));
    black_box(spans.time("table3", "rdsim-metrics", || {
        table3(study, &TtcConfig::default())
    }));
    black_box(spans.time("table4", "rdsim-metrics", || {
        table4(study, &SrrConfig::default())
    }));
    black_box(spans.time("figure4", "rdsim-metrics", || figure4(study, None)));
    black_box(spans.time("collision_summary", "rdsim-metrics", || {
        collision_summary(study)
    }));
    black_box(spans.time("questionnaire_summary", "rdsim-metrics", || {
        questionnaire_summary(study)
    }));
    spans.close(id);
}

fn paper_study(inputs: &Inputs, pass: Pass) -> Result<Rep, String> {
    let traced = pass == Pass::Traced;
    let mut rep = Rep::new(pass, Workload::PaperStudy, traced);
    let study = if pass == Pass::EndToEnd {
        let call = rep.spans.open("run_study_with_exec", "rdsim-experiments");
        let study = run_study_with_exec(inputs.seed, &inputs.config, 1, 1);
        rep.spans.close(call);
        rep.sim.push(call);
        analysis(&mut rep.spans, &study);
        rep.close();
        rep.runs = 3 * study.roster.len() as u64;
        study
    } else {
        // The study entry point keeps no training-run telemetry; the
        // observatory path folds every run's into its store and assembles
        // the same StudyResults. Both sides of the tracing overhead take
        // it, so their ratio isolates the program's telemetry.
        let config = ScenarioConfig {
            telemetry: traced,
            ..inputs.config.clone()
        };
        let call = rep.spans.open("run_campaign", "rdsim-experiments");
        let outcome = run_campaign(&CampaignOptions::new(inputs.seed, config, 1, 1));
        rep.spans.close(call);
        rep.sim.push(call);
        let mut outcome = outcome?;
        let study = outcome.results.take().ok_or("campaign returned no study")?;
        analysis(&mut rep.spans, &study);
        rep.close();
        rep.runs = outcome.completed as u64;
        if traced {
            rep.tele = store_telemetry(&outcome.store);
            let chunks = outcome
                .fleet
                .histogram("executor.chunk_ns")
                .map_or(0, |h| h.sum as u64);
            let fold_ns = outcome.fleet.wall_elapsed_ns.saturating_sub(chunks);
            attach(
                &mut rep.spans,
                call,
                &rep.tele,
                &[(
                    "experiments.fold".to_owned(),
                    "rdsim-experiments",
                    fold_ns,
                    0,
                )],
            );
            rep.steps = Some(rep.tele.counter("session.steps"));
            rep.collisions = store_collisions(&outcome.store);
        }
        study
    };
    rep.observed.primary = campaign_digest(&study);
    rep.observed.records = study.records.iter().map(record_digest).collect();
    if study.roster.len() != inputs.roster.len() {
        rep.errors.push(format!(
            "study ran {} subjects, roster has {}",
            study.roster.len(),
            inputs.roster.len()
        ));
    }
    Ok(rep)
}

fn population_campaign(inputs: &Inputs, pass: Pass) -> Result<Rep, String> {
    let traced = pass == Pass::Traced;
    let mut opts = inputs
        .campaign
        .clone()
        .ok_or("population options missing")?;
    opts.config.telemetry = traced;
    let mut rep = Rep::new(pass, Workload::PopulationCampaign, traced);
    let call = rep
        .spans
        .open("run_population_campaign", "rdsim-experiments");
    let outcome = run_population_campaign(&opts);
    rep.spans.close(call);
    rep.sim.push(call);
    let outcome = outcome?;
    let report = rep.spans.time("report_json", "rdsim-experiments", || {
        outcome.store.report_json(Z_95)
    });
    rep.close();

    rep.runs = outcome.completed as u64;
    rep.rounds = outcome.rounds.len() as u64;
    if traced {
        rep.tele = store_telemetry(&outcome.store);
        rep.steps = Some(rep.tele.counter("session.steps"));
        rep.collisions = store_collisions(&outcome.store);
        let fleet = &outcome.fleet;
        let plan = fleet
            .histogram("executor.sampler.plan_ns")
            .map_or(0, |h| h.sum as u64);
        let chunks = fleet
            .histogram("executor.chunk_ns")
            .map_or(0, |h| h.sum as u64);
        let fold_ns = fleet.wall_elapsed_ns.saturating_sub(chunks + plan);
        attach(
            &mut rep.spans,
            call,
            &rep.tele,
            &[
                (
                    "experiments.plan".to_owned(),
                    "rdsim-experiments",
                    plan,
                    rep.rounds,
                ),
                (
                    "experiments.fold".to_owned(),
                    "rdsim-experiments",
                    fold_ns,
                    0,
                ),
            ],
        );
    }
    let expected = population_digest(inputs.seed, &inputs.population);
    if outcome.population_digest != expected {
        rep.errors.push(format!(
            "population digest {:016x} differs from the set-up's {expected:016x}",
            outcome.population_digest
        ));
    }
    if outcome.completed != outcome.total {
        rep.errors.push(format!(
            "campaign completed {} of {} runs",
            outcome.completed, outcome.total
        ));
    }
    rep.observed.primary = fold([outcome.population_digest, store_digest(&outcome.store)]);
    // The cell aggregates and risk surface follow the report's digest
    // header, which folds telemetry in; everything after it must not move.
    let cells = report.find("\"cells\":").map_or("", |i| &report[i..]);
    rep.observed.records = vec![
        fnv1a(FNV_OFFSET, decision_log_json(&outcome.rounds).as_bytes()),
        fnv1a(FNV_OFFSET, cells.as_bytes()),
    ];
    Ok(rep)
}

fn link_replay(inputs: &Inputs, pass: Pass) -> Rep {
    // The workload keeps telemetry, timeline and trace on and exports
    // them; the untraced side of the tracing overhead drives bare.
    let observed = pass != Pass::Untraced;
    let bare;
    let config = if observed {
        &inputs.config
    } else {
        bare = ScenarioConfig {
            telemetry: false,
            timeline: false,
            trace: false,
            ..inputs.config.clone()
        };
        &bare
    };
    let mut rep = Rep::new(pass, Workload::LinkReplay, observed);
    let mut outputs: Vec<RunOutput> = Vec::with_capacity(inputs.link_subjects);
    for entry in &inputs.roster[..inputs.link_subjects] {
        let id = &entry.profile.id;
        let seed = run_seed(inputs.seed, id, RunKind::Training);
        let call = rep.spans.open("run_protocol", "rdsim-experiments");
        let mut out = run_protocol(&entry.profile, RunKind::Training, seed, config);
        rep.spans.close(call);
        rep.sim.push(call);
        if observed {
            let export = rep.spans.open("export", "rdsim-obs");
            let timeline = rep
                .spans
                .time("Timeline::to_json", "rdsim-obs", || out.timeline.to_json());
            let chrome = rep.spans.time("TraceLog::to_chrome_json", "rdsim-obs", || {
                out.trace.to_chrome_json()
            });
            rep.spans.close(export);
            rep.export_bytes += (timeline.len() + chrome.len()) as u64;
            drop(black_box((timeline, chrome)));
            // Exported; the checks need neither, so the repetition's
            // memory peaks at one run's trace rather than at all of them.
            rep.timeline_windows += out.timeline.len() as u64;
            out.timeline = Timeline::default();
            out.trace = TraceLog::default();
        }
        outputs.push(out);
    }
    rep.close();

    rep.runs = outputs.len() as u64;
    for (out, &call) in outputs.iter().zip(&rep.sim) {
        if pass == Pass::Traced {
            attach(&mut rep.spans, call, &out.telemetry, &[]);
        }
        rep.tele.merge(&out.telemetry);
        rep.collisions += out.record.log.collisions().len() as u64;
    }
    rep.observed.runs = outputs.iter().map(run_digest).collect();
    rep.observed.primary = fold(rep.observed.runs.iter().copied());
    rep.observed.records = outputs.iter().map(|o| record_digest(&o.record)).collect();
    if observed {
        rep.steps = Some(rep.tele.counter("session.steps"));
        if rep.tele.counter("netem.uplink.queue_dropped")
            + rep.tele.counter("netem.downlink.queue_dropped")
            == 0
        {
            rep.errors.push(
                "the link trace never made the rate limiter drop: netem.queue_dropped is 0"
                    .to_owned(),
            );
        }
    }
    rep
}

/// Runs of `rep` that fail the digest checks against `want`, what the
/// reference repetition observed.
///
/// Every repetition must reproduce the telemetry-independent record
/// digests. One with the reference's telemetry setting must also
/// reproduce its run digests (`link_replay`, checked run by run) or its
/// primary digest. Any error the repetition found fails all its runs.
pub fn failed_runs(workload: Workload, rep: &Rep, want: &Observed) -> u64 {
    let got = &rep.observed;
    if !rep.errors.is_empty() {
        return rep.runs;
    }
    let same = got.telemetry == want.telemetry;
    match workload {
        Workload::LinkReplay => {
            let n = want.records.len();
            if got.records.len() != n || got.runs.len() != n || want.runs.len() != n {
                return rep.runs;
            }
            (0..n)
                .filter(|&i| {
                    got.records[i] != want.records[i] || (same && got.runs[i] != want.runs[i])
                })
                .count() as u64
        }
        _ => {
            u64::from(got.records != want.records || (same && got.primary != want.primary))
                * rep.runs
        }
    }
}

//! Round-based adaptive sampling over (subject-stratum × fault) cells.
//!
//! A population campaign has a budget of runs and a grid of cells —
//! every stratum of [`crate::population`] crossed with every
//! [`PaperFault`] condition. Uniform allocation wastes most of that
//! budget confirming that benign cells are benign; the collision events
//! that matter live in a few tail cells (the "safety blind spot"). The
//! sampler spends the budget **round by round**: at each round barrier it
//! reads every cell's pooled aggregate out of the order-insensitive
//! [`CampaignStore`] (via [`CampaignStore::pooled_cell`]) and plans the
//! next `round_size` runs by policy:
//!
//! * `uniform` — spread evenly (the baseline, and the variance-honest
//!   estimator);
//! * `ucb` — optimism in the face of uncertainty: put the round on the
//!   cell with the highest Wilson **upper** bound of `P(collision)`, so
//!   unexplored and risky cells are indistinguishable until sampled;
//! * `ci-width` — max-variance-reduction: put each run where the Wilson
//!   interval is currently widest (accounting for runs already planned
//!   this round).
//!
//! Every policy first serves a **minimum-pulls floor** so no cell is
//! starved below `min_pulls` — an adaptive estimator with unsampled
//! cells has undetectable blind spots, which is exactly the failure mode
//! this campaign exists to avoid.
//!
//! **Determinism** (DESIGN §13): decisions happen only at round
//! barriers, as a pure function of the barrier store state — which is
//! itself order-insensitive — so the planned sequence of rounds is
//! byte-identical across `--jobs`/`--batch` schedules and across
//! interrupt/resume. Resumed runs are *replayed into the rounds that
//! planned them* (never folded ahead of their barrier), so a resumed
//! campaign re-derives the same decision log and executes only the tail.

use crate::executor::{execute_ordered, ChunkDone};
use crate::observatory::{
    fault_condition, load_checkpoint_summaries, open_checkpoint_writer, summarize_run, SCENARIO,
};
use crate::population::{population_digest, synthesize_population, SyntheticSubject};
use crate::seeds::synthetic_run_seed;
use crate::{run_protocol, RunOutput, ScenarioConfig};
use rdsim_core::{PaperFault, RunKind};
use rdsim_obs::{
    wilson_interval, CampaignStore, Histogram, ProgressMeter, RunKey, RunSummary, RunTelemetry,
    Z_95,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which allocation policy spends each round's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerPolicy {
    /// Even spread — the baseline estimator.
    Uniform,
    /// Wilson-upper-bound bandit — the rare-event hunter.
    Ucb,
    /// Widest-Wilson-interval first — max variance reduction.
    CiWidth,
}

impl SamplerPolicy {
    /// Parses the CLI spelling (`uniform` / `ucb` / `ci-width`).
    pub fn parse(name: &str) -> Option<SamplerPolicy> {
        match name {
            "uniform" => Some(SamplerPolicy::Uniform),
            "ucb" => Some(SamplerPolicy::Ucb),
            "ci-width" => Some(SamplerPolicy::CiWidth),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SamplerPolicy::Uniform => "uniform",
            SamplerPolicy::Ucb => "ucb",
            SamplerPolicy::CiWidth => "ci-width",
        }
    }
}

/// Sampler tuning: policy, round granularity, starvation floor and the
/// CI quantile the bandit scores with.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// The allocation policy.
    pub policy: SamplerPolicy,
    /// Runs planned per round barrier.
    pub round_size: usize,
    /// No cell stays below this many pulls while it has capacity and the
    /// budget lasts (served fewest-first before any policy allocation).
    pub min_pulls: u64,
    /// Wilson quantile for the UCB / ci-width scores.
    pub z: f64,
}

impl SamplerConfig {
    /// Defaults: 8 runs per round, a floor of 2 pulls, 95% intervals.
    pub fn new(policy: SamplerPolicy) -> Self {
        SamplerConfig {
            policy,
            round_size: 8,
            min_pulls: 2,
            z: Z_95,
        }
    }
}

/// One cell's state at a round barrier — the bandit signal, read out of
/// the store by the campaign driver (or synthesized by the oracle
/// tests).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSignal {
    /// Display label (`g2a0|delay:50ms`).
    pub cell: String,
    /// Runs already planned for this cell (all rounds so far).
    pub pulls: u64,
    /// Maximum runs the cell can absorb (its stratum's member count).
    pub capacity: u64,
    /// Collided trials pooled across the cell's runs.
    pub collided: u64,
    /// Total trials pooled across the cell's runs.
    pub exposures: u64,
}

/// Plans one round: how many of `budget` runs each cell receives.
///
/// A pure function of `(cfg, cells, budget)` — no RNG, no clock — so the
/// same barrier state always yields the same allocation (the determinism
/// argument of DESIGN §13 rests on this). Never allocates past a cell's
/// capacity; returns all zeros when every cell is saturated.
///
/// Budget is spent one run at a time. Each step first serves the
/// [`SamplerConfig::min_pulls`] floor (open below-floor cells,
/// fewest-planned first, lowest index on ties); once the floor holds,
/// the policy picks: `uniform` takes the fewest-planned open cell, `ucb`
/// the open cell with the highest Wilson upper bound at the *barrier*
/// (static within the round — optimism is re-evaluated at the next
/// barrier, not mid-round), `ci-width` the open cell whose interval is
/// widest *after* the runs already planned this round (so a round
/// spreads over near-tied cells instead of piling on one).
pub fn plan_round(cfg: &SamplerConfig, cells: &[CellSignal], budget: u64) -> Vec<u64> {
    let mut extra = vec![0u64; cells.len()];
    if cells.is_empty() {
        return extra;
    }
    let ucb_score: Vec<f64> = cells
        .iter()
        .map(|c| wilson_interval(c.collided, c.exposures, cfg.z).hi)
        .collect();
    for _ in 0..budget {
        let open = |i: usize| cells[i].pulls + extra[i] < cells[i].capacity;
        let below_floor = |i: usize| cells[i].pulls + extra[i] < cfg.min_pulls;
        let pick = if (0..cells.len()).any(|i| open(i) && below_floor(i)) {
            (0..cells.len())
                .filter(|&i| open(i) && below_floor(i))
                .min_by_key(|&i| cells[i].pulls + extra[i])
        } else {
            match cfg.policy {
                SamplerPolicy::Uniform => (0..cells.len())
                    .filter(|&i| open(i))
                    .min_by_key(|&i| cells[i].pulls + extra[i]),
                SamplerPolicy::Ucb => {
                    let mut best: Option<usize> = None;
                    for i in (0..cells.len()).filter(|&i| open(i)) {
                        // Strict > keeps the lowest index on exact ties.
                        if best.is_none_or(|b| ucb_score[i] > ucb_score[b]) {
                            best = Some(i);
                        }
                    }
                    best
                }
                SamplerPolicy::CiWidth => {
                    let mut best: Option<(usize, f64)> = None;
                    for i in (0..cells.len()).filter(|&i| open(i)) {
                        // Score the interval as if this round's planned
                        // runs had already landed (clean trials).
                        let w = wilson_interval(
                            cells[i].collided,
                            cells[i].exposures + extra[i],
                            cfg.z,
                        )
                        .half_width();
                        if best.is_none_or(|(_, bw)| w > bw) {
                            best = Some((i, w));
                        }
                    }
                    best.map(|(i, _)| i)
                }
            }
        };
        match pick {
            Some(i) => extra[i] += 1,
            None => break,
        }
    }
    extra
}

/// One round's allocation, as planned at its barrier. Serialized into
/// the decision log so resume-equivalence can byte-diff *decisions*, not
/// just outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDecision {
    /// Round index (0-based).
    pub round: usize,
    /// `(cell label, runs)` for every cell that received runs, in cell
    /// order.
    pub allocations: Vec<(String, u64)>,
}

impl RoundDecision {
    /// One JSON object, deterministic field order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"round\":{},\"allocations\":[", self.round);
        for (i, (cell, runs)) in self.allocations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"cell\":");
            rdsim_obs::write_json_string(&mut out, cell);
            let _ = write!(out, ",\"runs\":{runs}}}");
        }
        out.push_str("]}");
        out
    }
}

/// The deterministic decision log (`--report-out sampler.json`): every
/// round's allocation in planning order. Byte-identical across
/// schedules and across interrupt/resume.
pub fn decision_log_json(rounds: &[RoundDecision]) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"rounds\":[");
    for (i, round) in rounds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&round.to_json());
    }
    out.push_str("]}");
    out
}

/// How [`run_population_campaign`] should run.
#[derive(Debug, Clone)]
pub struct PopulationOptions {
    /// The campaign seed (population synthesis and every run seed derive
    /// from it in the synthetic salt domain).
    pub seed: u64,
    /// Subjects to synthesize.
    pub population: usize,
    /// Total run budget (clamped to the grid's capacity).
    pub budget: u64,
    /// Sampler policy and tuning.
    pub sampler: SamplerConfig,
    /// The scenario configuration shared by all runs (each run overrides
    /// [`ScenarioConfig::fault_override`] with its cell's fault).
    pub config: ScenarioConfig,
    /// Worker threads.
    pub jobs: usize,
    /// Runs per executor task (the chunk a worker takes at a time).
    pub batch: usize,
    /// Render the live progress line on stderr.
    pub progress: bool,
    /// Append each completed run's summary to this JSONL checkpoint.
    pub checkpoint: Option<PathBuf>,
    /// Replay the checkpoint into the rounds that planned its runs and
    /// execute only the rest (requires `checkpoint`).
    pub resume: bool,
    /// Stop after this many *fresh* runs of this invocation (resumed
    /// runs are free). For exercising interrupt/resume.
    pub interrupt_after: Option<usize>,
}

impl PopulationOptions {
    /// Options for a plain single-shot population campaign.
    pub fn new(seed: u64, population: usize, budget: u64, sampler: SamplerConfig) -> Self {
        PopulationOptions {
            seed,
            population,
            budget,
            sampler,
            config: ScenarioConfig::default(),
            jobs: 1,
            batch: 1,
            progress: false,
            checkpoint: None,
            resume: false,
            interrupt_after: None,
        }
    }
}

/// What a population-campaign invocation produced.
#[derive(Debug)]
pub struct PopulationOutcome {
    /// The streaming aggregate over every folded run.
    pub store: CampaignStore,
    /// Fleet + sampler telemetry (`executor.*` instruments; excluded
    /// from every fingerprint).
    pub fleet: RunTelemetry,
    /// Digest of the synthesized population.
    pub population_digest: u64,
    /// Distinct strata in the population.
    pub strata: usize,
    /// Every round's allocation, in planning order.
    pub rounds: Vec<RoundDecision>,
    /// Runs in the store (resumed + fresh).
    pub completed: usize,
    /// Runs the full campaign comprises (budget clamped to capacity).
    pub total: usize,
    /// Runs adopted from the checkpoint rather than executed.
    pub resumed: usize,
    /// Whether `interrupt_after` cut this invocation short.
    pub interrupted: bool,
}

/// One (stratum × fault) cell of the campaign grid.
struct GridCell {
    stratum: String,
    fault: PaperFault,
    condition: &'static str,
    label: String,
    members: Vec<usize>,
}

/// Runs an adaptive population campaign: synthesize the population,
/// build the (stratum × fault) grid, then loop rounds of plan → execute
/// → fold until the budget is spent (or every cell is saturated).
///
/// The store fingerprint, report JSON and decision log of
/// `resume(checkpoint) ∪ remaining runs` are byte-identical to a
/// single-shot campaign's, for every interrupt point and every
/// `jobs`/`batch` combination — `tests/resume_equivalence.rs` and the CI
/// `campaign-sampler-determinism` job hold those equalities.
pub fn run_population_campaign(opts: &PopulationOptions) -> Result<PopulationOutcome, String> {
    if opts.population == 0 {
        return Err("population must be at least 1".to_owned());
    }
    if opts.budget == 0 {
        return Err("campaign budget must be at least 1".to_owned());
    }
    if opts.sampler.round_size == 0 {
        return Err("sampler round size must be at least 1".to_owned());
    }
    let population = synthesize_population(opts.seed, opts.population);
    let pop_digest = population_digest(opts.seed, &population);
    let mut strata: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for subject in &population {
        strata
            .entry(subject.stratum.clone())
            .or_default()
            .push(subject.index);
    }
    let cells: Vec<GridCell> = strata
        .iter()
        .flat_map(|(stratum, members)| {
            PaperFault::ALL.into_iter().map(move |fault| {
                let condition = fault_condition(fault);
                GridCell {
                    stratum: stratum.clone(),
                    fault,
                    condition,
                    label: format!("{stratum}|{condition}"),
                    members: members.clone(),
                }
            })
        })
        .collect();
    let capacity: u64 = cells.iter().map(|c| c.members.len() as u64).sum();
    let total = opts.budget.min(capacity);

    // Resumed runs are *not* folded up front: each is replayed into the
    // round that planned it, so every barrier sees exactly the rounds
    // before it — the invariant the decision-log equality rests on.
    let mut resumed_map: BTreeMap<RunKey, RunSummary> = BTreeMap::new();
    if opts.resume {
        let path = opts
            .checkpoint
            .as_ref()
            .ok_or("resume requires a checkpoint path")?;
        for summary in load_checkpoint_summaries(path, opts.seed, total as usize)? {
            resumed_map.insert(summary.key(), summary);
        }
    }
    let resumed_total = resumed_map.len();

    let writer = match &opts.checkpoint {
        Some(path) => Some(open_checkpoint_writer(
            path,
            opts.resume,
            opts.seed,
            total as usize,
        )?),
        None => None,
    };

    let batch = opts.batch.max(1);
    let meter = Mutex::new(ProgressMeter::new(
        (total as usize).saturating_sub(resumed_total) as u64,
        opts.jobs.max(1),
    ));
    let chunk_ns = Histogram::new();
    let plan_ns = Histogram::new();
    let queue_depth_max = AtomicU64::new(0);
    let write_failed = AtomicBool::new(false);
    let started = Instant::now();

    let mut store = CampaignStore::new();
    let mut pulls: Vec<u64> = vec![0; cells.len()];
    let mut rounds: Vec<RoundDecision> = Vec::new();
    let mut planned_total: u64 = 0;
    let mut fresh_executed: usize = 0;
    let mut resumed_used: usize = 0;
    let mut interrupted = false;

    while planned_total < total && !interrupted {
        // --- Round barrier: read the bandit signal out of the store
        // (which holds exactly the rounds before this one) and plan.
        let round_budget = (total - planned_total).min(opts.sampler.round_size as u64);
        let signals: Vec<CellSignal> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let agg = store.pooled_cell(SCENARIO, c.condition, &format!("{}/", c.stratum));
                CellSignal {
                    cell: c.label.clone(),
                    pulls: pulls[i],
                    capacity: c.members.len() as u64,
                    collided: agg.collided,
                    exposures: agg.exposures,
                }
            })
            .collect();
        let plan_started = Instant::now();
        let alloc = plan_round(&opts.sampler, &signals, round_budget);
        plan_ns.record(plan_started.elapsed().as_nanos() as u64);
        let planned: u64 = alloc.iter().sum();
        if planned == 0 {
            break;
        }
        rounds.push(RoundDecision {
            round: rounds.len(),
            allocations: cells
                .iter()
                .zip(&alloc)
                .filter(|(_, &n)| n > 0)
                .map(|(c, &n)| (c.label.clone(), n))
                .collect(),
        });

        // --- Concretize the round: cell order, then pull order within a
        // cell (members are consumed in index order, continuing where
        // earlier rounds left off).
        let mut round_jobs: Vec<(usize, usize)> = Vec::with_capacity(planned as usize);
        for (i, &n) in alloc.iter().enumerate() {
            for k in 0..n {
                round_jobs.push((i, cells[i].members[(pulls[i] + k) as usize]));
            }
        }

        // --- Replay resumed runs into this round; execute the rest.
        let mut to_run: Vec<(usize, usize)> = Vec::new();
        for &(ci, mi) in &round_jobs {
            let key = RunKey {
                scenario: SCENARIO.to_owned(),
                subject: population[mi].profile.id.clone(),
                kind: cells[ci].condition.to_owned(),
            };
            match resumed_map.remove(&key) {
                Some(summary) => {
                    store.fold(&summary);
                    resumed_used += 1;
                }
                None => to_run.push((ci, mi)),
            }
        }
        if let Some(limit) = opts.interrupt_after {
            let allowed = limit.saturating_sub(fresh_executed);
            if to_run.len() > allowed {
                to_run.truncate(allowed);
                interrupted = true;
            }
        }

        if !to_run.is_empty() {
            let store_mx = Mutex::new(std::mem::take(&mut store));
            let exec_jobs = to_run.clone();
            let outputs: Vec<RunOutput> = execute_ordered(
                to_run.clone(),
                opts.jobs,
                batch,
                |chunk| {
                    chunk
                        .into_iter()
                        .map(|(ci, mi)| run_population_cell(opts, &cells[ci], &population[mi]))
                        .collect()
                },
                |done: ChunkDone<'_, RunOutput>| {
                    let per_run_ns = done.busy_ns / done.results.len().max(1) as u64;
                    chunk_ns.record(done.busy_ns);
                    queue_depth_max.fetch_max(done.pending as u64, Ordering::Relaxed);
                    for (i, output) in done.results.iter().enumerate() {
                        let (ci, mi) = exec_jobs[done.chunk * batch + i];
                        let cell = &cells[ci];
                        let subject = &population[mi];
                        let seed =
                            synthetic_run_seed(opts.seed, &subject.profile.id, cell.condition);
                        let mut summary = summarize_run(SCENARIO, seed, output, per_run_ns);
                        // The condition is the run's identity axis: one
                        // run per (subject × condition), so the RunKey
                        // must carry the condition, not the run kind.
                        summary.kind = cell.condition.to_owned();
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
            drop(outputs);
            store = store_mx.into_inner().expect("store lock");
            fresh_executed += exec_jobs.len();
        }

        for (i, &n) in alloc.iter().enumerate() {
            pulls[i] += n;
        }
        planned_total += planned;
    }

    if write_failed.load(Ordering::Relaxed) {
        return Err("failed to append to the checkpoint stream".to_owned());
    }
    if !interrupted && !resumed_map.is_empty() {
        return Err(format!(
            "checkpoint contains {} run(s) this campaign never planned — was it \
             written with different sampler settings?",
            resumed_map.len()
        ));
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
    fleet
        .counters
        .insert("executor.sampler.rounds".to_owned(), rounds.len() as u64);
    fleet
        .counters
        .insert("executor.sampler.planned_runs".to_owned(), planned_total);
    fleet.counters.insert(
        "executor.sampler.resumed_runs".to_owned(),
        resumed_used as u64,
    );
    fleet.gauges.insert(
        "executor.queue_depth.max".to_owned(),
        queue_depth_max.load(Ordering::Relaxed) as f64,
    );
    fleet
        .histograms
        .insert("executor.chunk_ns".to_owned(), chunk_ns.snapshot());
    fleet
        .histograms
        .insert("executor.sampler.plan_ns".to_owned(), plan_ns.snapshot());
    fleet.wall_elapsed_ns = started.elapsed().as_nanos() as u64;

    Ok(PopulationOutcome {
        completed: store.runs() as usize,
        store,
        fleet,
        population_digest: pop_digest,
        strata: strata.len(),
        rounds,
        total: total as usize,
        resumed: resumed_used,
        interrupted,
    })
}

/// Runs one population run: the subject's profile, the synthetic-domain
/// seed, and the scenario pinned to the cell's fault.
fn run_population_cell(
    opts: &PopulationOptions,
    cell: &GridCell,
    subject: &SyntheticSubject,
) -> RunOutput {
    let seed = synthetic_run_seed(opts.seed, &subject.profile.id, cell.condition);
    let config = ScenarioConfig {
        fault_override: Some(cell.fault),
        ..opts.config.clone()
    };
    run_protocol(&subject.profile, RunKind::Faulty, seed, &config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(cell: &str, pulls: u64, capacity: u64, collided: u64, exposures: u64) -> CellSignal {
        CellSignal {
            cell: cell.to_owned(),
            pulls,
            capacity,
            collided,
            exposures,
        }
    }

    #[test]
    fn floor_is_served_before_any_policy() {
        let cfg = SamplerConfig::new(SamplerPolicy::Ucb);
        // One hot cell, one unexplored: the floor feeds the unexplored
        // cell first even though the hot cell's upper bound is 1.0-ish.
        let cells = vec![signal("hot", 4, 100, 4, 4), signal("cold", 0, 100, 0, 0)];
        let alloc = plan_round(&cfg, &cells, 6);
        assert_eq!(alloc[1], cfg.min_pulls, "cold cell reaches the floor");
        assert_eq!(alloc[0] + alloc[1], 6);
    }

    #[test]
    fn ucb_sends_the_round_to_the_highest_upper_bound() {
        let mut cfg = SamplerConfig::new(SamplerPolicy::Ucb);
        cfg.min_pulls = 0;
        let cells = vec![
            signal("a", 10, 100, 0, 30),
            signal("b", 10, 100, 4, 30),
            signal("c", 10, 100, 1, 30),
        ];
        assert_eq!(plan_round(&cfg, &cells, 5), vec![0, 5, 0]);
    }

    #[test]
    fn allocation_respects_capacity_and_spills() {
        let mut cfg = SamplerConfig::new(SamplerPolicy::Ucb);
        cfg.min_pulls = 0;
        let cells = vec![
            signal("a", 9, 10, 20, 27), // best upper bound, 1 slot left
            signal("b", 3, 10, 0, 9),
        ];
        let alloc = plan_round(&cfg, &cells, 5);
        assert_eq!(alloc[0], 1, "capacity caps the winner");
        assert_eq!(alloc[1], 4, "budget spills to the runner-up");
        // Fully saturated grid: nothing to allocate.
        let full = vec![signal("a", 10, 10, 5, 27)];
        assert_eq!(plan_round(&cfg, &full, 5), vec![0]);
    }

    #[test]
    fn uniform_spreads_evenly_with_ties_to_the_lowest_index() {
        let mut cfg = SamplerConfig::new(SamplerPolicy::Uniform);
        cfg.min_pulls = 0;
        let cells = vec![
            signal("a", 2, 100, 0, 6),
            signal("b", 0, 100, 0, 0),
            signal("c", 1, 100, 0, 3),
        ];
        assert_eq!(plan_round(&cfg, &cells, 4), vec![1, 2, 1]);
    }

    #[test]
    fn ci_width_accounts_for_in_round_allocations() {
        let mut cfg = SamplerConfig::new(SamplerPolicy::CiWidth);
        cfg.min_pulls = 0;
        // Two identical wide cells: extra-aware scoring alternates
        // between them instead of dumping the whole round on index 0.
        let cells = vec![signal("a", 3, 100, 1, 9), signal("b", 3, 100, 1, 9)];
        assert_eq!(plan_round(&cfg, &cells, 4), vec![2, 2]);
    }

    #[test]
    fn plan_round_is_a_pure_function() {
        let cfg = SamplerConfig::new(SamplerPolicy::CiWidth);
        let cells = vec![
            signal("a", 5, 20, 2, 15),
            signal("b", 3, 20, 0, 9),
            signal("c", 0, 20, 0, 0),
        ];
        assert_eq!(plan_round(&cfg, &cells, 7), plan_round(&cfg, &cells, 7));
    }

    #[test]
    fn decision_log_serializes_deterministically() {
        let rounds = vec![
            RoundDecision {
                round: 0,
                allocations: vec![
                    ("g0a0|delay:05ms".to_owned(), 3),
                    ("g1a2|loss:05pct".to_owned(), 1),
                ],
            },
            RoundDecision {
                round: 1,
                allocations: vec![("g1a2|loss:05pct".to_owned(), 4)],
            },
        ];
        let json = decision_log_json(&rounds);
        assert_eq!(
            json,
            "{\"rounds\":[{\"round\":0,\"allocations\":[{\"cell\":\"g0a0|delay:05ms\",\
             \"runs\":3},{\"cell\":\"g1a2|loss:05pct\",\"runs\":1}]},{\"round\":1,\
             \"allocations\":[{\"cell\":\"g1a2|loss:05pct\",\"runs\":4}]}]}"
        );
        assert!(rdsim_obs::JsonValue::parse(&json).is_ok());
    }

    #[test]
    fn population_campaign_rejects_degenerate_options() {
        let sampler = SamplerConfig::new(SamplerPolicy::Uniform);
        assert!(
            run_population_campaign(&PopulationOptions::new(1, 0, 5, sampler.clone())).is_err()
        );
        assert!(
            run_population_campaign(&PopulationOptions::new(1, 5, 0, sampler.clone())).is_err()
        );
        let mut zero_round = PopulationOptions::new(1, 5, 5, sampler);
        zero_round.sampler.round_size = 0;
        assert!(run_population_campaign(&zero_round).is_err());
    }
}

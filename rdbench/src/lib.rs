//! `rdbench`: the end-to-end benchmark of `rdsim`, built from outside the
//! program.
//!
//! One run measures one workload for a fixed number of seconds. With
//! tracing off it reports the end-to-end metrics; with tracing on it
//! interleaves traced and untraced repetitions and reports the per-layer
//! table, whose self times add up to the traced wall time. See
//! `rdbench/README.md` for the workloads, metrics and how to run it.

#![forbid(unsafe_code)]

pub mod env;
pub mod linktrace;
pub mod spans;
pub mod stats;
pub mod workloads;

use spans::{chrome_document, Spans};
use stats::{median, Spread};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{failed_runs, run_rep, setup, Observed, Pass, Rep, Size, Workload, STAGES};

/// Set-up samples after the reference repetition. `setup_s` is the median
/// of these and of [`SETUP_EACH`] more after every repetition: spreading
/// them over the run lets them sample the same host-speed drift the
/// repetitions do.
const SETUP_FIRST: usize = 11;
/// Set-up samples after each repetition.
const SETUP_EACH: usize = 4;
/// Shortest set-up sample. A sample times a batch of back-to-back set-ups
/// lasting at least this long and divides by the batch size, so neither
/// clock granularity nor one cold set-up decides it.
const SETUP_SAMPLE: Duration = Duration::from_millis(10);

/// Fewest measured repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 2;

/// A run stops early after this many repetitions panicked or errored.
const MAX_FAILED_REPS: usize = 8;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; the program sees only inputs made from it.
    pub seed: u64,
    /// How long the repetitions run.
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A measured quantity: its samples in the order taken, and their spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantity {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Samples, in the order taken.
    pub samples: Vec<f64>,
    /// Their median, quartiles and range.
    pub spread: Spread,
}

/// One row of the reconciled per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Module the time belongs to.
    pub layer: &'static str,
    /// Span name.
    pub name: String,
    /// Spans (or program samples) folded into the row.
    pub count: u64,
    /// Self time, ns.
    pub self_ns: u64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The options the run used.
    pub options: Options,
    /// Every check passed.
    pub correct: bool,
    /// Protocol runs attempted in checked repetitions.
    pub attempted: u64,
    /// Runs that panicked or failed a digest check.
    pub failed: u64,
    /// The metrics the result line carries: end-to-end ones untraced,
    /// per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Every end-to-end quantity with its samples and their spread.
    pub spreads: Vec<Quantity>,
    /// The reconciled per-layer table (traced runs).
    pub layers: Vec<LayerRow>,
    /// Traced wall time the table adds up to, ns.
    pub traced_wall_ns: u64,
    /// Untraced and traced repetitions measured.
    pub reps: (usize, usize),
    /// The workload's primary digest and the pinned reference, if any.
    pub digest: (u64, Option<u64>),
    /// What went wrong, for the log.
    pub notes: Vec<String>,
    /// Chrome `trace_event` JSON of the traced repetitions.
    pub chrome: Option<String>,
}

/// Pinned primary digests of full-size workloads, by seed.
const PINNED: &str = include_str!("../reference.txt");

/// The pinned primary digest for `workload` at `seed`, if the table has it.
pub fn pinned(workload: Workload, seed: u64, size: &Size) -> Option<u64> {
    if size.label != "full" {
        return None;
    }
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run in progress: the inputs, the set-up samples, and the tally of
/// checked repetitions against the reference.
struct Bench<'a> {
    opts: &'a Options,
    inputs: workloads::Inputs,
    /// Set-ups per sample.
    setup_batch: usize,
    setup_s: Vec<f64>,
    parse_ns: Vec<f64>,
    reference: Observed,
    /// The pinned digest for this seed, if `reference.txt` has one.
    pin: Option<u64>,
    /// The reference repetition contradicted the pin: every run fails.
    poisoned: bool,
    runs_per_rep: u64,
    /// `VmHWM` right after the reference repetition, MiB.
    peak_rss: f64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl<'a> Bench<'a> {
    /// Set-up, then the reference repetition, which warms caches and fixes
    /// the digests every later repetition must reproduce.
    fn start(opts: &'a Options) -> Result<Bench<'a>, String> {
        let inputs = setup(opts.workload, opts.seed, &opts.size)?;
        let warm = guarded(|| run_rep(&inputs, Pass::EndToEnd))
            .map_err(|e| format!("reference repetition: {e}"))?;
        let pin = pinned(opts.workload, opts.seed, &opts.size);
        let mut notes = warm.errors.clone();
        let poisoned = pin.is_some_and(|p| p != warm.observed.primary);
        if poisoned {
            notes.push(format!(
                "digest {:016x} differs from the pinned reference {:016x} for seed {}",
                warm.observed.primary,
                pin.unwrap_or_default(),
                opts.seed
            ));
        }
        // Read before later repetitions add allocator retention, which
        // grows with their number and so with host speed.
        let peak_rss = peak_rss_mib();
        let mut bench = Bench {
            opts,
            inputs,
            setup_batch: 1,
            setup_s: Vec::new(),
            parse_ns: Vec::new(),
            reference: warm.observed.clone(),
            pin,
            poisoned,
            runs_per_rep: warm.runs,
            peak_rss,
            attempted: 0,
            failed: 0,
            notes,
        };
        while bench.timed_setups()?.0 * (bench.setup_batch as f64) < SETUP_SAMPLE.as_secs_f64() {
            bench.setup_batch *= 2;
        }
        bench.setups(SETUP_FIRST)?;
        Ok(bench)
    }

    /// Builds the inputs `setup_batch` times back to back; the seconds and
    /// `TraceSchedule::parse` ns per set-up. The inputs in use stay as
    /// they are, and the ones built are dropped after the clock stops.
    fn timed_setups(&self) -> Result<(f64, f64), String> {
        let mut built = Vec::with_capacity(self.setup_batch);
        let started = Instant::now();
        for _ in 0..self.setup_batch {
            built.push(setup(self.opts.workload, self.opts.seed, &self.opts.size)?);
        }
        let secs = started.elapsed().as_secs_f64();
        let parse_ns: u64 = built.iter().map(|b| b.parse_ns).sum();
        let n = self.setup_batch as f64;
        Ok((secs / n, parse_ns as f64 / n))
    }

    /// Takes `n` more set-up samples.
    fn setups(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n {
            let (secs, parse_ns) = self.timed_setups()?;
            self.setup_s.push(secs);
            self.parse_ns.push(parse_ns);
        }
        Ok(())
    }

    /// Runs and checks one repetition, then samples set-up again; `None`
    /// when the repetition panicked or errored.
    fn rep(&mut self, pass: Pass) -> Result<Option<Rep>, String> {
        let outcome = guarded(|| run_rep(&self.inputs, pass));
        let rep = match outcome {
            Ok(rep) => {
                let bad = if self.poisoned {
                    rep.runs
                } else {
                    failed_runs(self.opts.workload, &rep, &self.reference)
                };
                self.attempted += rep.runs;
                self.failed += bad;
                self.notes.extend(rep.errors.iter().cloned());
                if bad > 0 && rep.errors.is_empty() && !self.poisoned {
                    self.notes.push(format!(
                        "{bad} run(s) of a {pass:?} repetition failed the digest check"
                    ));
                }
                Some(rep)
            }
            Err(e) => {
                self.attempted += self.runs_per_rep;
                self.failed += self.runs_per_rep;
                self.notes.push(e);
                None
            }
        };
        self.setups(SETUP_EACH)?;
        Ok(rep)
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// When set-up fails or the reference repetition cannot run; nothing is
/// measured then.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut bench = Bench::start(opts)?;
    let mut outcome = Outcome {
        options: opts.clone(),
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        spreads: Vec::new(),
        layers: Vec::new(),
        traced_wall_ns: 0,
        reps: (0, 0),
        digest: (bench.reference.primary, bench.pin),
        notes: Vec::new(),
        chrome: None,
    };
    if opts.trace {
        measure_traced(&mut bench, &mut outcome)?;
    } else {
        measure_end_to_end(&mut bench, &mut outcome)?;
    }
    outcome.attempted = bench.attempted;
    outcome.failed = bench.failed;
    // Every failed check leaves a note.
    outcome.correct = bench.failed == 0 && bench.attempted > 0 && bench.notes.is_empty();
    outcome.notes = bench.notes;
    Ok(outcome)
}

/// End-to-end metrics from untraced repetitions.
fn measure_end_to_end(bench: &mut Bench, outcome: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_secs_f64(bench.opts.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut failures = 0;
    while (reps.len() < MIN_REPS || started.elapsed() < budget) && failures <= MAX_FAILED_REPS {
        match bench.rep(Pass::EndToEnd)? {
            Some(rep) => reps.push(rep),
            None => failures += 1,
        }
    }
    outcome.reps.0 = reps.len();
    // Untraced outputs of the campaign workloads do not expose step
    // counts; one traced repetition, whose record digests prove it is the
    // same simulation, supplies them.
    let steps = match reps.first().and_then(|r| r.steps) {
        Some(s) => Some(s),
        None => {
            outcome.reps.1 = 1;
            bench.rep(Pass::Traced)?.and_then(|r| r.steps)
        }
    };
    if steps.is_none() {
        bench
            .notes
            .push("no step count: the traced repetition failed".to_owned());
    }
    let wall: Vec<f64> = reps.iter().map(|r| r.wall_ns() as f64 / 1e9).collect();
    let rate: Vec<f64> = reps
        .iter()
        .map(|r| steps.unwrap_or(0) as f64 / (r.sim_ns().max(1) as f64 / 1e9))
        .collect();
    push_spread(outcome, "wall_s", "s", &wall);
    push_spread(outcome, "steps_per_s", "steps/s", &rate);
    push_spread(outcome, "setup_s", "s", &bench.setup_s);
    push_spread(outcome, "peak_rss_mb", "MiB", &[bench.peak_rss]);
    outcome.metrics = outcome
        .spreads
        .iter()
        .map(|q| Metric {
            name: q.name.clone(),
            unit: q.unit,
            value: q.spread.median,
        })
        .collect();
    let failed_frac = bench.failed as f64 / bench.attempted.max(1) as f64;
    push_spread(outcome, "failed_frac", "ratio", &[failed_frac]);
    Ok(())
}

/// Per-layer metrics from traced repetitions, interleaved with untraced
/// ones (the same calls, the program's recorder off) so host-speed drift
/// hits both sides of the tracing overhead alike.
fn measure_traced(bench: &mut Bench, outcome: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_secs_f64(bench.opts.seconds);
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut failures = 0;
    for turn in 0usize.. {
        let enough = !traced.is_empty() && !untraced.is_empty() && started.elapsed() >= budget;
        if enough || failures > MAX_FAILED_REPS {
            break;
        }
        let pass = if turn.is_multiple_of(2) {
            Pass::Traced
        } else {
            Pass::Untraced
        };
        match bench.rep(pass)? {
            Some(r) if pass == Pass::Traced => traced.push(r),
            Some(r) => untraced.push(r),
            None => failures += 1,
        }
    }
    outcome.reps = (untraced.len(), traced.len());
    let Some(first) = traced.first() else {
        return Ok(());
    };
    let exact = exact_counts(first);
    if traced.iter().any(|r| exact_counts(r) != exact) {
        bench
            .notes
            .push("exact counters differ between traced repetitions".to_owned());
    }
    let secs =
        |reps: &[Rep]| -> Vec<f64> { reps.iter().map(|r| r.wall_ns() as f64 / 1e9).collect() };
    let (plain, walls) = (secs(&untraced), secs(&traced));
    let overhead = median(&walls) / median(&plain) - 1.0;
    let rep = &traced[median_index(&walls)];
    outcome.metrics = per_layer(rep, median(&bench.parse_ns), overhead, &bench.inputs);
    outcome.layers = layer_rows(&rep.spans, rep.root);
    outcome.traced_wall_ns = rep.wall_ns();
    let mut events = Vec::new();
    for (i, r) in traced.iter().enumerate() {
        r.spans
            .chrome_events(bench.opts.workload.name(), i + 1, &mut events);
    }
    outcome.chrome = Some(chrome_document(&events));
    push_spread(outcome, "untraced_wall_s", "s", &plain);
    push_spread(outcome, "traced_wall_s", "s", &walls);
    Ok(())
}

fn push_spread(outcome: &mut Outcome, name: &str, unit: &'static str, values: &[f64]) {
    if let Some(spread) = Spread::of(values) {
        outcome.spreads.push(Quantity {
            name: name.to_owned(),
            unit,
            samples: values.to_vec(),
            spread,
        });
    }
}

/// Index of the repetition whose value is the (lower) median.
fn median_index(values: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(order.len() - 1) / 2]
}

/// The per-layer quantities a speed-only change must leave identical.
pub fn exact_counts(rep: &Rep) -> BTreeMap<&'static str, u64> {
    let t = &rep.tele;
    let both = |n: &str| {
        t.counter(&format!("netem.uplink.{n}")) + t.counter(&format!("netem.downlink.{n}"))
    };
    BTreeMap::from([
        (
            "core.frames_delivered",
            t.counter("session.frames_delivered"),
        ),
        (
            "core.commands_delivered",
            t.counter("session.commands_delivered"),
        ),
        (
            "core.frame_age_p99_us",
            t.histogram("session.frame_age_us").map_or(0, |h| h.p99()),
        ),
        ("simulator.collisions", rep.collisions),
        ("simulator.frames_sent", t.counter("session.frames_sent")),
        ("netem.enqueued", both("enqueued")),
        ("netem.loss_dropped", both("dropped")),
        ("netem.queue_dropped", both("queue_dropped")),
        ("netem.duplicated", both("duplicated")),
        ("netem.reordered", both("reordered")),
        ("netem.corrupted", both("corrupted")),
        ("obs.trace_events", t.counter("session.trace.recorded")),
        (
            "obs.trace_overwritten",
            t.counter("session.trace.overwritten"),
        ),
        ("obs.timeline_windows", rep.timeline_windows),
        ("experiments.runs", rep.runs),
        ("experiments.steps", rep.steps.unwrap_or(0)),
        ("experiments.rounds", rep.rounds),
    ])
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = STAGES
        .iter()
        .map(|s| (format!("core.stage.{s}_ns"), "ns/step"))
        .collect();
    for (name, unit) in [
        ("core.frames_delivered", "count"),
        ("core.commands_delivered", "count"),
        ("core.frame_age_p99_us", "us"),
        ("simulator.collisions", "count"),
        ("simulator.encode_ns", "ns/frame"),
        ("simulator.decode_ns", "ns/frame"),
        ("simulator.frames_sent", "count"),
        ("netem.enqueued", "count"),
        ("netem.loss_dropped", "count"),
        ("netem.queue_dropped", "count"),
        ("netem.duplicated", "count"),
        ("netem.reordered", "count"),
        ("netem.corrupted", "count"),
        ("netem.edges", "count"),
        ("netem.parse_ms", "ms"),
        ("obs.trace_events", "count"),
        ("obs.trace_overwritten", "count"),
        ("obs.timeline_windows", "count"),
        ("obs.export_ms", "ms"),
        ("obs.export_mb", "MiB"),
        ("obs.tracing_overhead", "ratio"),
        ("experiments.unstaged_ns", "ns/step"),
        ("experiments.plan_ms", "ms"),
        ("experiments.fold_ms", "ms"),
        ("experiments.report_ms", "ms"),
        ("experiments.runs", "count"),
        ("experiments.steps", "count"),
        ("experiments.rounds", "count"),
        ("metrics.analysis_ms", "ms"),
        ("unattributed_ms", "ms"),
    ] {
        names.push((name.to_owned(), unit));
    }
    names
}

/// The per-layer metrics of one traced repetition.
fn per_layer(rep: &Rep, parse_ns: f64, overhead: f64, inputs: &workloads::Inputs) -> Vec<Metric> {
    let steps = rep.steps.unwrap_or(0).max(1) as f64;
    let sp = &rep.spans;
    let ms = |name: &str| sp.total_ns(name) as f64 / 1e6;
    let mut values: BTreeMap<String, f64> = exact_counts(rep)
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v as f64))
        .collect();
    for s in STAGES {
        values.insert(
            format!("core.stage.{s}_ns"),
            sp.total_self_ns(&format!("core.stage.{s}")) as f64 / steps,
        );
    }
    let mean = |h: &str| rep.tele.histogram(h).map_or(0.0, |h| h.mean());
    values.insert("simulator.encode_ns".into(), mean("codec.encode_ns"));
    values.insert("simulator.decode_ns".into(), mean("codec.decode_ns"));
    values.insert(
        "netem.edges".into(),
        inputs.trace.as_ref().map_or(0, |t| t.edges()) as f64,
    );
    values.insert("netem.parse_ms".into(), parse_ns / 1e6);
    values.insert("obs.export_ms".into(), ms("export"));
    values.insert(
        "obs.export_mb".into(),
        rep.export_bytes as f64 / (1024.0 * 1024.0),
    );
    values.insert("obs.tracing_overhead".into(), overhead);
    let unstaged: u64 = rep.sim.iter().map(|&id| sp.self_ns(id)).sum();
    values.insert("experiments.unstaged_ns".into(), unstaged as f64 / steps);
    values.insert("experiments.plan_ms".into(), ms("experiments.plan"));
    values.insert("experiments.fold_ms".into(), ms("experiments.fold"));
    values.insert("experiments.report_ms".into(), ms("report_json"));
    values.insert("metrics.analysis_ms".into(), ms("analysis"));
    values.insert("unattributed_ms".into(), sp.self_ns(rep.root) as f64 / 1e6);
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// Self time per span name under `root`, root last as `unattributed`.
pub fn layer_rows(spans: &Spans, root: usize) -> Vec<LayerRow> {
    let mut rows: Vec<LayerRow> = Vec::new();
    for (i, s) in spans.spans().iter().enumerate() {
        if i == root {
            continue;
        }
        let self_ns = spans.self_ns(i);
        let count = if s.samples > 0 { s.samples } else { 1 };
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.self_ns += self_ns;
                r.count += count;
            }
            None => rows.push(LayerRow {
                layer: s.layer,
                name: s.name.clone(),
                count,
                self_ns,
            }),
        }
    }
    rows.push(LayerRow {
        layer: "(none)",
        name: "unattributed".to_owned(),
        count: 1,
        self_ns: spans.self_ns(root),
    });
    rows
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(",")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The detail record: spread of every end-to-end quantity, the per-layer
/// table, digests and the environment.
pub fn detail_json(o: &Outcome, env: &env::Env) -> String {
    let spreads: Vec<String> = o
        .spreads
        .iter()
        .map(|q| {
            let s = &q.spread;
            let samples: Vec<String> = q.samples.iter().map(|&v| json_num(v)).collect();
            format!(
                "\"{}\":{{\"unit\":\"{}\",\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"samples\":[{}]}}",
                q.name,
                q.unit,
                s.n,
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                json_num(s.min),
                json_num(s.max),
                samples.join(",")
            )
        })
        .collect();
    let layers: Vec<String> = o
        .layers
        .iter()
        .map(|r| {
            format!(
                "{{\"layer\":\"{}\",\"name\":\"{}\",\"count\":{},\"self_ms\":{}}}",
                r.layer,
                r.name,
                r.count,
                json_num(r.self_ns as f64 / 1e6)
            )
        })
        .collect();
    let notes: Vec<String> = o.notes.iter().map(|n| format!("{n:?}")).collect();
    let opts = &o.options;
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"size\":\"{}\",\"seconds\":{},\
         \"reps\":{{\"untraced\":{},\"traced\":{}}},\"digest\":\"{:016x}\",\"pinned\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"spread\":{{{}}},\
         \"traced_wall_ms\":{},\"layers\":[{}],\"notes\":[{}],\"env\":{}}}",
        opts.workload.name(),
        opts.seed,
        opts.trace,
        opts.size.label,
        json_num(opts.seconds),
        o.reps.0,
        o.reps.1,
        o.digest.0,
        o.digest
            .1
            .map_or("null".to_owned(), |p| format!("\"{p:016x}\"")),
        o.correct,
        o.attempted,
        o.failed,
        spreads.join(","),
        json_num(o.traced_wall_ns as f64 / 1e6),
        layers.join(","),
        notes.join(","),
        env.to_json()
    )
}

/// The human-readable report printed before the result line.
pub fn text_report(o: &Outcome) -> String {
    use std::fmt::Write as _;
    let opts = &o.options;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rdbench {} seed {} ({} size, {} untraced + {} traced repetitions, {:.0} s)",
        opts.workload.name(),
        opts.seed,
        opts.size.label,
        o.reps.0,
        o.reps.1,
        opts.seconds
    );
    if !o.spreads.is_empty() {
        let _ = writeln!(
            out,
            "  {:<16} {:>8} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "q1", "q3", "min", "max", "n"
        );
        for q in &o.spreads {
            let s = &q.spread;
            let _ = writeln!(
                out,
                "  {:<16} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                q.name, q.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        }
    }
    if !o.layers.is_empty() {
        let _ = writeln!(
            out,
            "  per-layer self time of the median traced repetition ({:.3} ms):",
            o.traced_wall_ns as f64 / 1e6
        );
        let mut total = 0u64;
        for r in &o.layers {
            total += r.self_ns;
            let _ = writeln!(
                out,
                "  {:<18} {:<26} {:>10} {:>12.3} ms {:>6.2}%",
                r.layer,
                r.name,
                r.count,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / o.traced_wall_ns.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "  {:<18} {:<26} {:>10} {:>12.3} ms (traced wall {:.3} ms)",
            "total",
            "",
            "",
            total as f64 / 1e6,
            o.traced_wall_ns as f64 / 1e6
        );
        for m in &o.metrics {
            let _ = writeln!(out, "  {:<28} {:>18} {}", m.name, json_num(m.value), m.unit);
        }
    }
    for n in &o.notes {
        let _ = writeln!(out, "  note: {n}");
    }
    out
}

//! Streaming, order-insensitive campaign result store.
//!
//! A campaign at population scale (ROADMAP item 1: 10⁴–10⁶ sessions)
//! cannot hold every [`RunRecord`]-sized artifact in memory, and its
//! workers finish in scheduling order, not submission order. The
//! [`CampaignStore`] is the aggregate that makes that tractable: each
//! finished run is boiled down to a small [`RunSummary`] and folded in as
//! it completes. Three algebraic properties carry the whole design:
//!
//! * **order-insensitivity** — folding the same set of summaries in any
//!   order yields bit-identical store state. Every accumulator is an
//!   integer (`u64`/`u128`/`i128`; `f64` addition is *not* associative,
//!   so fractional inputs are quantized to micro-units first), run digests
//!   fold through XOR and a wrapping sum (both commutative and
//!   associative), and the maps are `BTreeMap`s;
//! * **mergeability** — two stores built from disjoint run sets merge
//!   into the store of the union ([`CampaignStore::merge`]), which is what
//!   makes sharded and resumed campaigns equal to single-shot ones;
//! * **exact serializability** — a [`RunSummary`] round-trips through
//!   JSON bit-exactly (all fields are integers or strings), so a
//!   checkpoint stream replayed into a fresh store reproduces the original
//!   store state, fingerprint included.
//!
//! Aggregates are keyed by (scenario × condition × subject). A
//! *condition* is a cell label such as `delay:05ms` / `loss:02pct` (one
//! per fault-injection window kind) or `run:golden` (whole-run cells);
//! zero-padding keeps lexicographic order equal to magnitude order.
//! [`CampaignStore::risk_surface`] pools the fault cells across subjects
//! into per-condition `P(collision)` points with Wilson confidence
//! intervals — the delay/loss risk curves the observatory exists to
//! report.
//!
//! [`RunRecord`]: ../rdsim_core/struct.RunRecord.html

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::ci::{wilson_interval, BinomialCi};
use crate::hist::{HistogramSnapshot, BUCKETS};
use crate::json::{write_json_string, JsonError, JsonValue};
use crate::telemetry::{deterministic_instrument, Fnv, RunTelemetry};

/// Scale factor for quantized fractional observations: rates are stored
/// as integer micro-units (`round(value × 1e6)`) so cell accumulation is
/// associative. One micro-unit of SRR is 10⁻⁶ reversals/minute — far
/// below measurement noise.
pub const MICRO: f64 = 1e6;

/// Quantizes a fractional observation to micro-units for exact, order-
/// insensitive accumulation.
pub fn to_micro(value: f64) -> i64 {
    (value * MICRO).round() as i64
}

/// Identity of one run within a campaign: scenario × subject × run-level
/// kind (`training` / `golden` / `faulty`; population campaigns use the
/// fault-condition label, e.g. `delay:50ms`, so a subject's runs across
/// conditions stay distinct). The checkpoint layer uses this as the
/// "already done" key when resuming.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunKey {
    /// Scenario name (e.g. `town05`).
    pub scenario: String,
    /// Subject id (e.g. `T5`).
    pub subject: String,
    /// Run kind slug (`training` / `golden` / `faulty`).
    pub kind: String,
}

/// One run's observation for one condition cell.
///
/// All fields are integers; fractional metrics are pre-quantized with
/// [`to_micro`] by the summarizer so that folding stays associative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellSample {
    /// Condition label (`delay:05ms`, `loss:02pct`, `run:faulty`, …).
    pub condition: String,
    /// Trials this run contributes (fault windows of this condition, or 1
    /// for a `run:*` cell).
    pub exposures: u64,
    /// Trials with at least one collision (`<= exposures`; the Wilson-CI
    /// numerator).
    pub collided: u64,
    /// Raw collision count (a window can contain several impacts).
    pub collisions: u64,
    /// TTC samples below the safety threshold within the cell's windows.
    pub ttc_breaches: u64,
    /// TTC samples observed within the cell's windows.
    pub ttc_samples: u64,
    /// Steering reversals within the cell's windows.
    pub srr_reversals: u64,
    /// Pooled SRR of this run's windows, in micro-reversals/minute
    /// ([`to_micro`]); meaningful only when `srr_runs == 1`.
    pub srr_rate_micro: i64,
    /// 1 when this run produced a usable SRR for the cell, else 0.
    pub srr_runs: u64,
    /// Simulated microseconds the run spent inside this cell's fault
    /// windows (all windows for a `run:*` cell) — the time-in-fault
    /// exposure denominator for rate-style reporting.
    pub fault_exposure_us: u64,
}

/// Mergeable per-cell aggregate: the sum of every [`CellSample`] folded
/// into the cell. Integer-only, so merging is associative, commutative
/// and order-insensitive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellAggregate {
    /// Runs that contributed at least one sample to this cell.
    pub runs: u64,
    /// Total trials.
    pub exposures: u64,
    /// Trials with at least one collision.
    pub collided: u64,
    /// Raw collision count.
    pub collisions: u64,
    /// TTC breach count.
    pub ttc_breaches: u64,
    /// TTC sample count.
    pub ttc_samples: u64,
    /// Steering reversal count.
    pub srr_reversals: u64,
    /// Σ per-run pooled SRR in micro-reversals/minute (`i128`: immune to
    /// overflow at any campaign size).
    pub srr_rate_micro: i128,
    /// Runs with a usable SRR.
    pub srr_runs: u64,
    /// Σ simulated microseconds inside this cell's fault windows (`u128`:
    /// immune to overflow at any campaign size).
    pub fault_exposure_us: u128,
}

impl CellAggregate {
    fn fold(&mut self, s: &CellSample) {
        self.runs += 1;
        self.exposures += s.exposures;
        self.collided += s.collided;
        self.collisions += s.collisions;
        self.ttc_breaches += s.ttc_breaches;
        self.ttc_samples += s.ttc_samples;
        self.srr_reversals += s.srr_reversals;
        self.srr_rate_micro += i128::from(s.srr_rate_micro);
        self.srr_runs += s.srr_runs;
        self.fault_exposure_us += u128::from(s.fault_exposure_us);
    }

    fn merge(&mut self, o: &CellAggregate) {
        self.runs += o.runs;
        self.exposures += o.exposures;
        self.collided += o.collided;
        self.collisions += o.collisions;
        self.ttc_breaches += o.ttc_breaches;
        self.ttc_samples += o.ttc_samples;
        self.srr_reversals += o.srr_reversals;
        self.srr_rate_micro += o.srr_rate_micro;
        self.srr_runs += o.srr_runs;
        self.fault_exposure_us += o.fault_exposure_us;
    }

    /// Wilson interval for `P(collision per trial)` at quantile `z`.
    pub fn collision_ci(&self, z: f64) -> BinomialCi {
        wilson_interval(self.collided, self.exposures, z)
    }

    fn hash_into(&self, h: &mut Fnv) {
        h.u64(self.runs);
        h.u64(self.exposures);
        h.u64(self.collided);
        h.u64(self.collisions);
        h.u64(self.ttc_breaches);
        h.u64(self.ttc_samples);
        h.u64(self.srr_reversals);
        h.u64(self.srr_rate_micro as u64);
        h.u64((self.srr_rate_micro >> 64) as u64);
        h.u64(self.srr_runs);
        h.u64(self.fault_exposure_us as u64);
        h.u64((self.fault_exposure_us >> 64) as u64);
    }
}

/// Everything one finished run contributes to the store: identity, the
/// run digest, per-cell samples, and a *reduced* telemetry view (counters
/// and histograms only — gauge overwrite and event concatenation are
/// order-sensitive, so they never enter the store).
///
/// Serializes to one JSON line ([`RunSummary::to_json`]) — the checkpoint
/// stream's record format — and parses back bit-exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Scenario name.
    pub scenario: String,
    /// Subject id.
    pub subject: String,
    /// Run kind slug.
    pub kind: String,
    /// The run's seed (diagnostic; not folded).
    pub seed: u64,
    /// The run's deterministic digest (folds into the store via XOR and a
    /// wrapping sum).
    pub digest: u64,
    /// Wall-clock cost of the run in nanoseconds (reporting only; never
    /// fingerprinted).
    pub wall_ns: u64,
    /// Per-condition observations.
    pub cells: Vec<CellSample>,
    /// Final counter values (summed into campaign counters).
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots (merged into campaign histograms; includes the
    /// `*_ns` stage-timing rollups, which reports show but fingerprints
    /// skip).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RunSummary {
    /// The store key of this summary.
    pub fn key(&self) -> RunKey {
        RunKey {
            scenario: self.scenario.clone(),
            subject: self.subject.clone(),
            kind: self.kind.clone(),
        }
    }

    /// Adopts the mergeable parts of a [`RunTelemetry`] (counters and
    /// histograms; gauges and events are order-sensitive and stay out).
    pub fn set_telemetry(&mut self, telemetry: &RunTelemetry) {
        self.counters = telemetry.counters.clone();
        self.histograms = telemetry.histograms.clone();
    }

    /// Serializes to a single JSON line (no interior newlines), the
    /// checkpoint stream's record format. Integers are emitted verbatim,
    /// so [`RunSummary::from_json`] recovers identical bits.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"scenario\":");
        write_json_string(&mut out, &self.scenario);
        out.push_str(",\"subject\":");
        write_json_string(&mut out, &self.subject);
        out.push_str(",\"kind\":");
        write_json_string(&mut out, &self.kind);
        let _ = write!(
            out,
            ",\"seed\":{},\"digest\":{},\"wall_ns\":{},\"cells\":[",
            self.seed, self.digest, self.wall_ns
        );
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"condition\":");
            write_json_string(&mut out, &c.condition);
            let _ = write!(
                out,
                ",\"exposures\":{},\"collided\":{},\"collisions\":{},\"ttc_breaches\":{},\
                 \"ttc_samples\":{},\"srr_reversals\":{},\"srr_rate_micro\":{},\"srr_runs\":{},\
                 \"fault_exposure_us\":{}}}",
                c.exposures,
                c.collided,
                c.collisions,
                c.ttc_breaches,
                c.ttc_samples,
                c.srr_reversals,
                c.srr_rate_micro,
                c.srr_runs,
                c.fault_exposure_us
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, name);
            out.push(':');
            write_histogram(&mut out, hist);
        }
        out.push_str("}}");
        out
    }

    /// Parses a summary serialized by [`RunSummary::to_json`].
    pub fn from_json(text: &str) -> Result<RunSummary, JsonError> {
        let v = JsonValue::parse(text)?;
        let err = |msg: &str| JsonError {
            at: 0,
            msg: msg.to_owned(),
        };
        let str_field = |name: &str| -> Result<String, JsonError> {
            v.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| err(&format!("missing string field '{name}'")))
        };
        let u64_of = |v: Option<&JsonValue>, name: &str| -> Result<u64, JsonError> {
            v.and_then(JsonValue::as_u64)
                .ok_or_else(|| err(&format!("missing u64 field '{name}'")))
        };
        let mut summary = RunSummary {
            scenario: str_field("scenario")?,
            subject: str_field("subject")?,
            kind: str_field("kind")?,
            seed: u64_of(v.get("seed"), "seed")?,
            digest: u64_of(v.get("digest"), "digest")?,
            wall_ns: u64_of(v.get("wall_ns"), "wall_ns")?,
            ..RunSummary::default()
        };
        let cells = v
            .get("cells")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| err("missing 'cells' array"))?;
        for c in cells {
            summary.cells.push(CellSample {
                condition: c
                    .get("condition")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| err("cell without 'condition'"))?,
                exposures: u64_of(c.get("exposures"), "exposures")?,
                collided: u64_of(c.get("collided"), "collided")?,
                collisions: u64_of(c.get("collisions"), "collisions")?,
                ttc_breaches: u64_of(c.get("ttc_breaches"), "ttc_breaches")?,
                ttc_samples: u64_of(c.get("ttc_samples"), "ttc_samples")?,
                srr_reversals: u64_of(c.get("srr_reversals"), "srr_reversals")?,
                srr_rate_micro: c
                    .get("srr_rate_micro")
                    .and_then(JsonValue::as_i64)
                    .ok_or_else(|| err("cell without 'srr_rate_micro'"))?,
                srr_runs: u64_of(c.get("srr_runs"), "srr_runs")?,
                fault_exposure_us: u64_of(c.get("fault_exposure_us"), "fault_exposure_us")?,
            });
        }
        let counters = v
            .get("counters")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| err("missing 'counters' object"))?;
        for (name, value) in counters {
            summary.counters.insert(
                name.clone(),
                value
                    .as_u64()
                    .ok_or_else(|| err(&format!("counter '{name}' is not a u64")))?,
            );
        }
        let histograms = v
            .get("histograms")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| err("missing 'histograms' object"))?;
        for (name, value) in histograms {
            summary.histograms.insert(
                name.clone(),
                parse_histogram(value).map_err(|msg| err(&msg))?,
            );
        }
        Ok(summary)
    }
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count, h.sum, h.min, h.max
    );
    let mut first = true;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{i},{n}]");
        }
    }
    out.push_str("]}");
}

fn parse_histogram(v: &JsonValue) -> Result<HistogramSnapshot, String> {
    let mut h = HistogramSnapshot {
        count: v
            .get("count")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram without 'count'")?,
        sum: v
            .get("sum")
            .and_then(JsonValue::as_u128)
            .ok_or("histogram without 'sum'")?,
        min: v
            .get("min")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram without 'min'")?,
        max: v
            .get("max")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram without 'max'")?,
        ..HistogramSnapshot::default()
    };
    let buckets = v
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or("histogram without 'buckets'")?;
    for pair in buckets {
        let pair = pair.as_arr().ok_or("bucket entry is not an array")?;
        let (i, n) = match (
            pair.first().and_then(JsonValue::as_u64),
            pair.get(1).and_then(JsonValue::as_u64),
        ) {
            (Some(i), Some(n)) if pair.len() == 2 => (i as usize, n),
            _ => return Err("bucket entry is not [index, count]".to_owned()),
        };
        if i >= BUCKETS {
            return Err(format!("bucket index {i} out of range"));
        }
        h.buckets[i] = n;
    }
    Ok(h)
}

/// One point of the pooled risk surface: a fault condition, its magnitude
/// axis, and `P(collision per fault window)` with its Wilson interval.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskPoint {
    /// The condition label (`delay:05ms`).
    pub condition: String,
    /// Axis name — the label up to the first `:` (`delay`, `loss`).
    pub axis: String,
    /// Magnitude parsed from the leading digits after the `:` (5, 25, …);
    /// 0 if none parse.
    pub magnitude: u64,
    /// The pooled aggregate across subjects.
    pub aggregate: CellAggregate,
    /// Collision probability with confidence interval.
    pub ci: BinomialCi,
}

/// The streaming campaign aggregate. See the module docs for the algebra;
/// see `rdsim_experiments::observatory` for the summarizer and the
/// checkpoint stream that feed it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStore {
    runs: u64,
    digest_xor: u64,
    digest_sum: u64,
    wall_ns: u64,
    completed: BTreeSet<RunKey>,
    cells: BTreeMap<(String, String, String), CellAggregate>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl CampaignStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished run in. Returns `false` (and changes nothing)
    /// if a summary with the same [`RunKey`] was already folded — which
    /// makes checkpoint replay idempotent.
    pub fn fold(&mut self, s: &RunSummary) -> bool {
        if !self.completed.insert(s.key()) {
            return false;
        }
        self.runs += 1;
        self.digest_xor ^= s.digest;
        self.digest_sum = self.digest_sum.wrapping_add(s.digest);
        self.wall_ns += s.wall_ns;
        for cell in &s.cells {
            self.cells
                .entry((
                    s.scenario.clone(),
                    cell.condition.clone(),
                    s.subject.clone(),
                ))
                .or_default()
                .fold(cell);
        }
        for (name, value) in &s.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &s.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
        true
    }

    /// Merges another store built from a *disjoint* set of runs.
    ///
    /// # Panics
    ///
    /// Panics if the two stores share a completed [`RunKey`] — merging
    /// overlapping stores would double-count.
    pub fn merge(&mut self, other: &CampaignStore) {
        for key in &other.completed {
            assert!(
                self.completed.insert(key.clone()),
                "stores overlap on {key:?}"
            );
        }
        self.runs += other.runs;
        self.digest_xor ^= other.digest_xor;
        self.digest_sum = self.digest_sum.wrapping_add(other.digest_sum);
        self.wall_ns += other.wall_ns;
        for (key, agg) in &other.cells {
            self.cells.entry(key.clone()).or_default().merge(agg);
        }
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Runs folded so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// XOR of the folded run digests (one half of the digest pair; the
    /// wrapping sum is the other — together they make reordering-plus-
    /// tampering collisions implausible).
    pub fn digest_xor(&self) -> u64 {
        self.digest_xor
    }

    /// Wrapping sum of the folded run digests.
    pub fn digest_sum(&self) -> u64 {
        self.digest_sum
    }

    /// Total wall-clock nanoseconds across folded runs (reporting only).
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Whether a run is already folded.
    pub fn contains(&self, key: &RunKey) -> bool {
        self.completed.contains(key)
    }

    /// The folded runs' keys, in order.
    pub fn completed(&self) -> impl Iterator<Item = &RunKey> {
        self.completed.iter()
    }

    /// Campaign-wide counter total by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Campaign-wide merged histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// All merged histograms (the `*_ns` entries are the stage-timing
    /// rollups).
    pub fn histograms(&self) -> &BTreeMap<String, HistogramSnapshot> {
        &self.histograms
    }

    /// Iterates `(scenario, condition, subject) → aggregate` in key order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &str, &str, &CellAggregate)> {
        self.cells
            .iter()
            .map(|((sc, co, su), agg)| (sc.as_str(), co.as_str(), su.as_str(), agg))
    }

    /// One cell's aggregate.
    pub fn cell(&self, scenario: &str, condition: &str, subject: &str) -> Option<&CellAggregate> {
        self.cells.get(&(
            scenario.to_owned(),
            condition.to_owned(),
            subject.to_owned(),
        ))
    }

    /// Pools one condition's aggregates across every subject whose id
    /// starts with `subject_prefix` — the adaptive sampler's bandit
    /// signal, where a stratum's subjects share an id prefix
    /// (`g2a0/p00017` pools under `g2a0/`). An empty prefix pools the
    /// condition across all subjects. A single `BTreeMap` range scan, so
    /// the per-round planning cost stays sub-linear in the store size.
    pub fn pooled_cell(
        &self,
        scenario: &str,
        condition: &str,
        subject_prefix: &str,
    ) -> CellAggregate {
        let start = (
            scenario.to_owned(),
            condition.to_owned(),
            subject_prefix.to_owned(),
        );
        let mut agg = CellAggregate::default();
        for ((sc, co, su), cell) in self.cells.range(start..) {
            if sc != scenario || co != condition || !su.starts_with(subject_prefix) {
                break;
            }
            agg.merge(cell);
        }
        agg
    }

    /// Pools every non-`run:*` condition across subjects into one
    /// [`RiskPoint`] per (scenario, condition), in label order — the
    /// `P(collision)` vs delay/loss surface with Wilson intervals at
    /// quantile `z`.
    pub fn risk_surface(&self, z: f64) -> Vec<RiskPoint> {
        let mut pooled: BTreeMap<(String, String), CellAggregate> = BTreeMap::new();
        for ((scenario, condition, _subject), agg) in &self.cells {
            if condition.starts_with("run:") {
                continue;
            }
            pooled
                .entry((scenario.clone(), condition.clone()))
                .or_default()
                .merge(agg);
        }
        pooled
            .into_iter()
            .map(|((_, condition), aggregate)| {
                let (axis, rest) = condition.split_once(':').unwrap_or(("", &condition));
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                RiskPoint {
                    axis: axis.to_owned(),
                    magnitude: digits.parse().unwrap_or(0),
                    ci: aggregate.collision_ci(z),
                    condition,
                    aggregate,
                }
            })
            .collect()
    }

    /// A stable fingerprint of the deterministic store content: run
    /// digests, completed keys, every cell aggregate, and the
    /// deterministic counters/histograms (wall-clock `*_ns` rollups,
    /// `executor.*` fleet signals and `wall_ns` are excluded — see
    /// [`deterministic_instrument`]). Equal for any fold order, any
    /// split-merge shape, and any `--jobs`/`--batch` schedule.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.runs);
        h.u64(self.digest_xor);
        h.u64(self.digest_sum);
        h.u64(self.completed.len() as u64);
        for key in &self.completed {
            h.str(&key.scenario);
            h.str(&key.subject);
            h.str(&key.kind);
        }
        h.u64(self.cells.len() as u64);
        for ((scenario, condition, subject), agg) in &self.cells {
            h.str(scenario);
            h.str(condition);
            h.str(subject);
            agg.hash_into(&mut h);
        }
        let counters = || {
            self.counters
                .iter()
                .filter(|(n, _)| deterministic_instrument(n))
        };
        h.u64(counters().count() as u64);
        for (name, value) in counters() {
            h.str(name);
            h.u64(*value);
        }
        let hists = || {
            self.histograms
                .iter()
                .filter(|(n, _)| deterministic_instrument(n))
        };
        h.u64(hists().count() as u64);
        for (name, hist) in hists() {
            h.str(name);
            h.u64(hist.count);
            h.u64(hist.sum as u64);
            h.u64((hist.sum >> 64) as u64);
            h.u64(hist.min);
            h.u64(hist.max);
            for (i, &n) in hist.buckets.iter().enumerate() {
                if n > 0 {
                    h.u64(i as u64);
                    h.u64(n);
                }
            }
            h.u64(u64::MAX);
        }
        h.finish()
    }

    /// The deterministic machine-readable campaign report (`--report-out
    /// campaign.json`): per-cell aggregates with collision CIs and the
    /// pooled risk surface. Contains no wall-clock content, so it is
    /// byte-diffable across schedules and across interrupt/resume.
    pub fn report_json(&self, z: f64) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"runs\":{},\"fingerprint\":\"{:016x}\",\"digest_xor\":\"{:016x}\",\
             \"digest_sum\":\"{:016x}\",\"cells\":[",
            self.runs,
            self.fingerprint(),
            self.digest_xor,
            self.digest_sum
        );
        for (i, ((scenario, condition, subject), agg)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scenario\":");
            write_json_string(&mut out, scenario);
            out.push_str(",\"condition\":");
            write_json_string(&mut out, condition);
            out.push_str(",\"subject\":");
            write_json_string(&mut out, subject);
            write_aggregate_fields(&mut out, agg, z);
            out.push('}');
        }
        out.push_str("],\"risk_surface\":[");
        for (i, point) in self.risk_surface(z).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"condition\":");
            write_json_string(&mut out, &point.condition);
            out.push_str(",\"axis\":");
            write_json_string(&mut out, &point.axis);
            let _ = write!(out, ",\"magnitude\":{}", point.magnitude);
            write_aggregate_fields(&mut out, &point.aggregate, z);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The wall-clock side channel (`--report-out timings.json`): total
    /// wall time and the merged `*_ns` stage-timing and `executor.*`
    /// fleet instruments that [`CampaignStore::report_json`] deliberately
    /// omits. Not deterministic — never byte-diff this file.
    pub fn timings_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(out, "{{\"wall_ns\":{},\"counters\":{{", self.wall_ns);
        let mut first = true;
        for (name, value) in self
            .counters
            .iter()
            .filter(|(n, _)| !deterministic_instrument(n))
        {
            if !first {
                out.push(',');
            }
            first = false;
            write_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, hist) in self
            .histograms
            .iter()
            .filter(|(n, _)| !deterministic_instrument(n))
        {
            if !first {
                out.push(',');
            }
            first = false;
            write_json_string(&mut out, name);
            out.push(':');
            write_histogram(&mut out, hist);
        }
        out.push_str("}}");
        out
    }
}

fn write_aggregate_fields(out: &mut String, agg: &CellAggregate, z: f64) {
    let ci = agg.collision_ci(z);
    let _ = write!(
        out,
        ",\"runs\":{},\"exposures\":{},\"collided\":{},\"collisions\":{},\
         \"ttc_breaches\":{},\"ttc_samples\":{},\"srr_reversals\":{},\
         \"srr_rate_micro\":{},\"srr_runs\":{},\"fault_exposure_us\":{}",
        agg.runs,
        agg.exposures,
        agg.collided,
        agg.collisions,
        agg.ttc_breaches,
        agg.ttc_samples,
        agg.srr_reversals,
        agg.srr_rate_micro,
        agg.srr_runs,
        agg.fault_exposure_us
    );
    out.push_str(",\"p_collision\":");
    crate::json::write_f64(out, ci.p_hat);
    out.push_str(",\"ci_lo\":");
    crate::json::write_f64(out, ci.lo);
    out.push_str(",\"ci_hi\":");
    crate::json::write_f64(out, ci.hi);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(subject: &str, kind: &str, digest: u64) -> RunSummary {
        let mut s = RunSummary {
            scenario: "town05".into(),
            subject: subject.into(),
            kind: kind.into(),
            seed: digest ^ 0xABCD,
            digest,
            wall_ns: 1_000_000,
            ..RunSummary::default()
        };
        if kind == "faulty" {
            s.cells.push(CellSample {
                condition: "delay:25ms".into(),
                exposures: 2,
                collided: 1,
                collisions: 1,
                ttc_breaches: 3,
                ttc_samples: 50,
                srr_reversals: 12,
                srr_rate_micro: to_micro(24.5),
                srr_runs: 1,
                fault_exposure_us: 7_500_000,
            });
        }
        s.cells.push(CellSample {
            condition: format!("run:{kind}"),
            exposures: 1,
            collided: u64::from(kind == "faulty"),
            collisions: u64::from(kind == "faulty"),
            ..CellSample::default()
        });
        s.counters.insert("session.steps".into(), 100 + digest % 7);
        let hist = crate::Histogram::new();
        hist.record(10 + digest % 5);
        hist.record(u64::MAX); // exercises the u128 sum path in JSON
        s.histograms
            .insert("session.frame_age_us".into(), hist.snapshot());
        s
    }

    fn summaries() -> Vec<RunSummary> {
        let mut out = Vec::new();
        for (i, subject) in ["T1", "T2", "T3"].iter().enumerate() {
            for kind in ["training", "golden", "faulty"] {
                out.push(summary(subject, kind, 0x1000 + i as u64 * 3));
            }
        }
        out
    }

    #[test]
    fn fold_order_does_not_matter() {
        let mut fwd = CampaignStore::new();
        let mut rev = CampaignStore::new();
        let runs = summaries();
        for s in &runs {
            fwd.fold(s);
        }
        for s in runs.iter().rev() {
            rev.fold(s);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.fingerprint(), rev.fingerprint());
        assert_eq!(fwd.runs(), 9);
    }

    #[test]
    fn split_merge_equals_single_shot() {
        let runs = summaries();
        let mut whole = CampaignStore::new();
        for s in &runs {
            whole.fold(s);
        }
        for split in 0..=runs.len() {
            let (a, b) = runs.split_at(split);
            let mut left = CampaignStore::new();
            let mut right = CampaignStore::new();
            a.iter().for_each(|s| {
                left.fold(s);
            });
            b.iter().for_each(|s| {
                right.fold(s);
            });
            left.merge(&right);
            assert_eq!(left, whole, "split at {split}");
        }
    }

    #[test]
    fn refolding_a_run_is_a_no_op() {
        let mut store = CampaignStore::new();
        let s = summary("T1", "faulty", 99);
        assert!(store.fold(&s));
        let before = store.clone();
        assert!(!store.fold(&s));
        assert_eq!(store, before);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn merging_overlapping_stores_panics() {
        let mut a = CampaignStore::new();
        let mut b = CampaignStore::new();
        let s = summary("T1", "faulty", 99);
        a.fold(&s);
        b.fold(&s);
        a.merge(&b);
    }

    #[test]
    fn summary_json_roundtrips_exactly() {
        for s in summaries() {
            let line = s.to_json();
            assert!(!line.contains('\n'), "must be a single line");
            let back = RunSummary::from_json(&line).expect("parse");
            assert_eq!(back, s);
            assert_eq!(back.to_json(), line);
        }
        assert!(RunSummary::from_json("{\"scenario\":1}").is_err());
    }

    #[test]
    fn replayed_checkpoint_reproduces_the_store() {
        let runs = summaries();
        let mut native = CampaignStore::new();
        let mut stream = String::new();
        for s in &runs {
            native.fold(s);
            stream.push_str(&s.to_json());
            stream.push('\n');
        }
        let mut replayed = CampaignStore::new();
        for line in stream.lines() {
            replayed.fold(&RunSummary::from_json(line).expect("parse"));
        }
        assert_eq!(replayed, native);
        assert_eq!(replayed.fingerprint(), native.fingerprint());
    }

    #[test]
    fn risk_surface_pools_across_subjects() {
        let mut store = CampaignStore::new();
        for s in summaries() {
            store.fold(&s);
        }
        let surface = store.risk_surface(crate::Z_95);
        assert_eq!(surface.len(), 1, "one fault condition in the fixture");
        let p = &surface[0];
        assert_eq!(p.condition, "delay:25ms");
        assert_eq!(p.axis, "delay");
        assert_eq!(p.magnitude, 25);
        assert_eq!(p.aggregate.exposures, 6, "2 windows × 3 subjects");
        assert_eq!(p.aggregate.collided, 3);
        assert!(p.ci.lo <= p.ci.p_hat && p.ci.p_hat <= p.ci.hi);
        assert!((p.ci.p_hat - 0.5).abs() < 1e-12);
        // run:* cells are views, not risk points.
        assert!(store.cell("town05", "run:golden", "T1").is_some());
    }

    #[test]
    fn fingerprint_skips_wall_clock_and_fleet_content() {
        let mut a = CampaignStore::new();
        let mut b = CampaignStore::new();
        let base = summary("T1", "faulty", 7);
        let mut noisy = base.clone();
        noisy.wall_ns = 999;
        noisy.counters.insert("executor.w0.runs".into(), 3);
        let hist = crate::Histogram::new();
        hist.record(123_456);
        noisy
            .histograms
            .insert("session.stage.sim_ns".into(), hist.snapshot());
        a.fold(&base);
        b.fold(&noisy);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, b, "the content still differs, only the print agrees");
        // …and the deterministic report omits it too, while timings keep it.
        assert_eq!(a.report_json(crate::Z_95), b.report_json(crate::Z_95));
        assert!(b.timings_json().contains("session.stage.sim_ns"));
    }

    #[test]
    fn reports_are_valid_json() {
        let mut store = CampaignStore::new();
        for s in summaries() {
            store.fold(&s);
        }
        let report = store.report_json(crate::Z_95);
        let parsed = JsonValue::parse(&report).expect("report parses");
        assert_eq!(
            parsed.get("runs").and_then(JsonValue::as_u64),
            Some(store.runs())
        );
        assert!(parsed
            .get("risk_surface")
            .and_then(JsonValue::as_arr)
            .is_some());
        let timings = store.timings_json();
        assert!(JsonValue::parse(&timings).is_ok());
    }

    #[test]
    fn written_documents_nest_far_below_the_parser_bound() {
        fn depth(v: &JsonValue) -> usize {
            match v {
                JsonValue::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                JsonValue::Obj(fields) => {
                    1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0)
                }
                _ => 0,
            }
        }
        let mut store = CampaignStore::new();
        let runs = summaries();
        for s in &runs {
            store.fold(s);
        }
        let mut documents = vec![store.report_json(crate::Z_95), store.timings_json()];
        documents.extend(runs.iter().map(RunSummary::to_json));
        for doc in &documents {
            let parsed = JsonValue::parse(doc).expect("a written document parses");
            let levels = depth(&parsed);
            assert!(
                levels <= crate::MAX_JSON_DEPTH / 16,
                "{levels} levels: {doc}"
            );
        }
    }

    #[test]
    fn pooled_cell_matches_brute_force_over_prefixes() {
        let mut store = CampaignStore::new();
        for (i, (subject, collided)) in [
            ("g0a1/p00000", 0),
            ("g0a1/p00003", 1),
            ("g0a2/p00001", 1),
            ("g2a0/p00002", 0),
        ]
        .into_iter()
        .enumerate()
        {
            let s = RunSummary {
                scenario: "town05".into(),
                subject: subject.into(),
                kind: "delay:25ms".into(),
                digest: 0x40 + i as u64,
                cells: vec![CellSample {
                    condition: "delay:25ms".into(),
                    exposures: 3,
                    collided,
                    collisions: collided,
                    ..CellSample::default()
                }],
                ..RunSummary::default()
            };
            store.fold(&s);
        }
        for prefix in ["", "g0a1/", "g0a2/", "g2a0/", "zzz/"] {
            let pooled = store.pooled_cell("town05", "delay:25ms", prefix);
            let mut expect = CellAggregate::default();
            for (sc, co, su, agg) in store.cells() {
                if sc == "town05" && co == "delay:25ms" && su.starts_with(prefix) {
                    expect.merge(agg);
                }
            }
            assert_eq!(pooled, expect, "prefix {prefix:?}");
        }
        assert_eq!(store.pooled_cell("town05", "delay:25ms", "g0a1/").runs, 2);
        assert_eq!(
            store.pooled_cell("town05", "delay:25ms", "g0a1/").collided,
            1
        );
        assert_eq!(store.pooled_cell("town05", "delay:25ms", "").runs, 4);
        assert_eq!(store.pooled_cell("town05", "loss:02pct", "").runs, 0);
    }

    #[test]
    fn micro_quantization_is_symmetric() {
        assert_eq!(to_micro(24.5), 24_500_000);
        assert_eq!(to_micro(-1.25), -1_250_000);
        assert_eq!(to_micro(0.0), 0);
    }
}

//! Trace-replay fault source: a measured network time-series compiled
//! into a deterministic sequence of netem config edges.
//!
//! The paper's fault matrix is six hand-picked step functions, but real
//! teleoperation links degrade as continuous, bursty time-series — the 5G
//! teleoperated-driving evaluation and the ITS-G5/cellular latency study
//! both publish *measured* per-second traces. A [`TraceSchedule`] replays
//! such a measurement: each sample pins the link condition from its
//! timestamp until the next sample's, and the whole series compiles into
//! back-to-back [`InjectionWindow`]s the
//! [`FaultInjector`](crate::FaultInjector) replays through exactly the
//! machinery the synthetic windows use. Nothing downstream —
//! run logs, digests — can tell a trace edge from a hand-scheduled one.
//!
//! # Formats
//!
//! One sample per line, either JSONL:
//!
//! ```text
//! {"t": 0.0, "delay_ms": 35.0, "jitter_ms": 4.0, "loss_pct": 0.5, "rate_kbit": 12000}
//! ```
//!
//! or CSV with a header row:
//!
//! ```text
//! t,delay_ms,jitter_ms,loss_pct,rate_kbit
//! 0.0,35.0,4.0,0.5,12000
//! ```
//!
//! `t` is seconds since run start and must be strictly increasing; every
//! other column is optional (JSONL: omit the key; CSV: leave the cell
//! empty or `0`). A sample with no active impairment is a gap — the link
//! runs clean until the next sample. The final sample holds for as long
//! as the previous segment lasted (one second for a single-sample trace).

use crate::{DelayConfig, InjectionWindow, LossConfig, NetemConfig, RateConfig};
use rdsim_obs::JsonValue;
use rdsim_units::{Millis, Ratio, SimDuration, SimTime};
use std::fmt;

/// Hold duration of the final segment of a single-sample trace.
const SINGLE_SAMPLE_HOLD: SimDuration = SimDuration::from_secs(1);

/// Error produced when a trace file cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending sample, 0 for file-level
    /// problems.
    pub line: usize,
    message: String,
}

impl TraceParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TraceParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "invalid trace: {}", self.message)
        } else {
            write!(f, "invalid trace (line {}): {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceParseError {}

/// One parsed sample: the link condition from `t` until the next sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Sample timestamp, seconds since run start.
    pub t: SimTime,
    /// The netem condition this sample pins (passthrough = clean gap).
    pub config: NetemConfig,
}

/// A measured network time-series, pre-compiled into deterministic
/// config edges.
///
/// Construction parses and validates eagerly, so replay never sees a
/// malformed sample. Equal consecutive conditions are merged at compile
/// time: the injector sees one window per *edge*, not one per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSchedule {
    label: String,
    windows: Vec<InjectionWindow>,
    end: SimTime,
    samples: usize,
}

impl TraceSchedule {
    /// Parses a trace from JSONL or CSV text (auto-detected by the first
    /// non-empty line). `label` names the trace — conventionally the
    /// file stem — and becomes the campaign condition
    /// [`TraceSchedule::condition`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] naming the first malformed line:
    /// unparsable fields, non-increasing timestamps, negative values, a
    /// final segment ending past the end of the simulation clock, or an
    /// empty series.
    pub fn parse(label: &str, text: &str) -> Result<TraceSchedule, TraceParseError> {
        let mut samples: Vec<TraceSample> = Vec::new();
        let mut csv_header: Option<Vec<String>> = None;
        let mut last_line = 0;
        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let raw = if line.starts_with('{') {
                parse_jsonl_line(line_no, line)?
            } else if csv_header.is_none() && samples.is_empty() {
                csv_header = Some(parse_csv_header(line_no, line)?);
                continue;
            } else {
                let header = csv_header
                    .as_ref()
                    .ok_or_else(|| TraceParseError::new(line_no, "CSV data before header"))?;
                parse_csv_line(line_no, line, header)?
            };
            let sample = raw.into_sample(line_no)?;
            if let Some(prev) = samples.last() {
                if sample.t <= prev.t {
                    return Err(TraceParseError::new(
                        line_no,
                        format!(
                            "timestamps must be strictly increasing ({} after {})",
                            sample.t, prev.t
                        ),
                    ));
                }
            }
            samples.push(sample);
            last_line = line_no;
        }
        let n = samples.len();
        if n == 0 {
            return Err(TraceParseError::new(0, "no samples"));
        }
        let hold = if n >= 2 {
            samples[n - 1].t.saturating_since(samples[n - 2].t)
        } else {
            SINGLE_SAMPLE_HOLD
        };
        let end = samples[n - 1].t.checked_add(hold).ok_or_else(|| {
            TraceParseError::new(
                last_line,
                format!(
                    "final segment from t = {} holds {} past the end of the clock",
                    samples[n - 1].t,
                    hold
                ),
            )
        })?;
        Ok(TraceSchedule::compile(label, &samples, end))
    }

    /// Compiles already-validated samples into edge windows, the last one
    /// ending at `end`.
    fn compile(label: &str, samples: &[TraceSample], end: SimTime) -> TraceSchedule {
        let n = samples.len();
        // Merge runs of equal conditions, then emit one window per
        // non-passthrough segment; passthrough segments are gaps.
        let mut windows = Vec::new();
        let mut i = 0;
        while i < n {
            let config = samples[i].config;
            let mut j = i + 1;
            while j < n && samples[j].config == config {
                j += 1;
            }
            let start = samples[i].t;
            let until = if j < n { samples[j].t } else { end };
            if !config.is_passthrough() {
                windows.push(InjectionWindow {
                    start,
                    duration: until.saturating_since(start),
                    config,
                });
            }
            i = j;
        }
        TraceSchedule {
            label: label.to_owned(),
            windows,
            end,
            samples: n,
        }
    }

    /// The trace's name (conventionally the source file stem).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The campaign condition key this trace registers as: `trace:<label>`,
    /// shaped like the synthetic `delay:05ms` / `loss:02pct` conditions so
    /// it is a first-class stratum for the sampler and a well-formed
    /// [`CampaignStore`](rdsim_obs::CampaignStore) cell key.
    pub fn condition(&self) -> String {
        format!("trace:{}", self.label)
    }

    /// The compiled config-edge windows, in time order.
    pub fn windows(&self) -> &[InjectionWindow] {
        &self.windows
    }

    /// Number of samples the trace was built from (before edge merging).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The instant the last segment ends.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Total number of config edges a replay produces (each window is an
    /// add edge and a delete edge).
    pub fn edges(&self) -> usize {
        self.windows.len() * 2
    }
}

/// A sample's raw fields, before conversion into a [`NetemConfig`].
#[derive(Debug, Default, Clone, Copy)]
struct RawSample {
    t: Option<f64>,
    delay_ms: Option<f64>,
    jitter_ms: Option<f64>,
    loss_pct: Option<f64>,
    rate_kbit: Option<f64>,
}

impl RawSample {
    fn set(&mut self, line: usize, key: &str, value: f64) -> Result<(), TraceParseError> {
        match key {
            "t" => self.t = Some(value),
            "delay_ms" => self.delay_ms = Some(value),
            "jitter_ms" => self.jitter_ms = Some(value),
            "loss_pct" => self.loss_pct = Some(value),
            "rate_kbit" => self.rate_kbit = Some(value),
            other => {
                return Err(TraceParseError::new(
                    line,
                    format!("unknown field '{other}'"),
                ))
            }
        }
        Ok(())
    }

    fn into_sample(self, line: usize) -> Result<TraceSample, TraceParseError> {
        let t = self
            .t
            .ok_or_else(|| TraceParseError::new(line, "missing 't'"))?;
        if !t.is_finite() || t < 0.0 {
            return Err(TraceParseError::new(line, format!("bad t {t}")));
        }
        for (name, v) in [
            ("delay_ms", self.delay_ms),
            ("jitter_ms", self.jitter_ms),
            ("loss_pct", self.loss_pct),
            ("rate_kbit", self.rate_kbit),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || v < 0.0 {
                    return Err(TraceParseError::new(line, format!("bad {name} {v}")));
                }
            }
        }
        if self.loss_pct.is_some_and(|v| v > 100.0) {
            return Err(TraceParseError::new(line, "loss_pct above 100"));
        }

        let mut config = NetemConfig::passthrough();
        let delay = self.delay_ms.unwrap_or(0.0);
        if delay > 0.0 {
            // Jitter beyond the base delay would allow negative latency;
            // clamp like the rule validator requires.
            let jitter = self.jitter_ms.unwrap_or(0.0).min(delay);
            config.delay = Some(DelayConfig {
                base: Millis::new(delay),
                jitter: Millis::new(jitter),
                correlation: Ratio::ZERO,
            });
        }
        if self.loss_pct.is_some_and(|v| v > 0.0) {
            config.loss = Some(LossConfig::random(Ratio::from_percent(
                self.loss_pct.unwrap_or(0.0),
            )));
        }
        if self.rate_kbit.is_some_and(|v| v > 0.0) {
            let bits = (self.rate_kbit.unwrap_or(0.0) * 1_000.0) as u64;
            if bits == 0 {
                return Err(TraceParseError::new(line, "rate_kbit rounds to zero"));
            }
            config.rate = Some(RateConfig {
                bits_per_second: bits,
            });
        }
        config
            .validate()
            .map_err(|e| TraceParseError::new(line, e))?;
        Ok(TraceSample {
            t: SimTime::ZERO + SimDuration::from_secs_f64(t),
            config,
        })
    }
}

fn parse_jsonl_line(line_no: usize, line: &str) -> Result<RawSample, TraceParseError> {
    let value = JsonValue::parse(line)
        .map_err(|e| TraceParseError::new(line_no, format!("not JSON: {e}")))?;
    let mut raw = RawSample::default();
    for key in ["t", "delay_ms", "jitter_ms", "loss_pct", "rate_kbit"] {
        if let Some(v) = value.get(key) {
            let v = v
                .as_f64()
                .ok_or_else(|| TraceParseError::new(line_no, format!("'{key}' is not a number")))?;
            raw.set(line_no, key, v)?;
        }
    }
    Ok(raw)
}

fn parse_csv_header(line_no: usize, line: &str) -> Result<Vec<String>, TraceParseError> {
    let cols: Vec<String> = line.split(',').map(|c| c.trim().to_owned()).collect();
    if !cols.iter().any(|c| c == "t") {
        return Err(TraceParseError::new(
            line_no,
            "CSV header must contain a 't' column",
        ));
    }
    for c in &cols {
        if !matches!(
            c.as_str(),
            "t" | "delay_ms" | "jitter_ms" | "loss_pct" | "rate_kbit"
        ) {
            return Err(TraceParseError::new(
                line_no,
                format!("unknown CSV column '{c}'"),
            ));
        }
    }
    Ok(cols)
}

fn parse_csv_line(
    line_no: usize,
    line: &str,
    header: &[String],
) -> Result<RawSample, TraceParseError> {
    let cells: Vec<&str> = line.split(',').map(str::trim).collect();
    if cells.len() != header.len() {
        return Err(TraceParseError::new(
            line_no,
            format!("expected {} cells, got {}", header.len(), cells.len()),
        ));
    }
    let mut raw = RawSample::default();
    for (key, cell) in header.iter().zip(cells) {
        if cell.is_empty() {
            continue;
        }
        let v: f64 = cell
            .parse()
            .map_err(|_| TraceParseError::new(line_no, format!("bad {key} '{cell}'")))?;
        raw.set(line_no, key, v)?;
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultInjector;

    const JSONL: &str = r#"
{"t": 0.0, "delay_ms": 30.0, "jitter_ms": 5.0}
{"t": 1.0, "delay_ms": 30.0, "jitter_ms": 5.0}
{"t": 2.0, "delay_ms": 80.0, "loss_pct": 2.0}
{"t": 3.0}
{"t": 4.0, "rate_kbit": 500, "delay_ms": 10.0}
"#;

    #[test]
    fn jsonl_compiles_to_merged_edge_windows() {
        let trace = TraceSchedule::parse("demo", JSONL).unwrap();
        assert_eq!(trace.label(), "demo");
        assert_eq!(trace.condition(), "trace:demo");
        assert_eq!(trace.samples(), 5);
        // Samples 0 and 1 merge; sample 3 is a clean gap; the final
        // sample holds for the previous segment's 1 s.
        let w = trace.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].start, SimTime::ZERO);
        assert_eq!(w[0].duration, SimDuration::from_secs(2));
        assert_eq!(w[1].start, SimTime::from_secs(2));
        assert_eq!(w[1].duration, SimDuration::from_secs(1));
        assert_eq!(w[2].start, SimTime::from_secs(4));
        assert_eq!(w[2].duration, SimDuration::from_secs(1));
        assert_eq!(trace.end(), SimTime::from_secs(5));
        assert_eq!(trace.edges(), 6);
        // The rate-limited segment gets a finite BDP-floored queue.
        assert!(w[2].config.effective_limit().is_some());
    }

    #[test]
    fn csv_equals_jsonl() {
        let csv = "\
t,delay_ms,jitter_ms,loss_pct,rate_kbit
0.0,30.0,5.0,,
1.0,30.0,5.0,0,0
2.0,80.0,,2.0,
3.0,,,,
4.0,10.0,,,500
";
        let a = TraceSchedule::parse("x", csv).unwrap();
        let b = TraceSchedule::parse("x", JSONL).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn replay_goes_through_the_injector() {
        let trace = TraceSchedule::parse("demo", JSONL).unwrap();
        let mut injector = FaultInjector::new();
        injector.schedule_trace(&trace).unwrap();
        // A second replay overlaps the first and is rejected.
        assert!(injector.schedule_trace(&trace).is_err());
    }

    #[test]
    fn malformed_traces_name_the_line() {
        let e = TraceSchedule::parse("x", "").unwrap_err();
        assert_eq!(e.line, 0);
        let e = TraceSchedule::parse("x", "{\"delay_ms\": 5}\n").unwrap_err();
        assert!(e.to_string().contains("missing 't'"));
        let e = TraceSchedule::parse("x", "{\"t\": 1}\n{\"t\": 1}\n").unwrap_err();
        assert!(e.to_string().contains("strictly increasing"), "{e}");
        assert_eq!(e.line, 2);
        let e = TraceSchedule::parse("x", "{\"t\": 0, \"loss_pct\": 130}\n").unwrap_err();
        assert!(e.to_string().contains("above 100"));
        let e = TraceSchedule::parse("x", "t,warp\n0,1\n").unwrap_err();
        assert!(e.to_string().contains("unknown CSV column"));
        let e = TraceSchedule::parse("x", "{\"t\": 0, \"delay_ms\": -3}\n").unwrap_err();
        assert!(e.to_string().contains("bad delay_ms"));
        let e =
            TraceSchedule::parse("x", "{\"t\": 0}\n{\"t\": 1, \"delay_ms\": 1e300}\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("at most"), "{e}");
    }

    #[test]
    fn segment_ends_past_the_clock_are_rejected() {
        // 1.8e13 s + the 0.8e13 s hold overflows the µs clock.
        let jsonl = "{\"t\": 1e13, \"delay_ms\": 5}\n{\"t\": 1.8e13, \"delay_ms\": 5}\n";
        let e = TraceSchedule::parse("x", jsonl).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.to_string().contains("past the end of the clock"), "{e}");
        let csv = "t,delay_ms\n1e13,5\n1.8e13,5\n";
        let e = TraceSchedule::parse("x", csv).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        // A lone sample saturating the clock has no room for its hold.
        let e = TraceSchedule::parse("x", "{\"t\": 1e300}\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        // Huge timestamps are fine while the final segment still fits.
        let fits = TraceSchedule::parse("x", "t,delay_ms\n1e13,5\n1.2e13,5\n").unwrap();
        assert_eq!(fits.end(), SimTime::from_secs(14_000_000_000_000));
    }

    #[test]
    fn jitter_clamps_to_base_delay() {
        let trace =
            TraceSchedule::parse("x", "{\"t\": 0, \"delay_ms\": 5, \"jitter_ms\": 50}\n").unwrap();
        let d = trace.windows()[0].config.delay.unwrap();
        assert_eq!(d.jitter, d.base);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let trace = TraceSchedule::parse(
            "x",
            "# measured 2024-05-01\n\n{\"t\": 0, \"delay_ms\": 5}\n",
        )
        .unwrap();
        assert_eq!(trace.samples(), 1);
        assert_eq!(trace.end(), SimTime::from_secs(1), "single-sample hold");
    }
}

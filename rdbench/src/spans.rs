//! The benchmark's own tracing: one span per public call into the
//! program, kept in memory and written out when the benchmark ends.
//!
//! A span has a name, a layer, a start, an end and the span that caused
//! it. The program's stage timings arrive as per-run histogram sums, not
//! as individual intervals; [`Spans::aggregate`] adds each as a child of
//! the simulation call, laid end to end from the call's start, so self
//! times still reconcile with the wall clock.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Spans`].
pub type SpanId = usize;

/// A program-reported child interval: name, layer, total ns and the
/// number of samples the program folded into it.
pub type Part = (String, &'static str, u64, u64);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `run_study_with_exec`.
    pub name: String,
    /// The module the time belongs to, e.g. `rdsim-experiments`.
    pub layer: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Number of program samples folded into an aggregate span (0 for a
    /// span the benchmark timed itself).
    pub samples: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>, layer: &'static str) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            samples: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, layer);
        let out = f();
        self.close(id);
        out
    }

    /// Adds program-reported time as children of the closed span
    /// `parent`: each `(name, layer, total_ns, samples)` becomes one span,
    /// placed after the previous one from the parent's start.
    ///
    /// # Panics
    ///
    /// If the parts add up to more than the parent's duration — the
    /// program claimed more time inside a call than the call took.
    pub fn aggregate(&mut self, parent: SpanId, parts: &[Part]) {
        let total: u64 = parts.iter().map(|p| p.2).sum();
        let (start, dur) = (self.spans[parent].start_ns, self.spans[parent].dur_ns());
        assert!(
            total <= dur,
            "{} reports {total} ns of stage time inside a {dur} ns call",
            self.spans[parent].name
        );
        let mut at = start;
        for (name, layer, ns, samples) in parts {
            self.spans.push(Span {
                name: name.clone(),
                layer,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                samples: *samples,
            });
            at += ns;
        }
    }

    /// Every span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// A span's duration minus its direct children's.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns() - children
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Total self time of the spans named `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// Chrome `trace_event` JSON (complete events, µs), loadable in
    /// Perfetto next to the program's own `--trace-out` files. `pid` is
    /// the repetition, so several traced repetitions share one file.
    pub fn chrome_events(&self, workload: &str, pid: usize, out: &mut Vec<String>) {
        for (i, s) in self.spans.iter().enumerate() {
            let mut e = String::with_capacity(160);
            let _ = write!(
                e,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":1,\"args\":{{\"workload\":\"{workload}\",\"id\":{i}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3
            );
            if let Some(p) = s.parent {
                let _ = write!(e, ",\"parent\":{p}");
            }
            if s.samples > 0 {
                let _ = write!(e, ",\"aggregate_of\":{}", s.samples);
            }
            e.push_str("}}");
            out.push(e);
        }
    }
}

/// Wraps Chrome trace events into a loadable document.
pub fn chrome_document(events: &[String]) -> String {
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut s = Spans::new();
        let root = s.open("rep", "bench");
        s.time("call", "rdsim-experiments", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        s.close(root);
        let call_id = 1;
        let dur = s.get(call_id).dur_ns();
        s.aggregate(
            call_id,
            &[
                ("stage.a".into(), "rdsim-core", dur / 4, 10),
                ("stage.b".into(), "rdsim-core", dur / 4, 10),
            ],
        );
        assert_eq!(s.self_ns(call_id), dur - 2 * (dur / 4));
        assert_eq!(s.self_ns(root), s.get(root).dur_ns() - dur);
        let total: u64 = (0..s.spans().len()).map(|i| s.self_ns(i)).sum();
        assert_eq!(total, s.get(root).dur_ns(), "self times reconcile");
        let mut ev = Vec::new();
        s.chrome_events("w", 1, &mut ev);
        let doc = chrome_document(&ev);
        assert!(doc.contains("\"aggregate_of\":10") && doc.contains("\"parent\":1"));
    }

    #[test]
    #[should_panic(expected = "stage time")]
    fn aggregate_rejects_more_time_than_the_call() {
        let mut s = Spans::new();
        let id = s.open("call", "x");
        s.close(id);
        let too_much = s.get(id).dur_ns() + 1;
        s.aggregate(id, &[("a".into(), "x", too_much, 1)]);
    }
}

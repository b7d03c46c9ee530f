//! Hand-rolled Chrome/Perfetto `trace_event` JSON writer.
//!
//! Emits the JSON-object format both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) load directly. No external
//! serializer: every string written is a fixed label or an integer, so
//! each element is assembled in a fixed stack buffer with hand-rolled
//! decimal/hex formatting and handed to the sink in one `write_all`. The
//! output is deterministic for a deterministic [`TraceLog`].
//!
//! Layout chosen for readability in the Perfetto UI:
//!
//! * one *process* per artifact kind (video pipeline, command pipeline,
//!   incidents …), one *thread lane* per pipeline stage;
//! * every [`TraceEvent`] becomes an instant event (`"ph":"i"`) on its
//!   stage lane, with the artifact id and stage detail in `args`;
//! * every artifact with ≥ 2 events additionally becomes an async span
//!   (`"ph":"b"` / `"ph":"e"`, keyed by the artifact's raw id), so each
//!   frame/command shows as one bar from origin to its last observed hop
//!   — the capture → actuation lineage at a glance.
//!
//! Timestamps (`"ts"`) are the events' sim-time in µs, which is exactly
//! the unit the format expects.
//!
//! Lineage spans come out in artifact-id order (kind, then sequence
//! number): one sort of `(raw id, index)` pairs groups each artifact's
//! events, in recorded order within the group.

use std::io::{self, Write};

use crate::trace::{ArtifactKind, TraceEvent, TraceLog, TraceStage};

/// The artifact kinds in process-id order.
const KINDS: [ArtifactKind; 5] = [
    ArtifactKind::Frame,
    ArtifactKind::Command,
    ArtifactKind::Meta,
    ArtifactKind::Qos,
    ArtifactKind::Incident,
];

/// Stage lanes per process ([`TraceStage::lane`] is `0..16`).
const LANES: usize = 16;

fn pid(kind: ArtifactKind) -> u32 {
    match kind {
        ArtifactKind::Frame => 1,
        ArtifactKind::Command => 2,
        ArtifactKind::Meta => 3,
        ArtifactKind::Qos => 4,
        ArtifactKind::Incident => 5,
    }
}

fn process_name(kind: ArtifactKind) -> &'static str {
    match kind {
        ArtifactKind::Frame => "video pipeline (vehicle -> operator)",
        ArtifactKind::Command => "command pipeline (operator -> vehicle)",
        ArtifactKind::Meta => "meta packets",
        ArtifactKind::Qos => "qos packets",
        ArtifactKind::Incident => "incidents & fault windows",
    }
}

/// Longest element: an instant with 20-digit `ts` and `arg`, a 17-digit
/// seq printed twice and the longest labels comes to about 220 bytes.
const ELEMENT_CAP: usize = 384;

/// Comma-separated JSON elements, each assembled in a stack buffer and
/// written to the sink whole.
struct Elements<'w, W> {
    out: &'w mut W,
    buf: [u8; ELEMENT_CAP],
    len: usize,
    first: bool,
}

impl<'w, W: Write> Elements<'w, W> {
    fn new(out: &'w mut W) -> Self {
        Elements {
            out,
            buf: [0; ELEMENT_CAP],
            len: 0,
            first: true,
        }
    }

    /// Starts the next array element: a separating comma for all but the
    /// first.
    fn element(&mut self) {
        if !self.first {
            self.str(",");
        }
        self.first = false;
    }

    fn str(&mut self, s: &str) {
        self.raw(s.as_bytes());
    }

    fn dec(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.raw(&digits[i..]);
    }

    fn hex(&mut self, mut v: u64) {
        let mut digits = [0u8; 16];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b"0123456789abcdef"[(v & 0xf) as usize];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        self.raw(&digits[i..]);
    }

    fn raw(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    /// Writes the assembled bytes to the sink.
    fn flush(&mut self) -> io::Result<()> {
        let len = std::mem::take(&mut self.len);
        self.out.write_all(&self.buf[..len])
    }
}

/// Writes `log` as a Chrome `trace_event` JSON document.
pub(crate) fn write_chrome_json(log: &TraceLog, out: &mut impl Write) -> io::Result<()> {
    let events = &log.events;
    let mut w = Elements::new(out);
    w.str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"events\":");
    w.dec(events.len() as u64);
    w.str(",\"overwritten\":");
    w.dec(log.overwritten);
    w.str(",\"capacity\":");
    w.dec(log.capacity as u64);
    w.str("},\"traceEvents\":[");
    w.flush()?;

    // Metadata: name every process and stage lane that actually appears.
    let mut lanes = [[None::<TraceStage>; LANES]; KINDS.len()];
    for e in events {
        lanes[pid(e.id.kind()) as usize - 1][e.stage.lane() as usize] = Some(e.stage);
    }
    for (kind, row) in KINDS.iter().zip(&lanes) {
        if row.iter().any(Option::is_some) {
            w.element();
            w.str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
            w.dec(pid(*kind).into());
            w.str(",\"tid\":0,\"args\":{\"name\":\"");
            w.str(process_name(*kind));
            w.str("\"}}");
            w.flush()?;
        }
    }
    for (kind, row) in KINDS.iter().zip(&lanes) {
        for (lane, stage) in row.iter().enumerate() {
            let Some(stage) = stage else { continue };
            w.element();
            w.str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":");
            w.dec(pid(*kind).into());
            w.str(",\"tid\":");
            w.dec(lane as u64);
            w.str(",\"args\":{\"name\":\"");
            w.str(stage.label());
            w.str("\"}}");
            w.flush()?;
        }
    }

    // Async lineage spans: one bar per artifact with two or more events,
    // from its first to its last (recorded order is causal order).
    let mut by_id: Vec<(u64, usize)> = events
        .iter()
        .enumerate()
        .map(|(i, e)| (e.id.raw(), i))
        .collect();
    by_id.sort_unstable();
    for hops in by_id.chunk_by(|a, b| a.0 == b.0) {
        if let [(_, first), .., (_, last)] = hops {
            write_span(&mut w, &events[*first], &events[*last], hops.len())?;
        }
    }

    // Instant events: one per recorded hop/decision.
    for e in events {
        let kind = e.id.kind();
        w.element();
        w.str("{\"name\":\"");
        w.str(e.stage.label());
        w.str("\",\"cat\":\"");
        w.str(kind.label());
        // Incidents render process-wide so they stand out.
        w.str(if kind == ArtifactKind::Incident {
            "\",\"ph\":\"i\",\"s\":\"p\",\"pid\":"
        } else {
            "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
        });
        w.dec(pid(kind).into());
        w.str(",\"tid\":");
        w.dec(e.stage.lane().into());
        w.str(",\"ts\":");
        w.dec(e.sim_us);
        w.str(",\"args\":{\"id\":\"");
        w.str(kind.label());
        w.str("#");
        w.dec(e.id.seq());
        w.str("\",\"seq\":");
        w.dec(e.id.seq());
        w.str(",\"arg\":");
        w.dec(e.arg);
        w.str("}}");
        w.flush()?;
    }

    w.str("]}");
    w.flush()
}

/// Writes the begin/end pair of one artifact's async span.
fn write_span<W: Write>(
    w: &mut Elements<'_, W>,
    begin: &TraceEvent,
    end: &TraceEvent,
    hops: usize,
) -> io::Result<()> {
    let kind = begin.id.kind();
    for phase in ["b", "e"] {
        w.element();
        w.str("{\"name\":\"");
        w.str(kind.label());
        w.str("#");
        w.dec(begin.id.seq());
        w.str("\",\"cat\":\"");
        w.str(kind.label());
        w.str("\",\"ph\":\"");
        w.str(phase);
        w.str("\",\"id\":\"0x");
        w.hex(begin.id.raw());
        w.str("\",\"pid\":");
        w.dec(pid(kind).into());
        w.str(",\"tid\":");
        w.dec(begin.stage.lane().into());
        w.str(",\"ts\":");
        if phase == "b" {
            w.dec(begin.sim_us);
            w.str(",\"args\":{\"hops\":");
            w.dec(hops as u64);
            w.str("}}");
        } else {
            w.dec(end.sim_us.max(begin.sim_us));
            w.str("}");
        }
        w.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::trace::{TraceId, TraceLog, TraceStage, Tracer};

    fn sample_log() -> TraceLog {
        let t = Tracer::with_capacity(64);
        let f = TraceId::frame(3);
        t.record(f, TraceStage::Capture, 1_000, 3);
        t.record(f, TraceStage::NetemEnqueue, 1_200, 2_000);
        t.record(f, TraceStage::NetemDeliver, 51_200, 50_000);
        t.record(f, TraceStage::Display, 51_200, 50_200);
        let c = TraceId::command(9);
        t.record(c, TraceStage::CommandEmit, 60_000, 3);
        t.record(c, TraceStage::NetemDrop, 60_000, 12);
        t.record(TraceId::incident(0), TraceStage::Incident, 70_000, 1);
        t.log()
    }

    #[test]
    fn emits_wellformed_trace_events() {
        let json = sample_log().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        // Process + lane metadata for what appeared.
        assert!(json.contains("video pipeline (vehicle -> operator)"));
        assert!(json.contains("command pipeline (operator -> vehicle)"));
        assert!(json.contains("incidents & fault windows"));
        // Async span for the 4-hop frame, begin and end.
        assert!(json.contains("\"name\":\"frame#3\",\"cat\":\"frame\",\"ph\":\"b\""));
        assert!(json.contains("\"name\":\"frame#3\",\"cat\":\"frame\",\"ph\":\"e\""));
        // Instants carry id + arg.
        assert!(json.contains("\"name\":\"netem.drop\""));
        assert!(json.contains("\"id\":\"cmd#9\""));
        // Incident instants are process-scoped.
        assert!(
            json.contains("\"name\":\"incident\",\"cat\":\"incident\",\"ph\":\"i\",\"s\":\"p\"")
        );
        // Balanced braces/brackets (cheap well-formedness check; no string
        // in the output contains braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn single_event_artifacts_get_no_span() {
        let t = Tracer::with_capacity(8);
        t.record(TraceId::frame(1), TraceStage::Capture, 0, 0);
        let json = t.log().to_chrome_json();
        assert!(!json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn empty_log_is_still_loadable() {
        let json = TraceLog::default().to_chrome_json();
        assert!(json.contains("\"traceEvents\":[]"));
    }
}

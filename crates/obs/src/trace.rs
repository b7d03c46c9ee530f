//! Causal per-artifact tracing: trace ids, span events, and the
//! always-on flight recorder.
//!
//! Every video frame and control command gets a [`TraceId`] at origin;
//! each pipeline hop (capture → encode → netem decision → decode →
//! display → command emit → netem → actuation) appends a [`TraceEvent`]
//! through a shared [`Tracer`] handle. Events land in a bounded
//! [`crate::TraceRing`], so tracing costs a mutexed 32-byte store per hop
//! and memory stays fixed no matter how long the run is. A snapshot of
//! the ring is a [`TraceLog`], which can window itself around a safety
//! incident or render as Chrome/Perfetto `trace_event` JSON via
//! [`TraceLog::write_chrome_json`].
//!
//! Events are stamped with **sim-time only** (µs since run start): the
//! stream is then deterministic across identical seeds, which the session
//! determinism tests rely on. Wall-clock timing lives in the telemetry
//! layer's histograms instead.

use std::fmt;
use std::sync::Arc;

use crate::ring::TraceRing;

/// Default flight-recorder bound: 64 Ki events ≈ 2 MiB, roughly the last
/// two sim-minutes of a faulty study run (~10 events per 20 ms step).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// What kind of artifact a [`TraceId`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactKind {
    /// A video frame (vehicle → operator).
    Frame,
    /// A driving command (operator → vehicle).
    Command,
    /// A meta-command packet.
    Meta,
    /// A QoS telemetry packet.
    Qos,
    /// A safety incident or fault-window edge marker.
    Incident,
}

impl ArtifactKind {
    /// Short lowercase label (`"frame"`, `"cmd"`, …).
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Frame => "frame",
            ArtifactKind::Command => "cmd",
            ArtifactKind::Meta => "meta",
            ArtifactKind::Qos => "qos",
            ArtifactKind::Incident => "incident",
        }
    }

    fn tag(self) -> u64 {
        match self {
            ArtifactKind::Frame => 1,
            ArtifactKind::Command => 2,
            ArtifactKind::Meta => 3,
            ArtifactKind::Qos => 4,
            ArtifactKind::Incident => 5,
        }
    }

    fn from_tag(tag: u64) -> ArtifactKind {
        match tag {
            1 => ArtifactKind::Frame,
            2 => ArtifactKind::Command,
            3 => ArtifactKind::Meta,
            4 => ArtifactKind::Qos,
            _ => ArtifactKind::Incident,
        }
    }
}

/// A packed artifact identity: 8-bit kind tag + 56-bit sequence number.
///
/// The sequence number is the sender-assigned packet/incident sequence, so
/// an id minted at origin survives unchanged through the netem qdisc to
/// the consuming end — that is what stitches a lineage together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// An id for the given artifact kind and sequence number.
    pub fn new(kind: ArtifactKind, seq: u64) -> Self {
        TraceId((kind.tag() << 56) | (seq & 0x00FF_FFFF_FFFF_FFFF))
    }

    /// A video-frame id.
    pub fn frame(seq: u64) -> Self {
        TraceId::new(ArtifactKind::Frame, seq)
    }

    /// A control-command id.
    pub fn command(seq: u64) -> Self {
        TraceId::new(ArtifactKind::Command, seq)
    }

    /// An incident-marker id.
    pub fn incident(seq: u64) -> Self {
        TraceId::new(ArtifactKind::Incident, seq)
    }

    /// The artifact kind encoded in the id.
    pub fn kind(self) -> ArtifactKind {
        ArtifactKind::from_tag(self.0 >> 56)
    }

    /// The sequence number encoded in the id.
    pub fn seq(self) -> u64 {
        self.0 & 0x00FF_FFFF_FFFF_FFFF
    }

    /// The packed representation (stable across runs of the same seed).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.kind().label(), self.seq())
    }
}

/// A pipeline stage (or point decision) an artifact passed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceStage {
    /// Frame captured by the camera sensor. `arg` = camera frame id.
    Capture,
    /// Frame encoded for transport. `arg` = encoded payload bytes.
    Encode,
    /// Packet offered to a netem qdisc. `arg` = packet metadata word.
    NetemEnqueue,
    /// Packet discarded by a loss fault. `arg` = packet metadata word.
    NetemDrop,
    /// Packet payload corrupted in flight. `arg` = packet metadata word.
    NetemCorrupt,
    /// Duplicate copy created. `arg` = packet metadata word of the copy.
    NetemDuplicate,
    /// Packet jumped the delay queue (reorder fault). `arg` = metadata.
    NetemReorder,
    /// Packet released to the receiver. `arg` = link latency in µs.
    NetemDeliver,
    /// Frame/command payload decoded successfully. `arg` = payload bytes.
    Decode,
    /// Payload failed its checksum and was rejected. `arg` = bytes.
    DecodeFailed,
    /// Frame shown on the operator display. `arg` = glass-to-glass age µs.
    Display,
    /// Operator emitted a command. `arg` = newest displayed frame seq
    /// (the causal operator-reaction link), `u64::MAX` before any frame.
    CommandEmit,
    /// Command applied by the vehicle plant. `arg` = command age in µs.
    Actuate,
    /// A fault window opened (`arg` = 1) or closed (`arg` = 0).
    FaultEdge,
    /// A safety incident. `arg` = [`incident_arg`] payload.
    Incident,
    /// Packet tail-dropped by a full finite queue (congestion, not a
    /// loss-model decision). `arg` = packet metadata word.
    NetemQueueDrop,
}

impl TraceStage {
    /// Short lowercase label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            TraceStage::Capture => "capture",
            TraceStage::Encode => "encode",
            TraceStage::NetemEnqueue => "netem.enqueue",
            TraceStage::NetemDrop => "netem.drop",
            TraceStage::NetemCorrupt => "netem.corrupt",
            TraceStage::NetemDuplicate => "netem.duplicate",
            TraceStage::NetemReorder => "netem.reorder",
            TraceStage::NetemDeliver => "netem.deliver",
            TraceStage::Decode => "decode",
            TraceStage::DecodeFailed => "decode.failed",
            TraceStage::Display => "display",
            TraceStage::CommandEmit => "emit",
            TraceStage::Actuate => "actuate",
            TraceStage::FaultEdge => "fault.edge",
            TraceStage::Incident => "incident",
            TraceStage::NetemQueueDrop => "netem.queue_drop",
        }
    }

    /// A stable small integer for per-stage display lanes.
    pub fn lane(self) -> u32 {
        match self {
            TraceStage::Capture => 0,
            TraceStage::Encode => 1,
            TraceStage::NetemEnqueue => 2,
            TraceStage::NetemDrop => 3,
            TraceStage::NetemCorrupt => 4,
            TraceStage::NetemDuplicate => 5,
            TraceStage::NetemReorder => 6,
            TraceStage::NetemDeliver => 7,
            TraceStage::Decode => 8,
            TraceStage::DecodeFailed => 9,
            TraceStage::Display => 10,
            TraceStage::CommandEmit => 11,
            TraceStage::Actuate => 12,
            TraceStage::FaultEdge => 13,
            TraceStage::Incident => 14,
            TraceStage::NetemQueueDrop => 15,
        }
    }
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One flight-recorder entry: artifact, stage, sim-time, stage detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which artifact this event belongs to.
    pub id: TraceId,
    /// Which pipeline hop or decision happened.
    pub stage: TraceStage,
    /// Simulation time of the event, µs since run start.
    pub sim_us: u64,
    /// Stage-specific detail; see the [`TraceStage`] variant docs.
    pub arg: u64,
}

/// The tracing handle threaded through the pipeline, mirroring
/// [`crate::Recorder`]: clones of a live tracer share one ring;
/// [`Tracer::null`] (also the `Default`) records nothing and costs one
/// `Option` branch per call.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    ring: Option<Arc<TraceRing>>,
}

impl Tracer {
    /// The disabled tracer.
    pub fn null() -> Self {
        Tracer { ring: None }
    }

    /// A live tracer over a fresh ring of [`DEFAULT_TRACE_CAPACITY`].
    pub fn flight_recorder() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A live tracer over a fresh ring bounded at `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            ring: Some(Arc::new(TraceRing::with_capacity(capacity))),
        }
    }

    /// True when this tracer writes into a ring.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one event. No-op on a null tracer.
    #[inline]
    pub fn record(&self, id: TraceId, stage: TraceStage, sim_us: u64, arg: u64) {
        if let Some(ring) = &self.ring {
            ring.push(TraceEvent {
                id,
                stage,
                sim_us,
                arg,
            });
        }
    }

    /// Events currently retained (0 when null).
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.len())
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-grows the ring's storage for `events` more events (clamped to
    /// the ring bound). No-op on a null tracer. Sessions of known length
    /// call this once up front so steady-state tracing never allocates.
    pub fn preallocate(&self, events: usize) {
        if let Some(ring) = &self.ring {
            ring.reserve(events);
        }
    }

    /// Events overwritten by the bound so far (0 when null).
    pub fn overwritten(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.overwritten())
    }

    /// Snapshots the ring into an owned [`TraceLog`].
    pub fn log(&self) -> TraceLog {
        let mut log = TraceLog::default();
        self.log_into(&mut log);
        log
    }

    /// Snapshots the ring into a caller-owned [`TraceLog`], clearing and
    /// reusing its event buffer — the repeated-export path (forensics
    /// dossiers snapshot once per run into one recycled log, keeping the
    /// export loop off the allocator once the buffer has grown).
    pub fn log_into(&self, log: &mut TraceLog) {
        log.events.clear();
        match &self.ring {
            Some(ring) => {
                ring.snapshot_into(&mut log.events);
                log.overwritten = ring.overwritten();
                log.capacity = ring.capacity();
            }
            None => {
                log.overwritten = 0;
                log.capacity = 0;
            }
        }
    }
}

/// An owned snapshot of a flight-recorder ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to the ring bound before this snapshot.
    pub overwritten: u64,
    /// The ring bound (0 for the null-tracer snapshot).
    pub capacity: usize,
}

impl TraceLog {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.overwritten == 0
    }

    /// The events with `from_us <= sim_us <= to_us`, as a new log — the
    /// incident-dump extraction.
    pub fn window(&self, from_us: u64, to_us: u64) -> TraceLog {
        TraceLog {
            events: self
                .events
                .iter()
                .filter(|e| e.sim_us >= from_us && e.sim_us <= to_us)
                .copied()
                .collect(),
            overwritten: self.overwritten,
            capacity: self.capacity,
        }
    }

    /// All events of one artifact, in recorded order.
    pub fn lineage(&self, id: TraceId) -> Vec<TraceEvent> {
        self.events.iter().filter(|e| e.id == id).copied().collect()
    }

    /// Number of distinct artifacts of `kind` whose lineage contains both
    /// `first` and `last` — e.g. `(Frame, Capture, Display)` counts frames
    /// traced end to end.
    pub fn complete_lineages(
        &self,
        kind: ArtifactKind,
        first: TraceStage,
        last: TraceStage,
    ) -> u64 {
        use std::collections::BTreeMap;
        let mut seen: BTreeMap<TraceId, (bool, bool)> = BTreeMap::new();
        for e in &self.events {
            if e.id.kind() != kind {
                continue;
            }
            let entry = seen.entry(e.id).or_default();
            if e.stage == first {
                entry.0 = true;
            }
            if e.stage == last {
                entry.1 = true;
            }
        }
        seen.values().filter(|(a, b)| *a && *b).count() as u64
    }

    /// Writes the log as Chrome/Perfetto `trace_event` JSON into `out`,
    /// one element at a time — wrap a file in a `BufWriter` to stream an
    /// export without holding the document in memory.
    ///
    /// # Errors
    ///
    /// Whatever `out` returns.
    pub fn write_chrome_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        crate::chrome::write_chrome_json(self, out)
    }

    /// Renders the log as Chrome/Perfetto `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        // Recorded logs average ~180 bytes per event, so this reserve
        // regrows once; reserving more showed up directly in the peak
        // memory of export-heavy runs.
        let mut buf = Vec::with_capacity(256 + self.events.len() * 160);
        self.write_chrome_json(&mut buf)
            .expect("writing into a Vec cannot fail");
        String::from_utf8(buf).expect("the Chrome writer emits ASCII only")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_packs_kind_and_seq() {
        for (kind, seq) in [
            (ArtifactKind::Frame, 0u64),
            (ArtifactKind::Command, 123),
            (ArtifactKind::Meta, 7),
            (ArtifactKind::Qos, 1 << 40),
            (ArtifactKind::Incident, 0x00FF_FFFF_FFFF_FFFF),
        ] {
            let id = TraceId::new(kind, seq);
            assert_eq!(id.kind(), kind);
            assert_eq!(id.seq(), seq);
        }
        assert_eq!(TraceId::frame(12).to_string(), "frame#12");
        assert_eq!(TraceId::command(3).to_string(), "cmd#3");
        assert_ne!(TraceId::frame(1).raw(), TraceId::command(1).raw());
    }

    #[test]
    fn null_tracer_is_free_and_empty() {
        let t = Tracer::null();
        assert!(!t.enabled());
        t.record(TraceId::frame(1), TraceStage::Capture, 0, 0);
        assert!(t.is_empty());
        assert_eq!(t.overwritten(), 0);
        assert!(t.log().is_empty());
    }

    #[test]
    fn clones_share_the_ring() {
        let t = Tracer::with_capacity(16);
        let u = t.clone();
        t.record(TraceId::frame(1), TraceStage::Capture, 10, 0);
        u.record(TraceId::frame(1), TraceStage::Display, 20, 0);
        assert_eq!(t.len(), 2);
        let log = u.log();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.capacity, 16);
        assert_eq!(log.lineage(TraceId::frame(1)).len(), 2);
    }

    #[test]
    fn window_filters_by_sim_time() {
        let t = Tracer::with_capacity(16);
        for us in [5u64, 10, 15, 20] {
            t.record(TraceId::frame(us), TraceStage::Capture, us, 0);
        }
        let w = t.log().window(10, 15);
        let times: Vec<u64> = w.events.iter().map(|e| e.sim_us).collect();
        assert_eq!(times, vec![10, 15]);
    }

    #[test]
    fn complete_lineages_requires_both_ends() {
        let t = Tracer::with_capacity(64);
        // Frame 0: full lineage. Frame 1: dropped after capture.
        t.record(TraceId::frame(0), TraceStage::Capture, 0, 0);
        t.record(TraceId::frame(0), TraceStage::Display, 40_000, 0);
        t.record(TraceId::frame(1), TraceStage::Capture, 40_000, 0);
        t.record(TraceId::frame(1), TraceStage::NetemDrop, 40_100, 0);
        let log = t.log();
        assert_eq!(
            log.complete_lineages(
                ArtifactKind::Frame,
                TraceStage::Capture,
                TraceStage::Display
            ),
            1
        );
        assert_eq!(
            log.complete_lineages(
                ArtifactKind::Command,
                TraceStage::CommandEmit,
                TraceStage::Actuate
            ),
            0
        );
    }
}

//! Property tests for telemetry merging and the trace flight recorder.
//!
//! * `RunTelemetry::merge` is associative, and commutative on the
//!   order-insensitive parts (counters, histograms, drop/wall totals).
//!   Gauges are last-wins and events concatenate, so those are *expected*
//!   to be order-sensitive — the tests pin down exactly that split.
//! * Merged histograms agree with a brute-force oracle that records every
//!   sample into one histogram directly.
//! * The trace ring never loses the most recent `capacity` entries, for
//!   arbitrary push sequences and interleavings.
//! * The streaming Chrome writer emits exactly the bytes of the
//!   `write!`-based exporter it replaced, kept here as the reference.

use proptest::prelude::*;
use rdsim_obs::{
    ArtifactKind, Event, Histogram, RunTelemetry, TraceEvent, TraceId, TraceLog, TraceRing,
    TraceStage, Tracer,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// --- Generators -----------------------------------------------------------

/// A small pool of names so merges actually collide on shared keys.
fn name(i: u8) -> String {
    format!("metric.{}", i % 5)
}

fn arb_telemetry() -> impl Strategy<Value = RunTelemetry> {
    let counters = proptest::collection::vec((0u8..10, 0u64..1_000_000), 0..6);
    let hists = proptest::collection::vec(
        (
            0u8..10,
            proptest::collection::vec(proptest::num::u64::ANY, 0..20),
        ),
        0..4,
    );
    let events = proptest::collection::vec((0u8..10, 0u64..1_000_000), 0..4);
    (counters, hists, events, 0u64..1_000, 0u64..1_000_000).prop_map(
        |(counters, hists, events, dropped, wall)| {
            let mut t = RunTelemetry::default();
            for (n, v) in counters {
                *t.counters.entry(name(n)).or_insert(0) += v;
            }
            for (n, samples) in hists {
                let h = Histogram::new();
                for s in samples {
                    h.record(s);
                }
                t.histograms
                    .entry(name(n))
                    .or_default()
                    .merge(&h.snapshot());
            }
            for (n, sim_us) in events {
                t.events.push(Event {
                    name: name(n),
                    sim_us,
                    wall_ns: 0,
                    note: String::new(),
                });
            }
            t.events_dropped = dropped;
            t.wall_elapsed_ns = wall;
            t
        },
    )
}

fn merged(a: &RunTelemetry, b: &RunTelemetry) -> RunTelemetry {
    let mut out = a.clone();
    out.merge(b);
    out
}

// --- Merge laws -----------------------------------------------------------

proptest! {
    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), on the whole structure.
    #[test]
    fn merge_is_associative(
        a in arb_telemetry(),
        b in arb_telemetry(),
        c in arb_telemetry(),
    ) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(left, right);
    }

    /// a ⊕ b == b ⊕ a for everything except the deliberately
    /// order-sensitive parts: gauges (last-wins) and the event *order*
    /// (concatenation). Event multisets still agree.
    #[test]
    fn merge_is_commutative_on_order_insensitive_parts(
        a in arb_telemetry(),
        b in arb_telemetry(),
    ) {
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        prop_assert_eq!(&ab.counters, &ba.counters);
        prop_assert_eq!(&ab.histograms, &ba.histograms);
        prop_assert_eq!(ab.events_dropped, ba.events_dropped);
        prop_assert_eq!(ab.wall_elapsed_ns, ba.wall_elapsed_ns);
        let mut ev_ab: Vec<_> = ab.events.iter().map(Event::deterministic_key).collect();
        let mut ev_ba: Vec<_> = ba.events.iter().map(Event::deterministic_key).collect();
        ev_ab.sort();
        ev_ba.sort();
        prop_assert_eq!(ev_ab, ev_ba, "same events, possibly reordered");
    }

    /// The identity element: merging a default leaves everything unchanged.
    #[test]
    fn merge_with_default_is_identity(a in arb_telemetry()) {
        prop_assert_eq!(merged(&a, &RunTelemetry::default()), a.clone());
        prop_assert_eq!(merged(&RunTelemetry::default(), &a), a);
    }

    /// Merging per-run histograms equals recording every sample into one
    /// histogram directly (the brute-force oracle).
    #[test]
    fn histogram_merge_matches_brute_force(
        runs in proptest::collection::vec(
            proptest::collection::vec(proptest::num::u64::ANY, 0..40),
            1..6,
        ),
    ) {
        let mut campaign = RunTelemetry::default();
        let oracle = Histogram::new();
        for samples in &runs {
            let h = Histogram::new();
            for &s in samples {
                h.record(s);
                oracle.record(s);
            }
            let mut run = RunTelemetry::default();
            run.histograms.insert("h".into(), h.snapshot());
            campaign.merge(&run);
        }
        let merged = campaign.histogram("h").expect("at least one run merged");
        prop_assert_eq!(merged, &oracle.snapshot());
    }
}

// --- Trace-ring retention -------------------------------------------------

fn ev(tag: u64, n: u64) -> TraceEvent {
    TraceEvent {
        id: TraceId::frame(tag),
        stage: TraceStage::Capture,
        sim_us: n,
        arg: tag,
    }
}

proptest! {
    /// After n pushes into a ring of capacity c, the snapshot is exactly
    /// the last min(n, c) entries in order, and the overwrite counter
    /// accounts for every entry not retained.
    #[test]
    fn ring_retains_exactly_the_most_recent_entries(
        capacity in 1usize..64,
        n in 0usize..300,
    ) {
        let ring = TraceRing::with_capacity(capacity);
        for i in 0..n {
            ring.push(ev(0, i as u64));
        }
        let kept: Vec<u64> = ring.snapshot().iter().map(|e| e.sim_us).collect();
        let expect: Vec<u64> = (n.saturating_sub(capacity)..n).map(|i| i as u64).collect();
        prop_assert_eq!(kept, expect);
        prop_assert_eq!(ring.overwritten() as usize, n.saturating_sub(capacity));
    }

    /// Arbitrary interleavings of several logical streams through one
    /// shared tracer: the ring keeps the globally most recent `capacity`
    /// events, and each stream's retained suffix preserves its order.
    #[test]
    fn ring_preserves_order_under_interleaving(
        capacity in 1usize..48,
        streams in proptest::collection::vec(0u64..4, 0..200),
    ) {
        let tracer = Tracer::with_capacity(capacity);
        let mut counters = [0u64; 4];
        let mut all = Vec::new();
        for (i, &s) in streams.iter().enumerate() {
            let e = ev(s, i as u64);
            tracer.record(e.id, e.stage, e.sim_us, counters[s as usize]);
            counters[s as usize] += 1;
            all.push((s, i as u64));
        }
        let log = tracer.log();
        // Globally: the last `capacity` events, in push order.
        let kept: Vec<u64> = log.events.iter().map(|e| e.sim_us).collect();
        let expect: Vec<u64> = all
            .iter()
            .skip(all.len().saturating_sub(capacity))
            .map(|&(_, i)| i)
            .collect();
        prop_assert_eq!(kept, expect);
        // Per stream: retained args (each stream's own sequence) ascend.
        for s in 0..4u64 {
            let args: Vec<u64> = log
                .events
                .iter()
                .filter(|e| e.id == TraceId::frame(s))
                .map(|e| e.arg)
                .collect();
            let mut sorted = args.clone();
            sorted.sort_unstable();
            prop_assert_eq!(args, sorted, "stream {} order", s);
        }
        prop_assert_eq!(
            log.overwritten as usize,
            all.len().saturating_sub(capacity)
        );
    }
}

// --- Chrome export: the streaming writer against the reference -----------

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

/// Renders a [`TraceLog`] as a Chrome `trace_event` JSON document: the
/// `write!`-based exporter `TraceLog::write_chrome_json` replaced, kept
/// verbatim as the reference its bytes must equal.
fn chrome_trace_json(log: &TraceLog) -> String {
    let mut out = String::with_capacity(256 + log.events.len() * 160);
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"events\":{},\"overwritten\":{},\"capacity\":{}}},\"traceEvents\":[",
        log.events.len(),
        log.overwritten,
        log.capacity
    );
    let mut first = true;
    let mut push = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Metadata: name every process and stage lane that actually appears.
    let mut lanes: BTreeMap<(u32, u32), &'static str> = BTreeMap::new();
    let mut procs: BTreeMap<u32, &'static str> = BTreeMap::new();
    for e in &log.events {
        let p = pid(e.id.kind());
        procs.insert(p, process_name(e.id.kind()));
        lanes.insert((p, e.stage.lane()), e.stage.label());
    }
    for (p, name) in &procs {
        push(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for ((p, t), name) in &lanes {
        push(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":{t},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }

    // Async lineage spans: one bar per artifact from its first to its
    // last observed event (in recorded order, which is causal order).
    let mut spans: BTreeMap<TraceId, (TraceEvent, TraceEvent, usize)> = BTreeMap::new();
    for e in &log.events {
        spans
            .entry(e.id)
            .and_modify(|(_, last, n)| {
                *last = *e;
                *n += 1;
            })
            .or_insert((*e, *e, 1));
    }
    for (id, (begin, end, n)) in &spans {
        if *n < 2 {
            continue;
        }
        let (p, cat) = (pid(id.kind()), id.kind().label());
        let lane = begin.stage.lane();
        push(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{id}\",\"cat\":\"{cat}\",\"ph\":\"b\",\"id\":\"0x{:x}\",\"pid\":{p},\"tid\":{lane},\"ts\":{},\"args\":{{\"hops\":{n}}}}}",
            id.raw(),
            begin.sim_us
        );
        push(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{id}\",\"cat\":\"{cat}\",\"ph\":\"e\",\"id\":\"0x{:x}\",\"pid\":{p},\"tid\":{lane},\"ts\":{}}}",
            id.raw(),
            end.sim_us.max(begin.sim_us)
        );
    }

    // Instant events: one per recorded hop/decision.
    for e in &log.events {
        let kind = e.id.kind();
        let (p, cat, lane) = (pid(kind), kind.label(), e.stage.lane());
        // Incidents render process-wide so they stand out.
        let scope = if kind == ArtifactKind::Incident {
            "p"
        } else {
            "t"
        };
        push(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"{scope}\",\"pid\":{p},\"tid\":{lane},\"ts\":{},\"args\":{{\"id\":\"{}\",\"seq\":{},\"arg\":{}}}}}",
            e.stage.label(),
            e.sim_us,
            e.id,
            e.id.seq(),
            e.arg
        );
    }

    out.push_str("]}");
    out
}

const KINDS: [ArtifactKind; 5] = [
    ArtifactKind::Frame,
    ArtifactKind::Command,
    ArtifactKind::Meta,
    ArtifactKind::Qos,
    ArtifactKind::Incident,
];

const STAGES: [TraceStage; 16] = [
    TraceStage::Capture,
    TraceStage::Encode,
    TraceStage::NetemEnqueue,
    TraceStage::NetemDrop,
    TraceStage::NetemCorrupt,
    TraceStage::NetemDuplicate,
    TraceStage::NetemReorder,
    TraceStage::NetemDeliver,
    TraceStage::Decode,
    TraceStage::DecodeFailed,
    TraceStage::Display,
    TraceStage::CommandEmit,
    TraceStage::Actuate,
    TraceStage::FaultEdge,
    TraceStage::Incident,
    TraceStage::NetemQueueDrop,
];

/// The largest sequence number a [`TraceId`] holds (56 bits).
const MAX_SEQ: u64 = (1 << 56) - 1;

/// Picks `values[i]` for a uniform `i`.
fn pick<T: Copy>(rng: &mut TestRng, values: &[T]) -> T {
    values[(rng.next_u64() % values.len() as u64) as usize]
}

/// A value below `bound`, or an edge (`0`, `u64::MAX`) one time in eight.
fn edgy(rng: &mut TestRng, bound: u64) -> u64 {
    match rng.next_u64() % 16 {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64() % bound,
    }
}

/// Trace logs in every shape the writer must order and print: all five
/// kinds on all sixteen stage lanes; per kind, dense seqs minted
/// consecutively from a base at 0, just above it or near the 56-bit
/// maximum, as recording mints them, or a handful of arbitrary 56-bit
/// seqs including 0 and the maximum, as a hand-built log may hold; ring
/// logs that wrapped, so their oldest seqs are gone; single-hop and
/// many-hop artifacts; mostly ascending `sim_us` with out-of-order and
/// `u64::MAX` stamps; and `arg`, `overwritten` and `capacity` edges.
struct ArbTraceLog;

impl Strategy for ArbTraceLog {
    type Value = TraceLog;

    fn sample(&self, rng: &mut TestRng) -> TraceLog {
        let n = (rng.next_u64() % 400) as usize;
        // Per kind: dense (consecutive from a base) or sparse (a pool).
        let mut dense = [true; 5];
        let mut base = [0u64; 5];
        let mut minted = [0u64; 5];
        let mut pools = [[0u64; 4]; 5];
        let mode = rng.next_u64() % 3;
        for k in 0..5 {
            dense[k] = match mode {
                0 => true,
                1 => false,
                _ => rng.next_u64().is_multiple_of(2),
            };
            base[k] = pick(rng, &[0, 1, 1_000, MAX_SEQ - 2 * n as u64]);
            pools[k] = [
                0,
                MAX_SEQ,
                rng.next_u64() & MAX_SEQ,
                rng.next_u64() & MAX_SEQ,
            ];
        }
        let mut events = Vec::with_capacity(n);
        let mut t = 0u64;
        for _ in 0..n {
            let k = (rng.next_u64() % 5) as usize;
            let seq = if dense[k] {
                // A new artifact one time in three, else another hop of
                // one of the last few.
                if rng.next_u64().is_multiple_of(3) {
                    minted[k] += 1;
                }
                base[k] + minted[k].saturating_sub(rng.next_u64() % 4)
            } else {
                pick(rng, &pools[k])
            };
            t += rng.next_u64() % 30_000;
            let sim_us = match rng.next_u64() % 12 {
                0 => rng.next_u64() % (t + 1),
                1 => u64::MAX,
                _ => t,
            };
            events.push(TraceEvent {
                id: TraceId::new(KINDS[k], seq),
                stage: pick(rng, &STAGES),
                sim_us,
                arg: edgy(rng, 100_000),
            });
        }
        if rng.next_u64().is_multiple_of(2) {
            // Through a ring, which wraps when it is smaller than `n`.
            let tracer = Tracer::with_capacity(1 + (rng.next_u64() % 400) as usize);
            for e in &events {
                tracer.record(e.id, e.stage, e.sim_us, e.arg);
            }
            tracer.log()
        } else {
            TraceLog {
                events,
                overwritten: edgy(rng, 1_000),
                capacity: edgy(rng, 70_000) as usize,
            }
        }
    }
}

/// Fails with the first differing byte and its surroundings, rather than
/// two whole documents.
fn assert_same_bytes(got: &[u8], want: &str, what: &str) {
    if got == want.as_bytes() {
        return;
    }
    let at = got
        .iter()
        .zip(want.as_bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let from = at.saturating_sub(80);
    panic!(
        "{what} diverges from the reference at byte {at} (lengths {} vs {}):\n  got:  {}\n  want: {}",
        got.len(),
        want.len(),
        String::from_utf8_lossy(&got[from..(at + 80).min(got.len())]),
        &want[from..(at + 80).min(want.len())],
    );
}

fn assert_writers_match(log: &TraceLog) {
    let want = chrome_trace_json(log);
    assert_same_bytes(log.to_chrome_json().as_bytes(), &want, "to_chrome_json");
    let mut streamed = Vec::new();
    log.write_chrome_json(&mut streamed)
        .expect("writing into a Vec cannot fail");
    assert_same_bytes(&streamed, &want, "write_chrome_json");
}

proptest! {
    /// Both entry points of the streaming writer reproduce the reference
    /// byte for byte, on whole logs and on `window()` slices of them.
    #[test]
    fn chrome_writer_matches_the_reference(
        log in ArbTraceLog,
        from in 0u64..2_000_000,
        width in 0u64..4_000_000,
    ) {
        assert_writers_match(&log);
        assert_writers_match(&log.window(from, from + width));
        assert_writers_match(&log.window(0, u64::MAX));
    }
}

#[test]
fn chrome_writer_matches_the_reference_at_the_edges() {
    assert_writers_match(&TraceLog::default());
    // One kind at both ends of the seq range, every integer field at its
    // maximum, a multi-hop lineage whose end stamps precede its begin, and
    // every kind and stage at least once.
    let mut events = vec![
        TraceEvent {
            id: TraceId::new(ArtifactKind::Incident, MAX_SEQ),
            stage: TraceStage::NetemQueueDrop,
            sim_us: u64::MAX,
            arg: u64::MAX,
        },
        TraceEvent {
            id: TraceId::new(ArtifactKind::Incident, 0),
            stage: TraceStage::Incident,
            sim_us: 5,
            arg: 0,
        },
        TraceEvent {
            id: TraceId::new(ArtifactKind::Incident, MAX_SEQ),
            stage: TraceStage::FaultEdge,
            sim_us: 0,
            arg: 1,
        },
    ];
    for (i, (&kind, &stage)) in KINDS.iter().cycle().zip(&STAGES).enumerate() {
        events.push(TraceEvent {
            id: TraceId::new(kind, 7 + (i as u64) / 5),
            stage,
            sim_us: 1_000 * i as u64,
            arg: i as u64,
        });
    }
    let log = TraceLog {
        events,
        overwritten: u64::MAX,
        capacity: usize::MAX,
    };
    assert_writers_match(&log);
    assert_writers_match(&log.window(0, 10_000));
}

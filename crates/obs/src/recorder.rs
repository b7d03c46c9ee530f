//! The registry (owner) and recorder (handle) pair.
//!
//! A [`Registry`] is created per run by whoever owns the run (the campaign
//! runner, a test, a bench). Components receive a [`Recorder`] — either a
//! live handle into that registry or the null recorder — as an explicit
//! constructor/config argument. Nothing in this crate is reachable through
//! a global or thread-local, so a component can only ever write telemetry
//! into the run that owns it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::Event;
use crate::hist::Histogram;
use crate::metrics::{Counter, Gauge};
use crate::telemetry::RunTelemetry;

/// Default cap on retained structured events per run. Beyond this, events
/// are counted in `events_dropped` instead of stored, bounding memory for
/// pathological long runs.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

#[derive(Debug)]
pub(crate) struct Inner {
    start: Instant,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: Mutex<Vec<Event>>,
    events_dropped: AtomicU64,
    event_capacity: usize,
}

impl Inner {
    fn new(event_capacity: usize) -> Self {
        Self {
            start: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Vec::new()),
            events_dropped: AtomicU64::new(0),
            event_capacity,
        }
    }

    fn wall_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Owns every instrument for one run. Create one per run, hand out
/// [`Recorder`]s via [`Registry::recorder`], then read the result with
/// [`Registry::snapshot`].
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates a registry with the default event capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a registry retaining at most `capacity` structured events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner::new(capacity)),
        }
    }

    /// A live recorder writing into this registry.
    pub fn recorder(&self) -> Recorder {
        Recorder {
            inner: Some(Arc::clone(&self.inner)),
        }
    }

    /// Snapshots every instrument into a serializable [`RunTelemetry`].
    pub fn snapshot(&self) -> RunTelemetry {
        let inner = &self.inner;
        let counters = inner
            .counters
            .lock()
            .expect("obs counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("obs gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("obs histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let events = inner.events.lock().expect("obs event log poisoned").clone();
        RunTelemetry {
            counters,
            gauges,
            histograms,
            events,
            events_dropped: inner.events_dropped.load(Ordering::Relaxed),
            wall_elapsed_ns: inner.wall_ns(),
        }
    }
}

/// The handle components record through. Clone freely; all clones of a
/// live recorder share the same registry. [`Recorder::null`] (also the
/// `Default`) disables recording: instrument handles it returns are
/// detached-but-functional, events are no-ops, and the owning run's
/// [`RunTelemetry`] stays empty.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The disabled recorder.
    pub fn null() -> Self {
        Self { inner: None }
    }

    /// True when this recorder writes into a registry.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Wall-clock nanoseconds since the registry was created (0 when null).
    #[inline]
    pub fn wall_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.wall_ns(),
            None => 0,
        }
    }

    /// Returns the named counter, creating it on first use. On a null
    /// recorder the counter still counts (callers may read it back as
    /// their own statistic) but is not part of any telemetry snapshot.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner
                .counters
                .lock()
                .expect("obs counter map poisoned")
                .entry(name.to_owned())
                .or_default()
                .clone(),
            None => Counter::new(),
        }
    }

    /// Returns the named gauge, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner
                .gauges
                .lock()
                .expect("obs gauge map poisoned")
                .entry(name.to_owned())
                .or_default()
                .clone(),
            None => Gauge::new(),
        }
    }

    /// Returns the named histogram, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match &self.inner {
            Some(inner) => Arc::clone(
                inner
                    .histograms
                    .lock()
                    .expect("obs histogram map poisoned")
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(Histogram::new())),
            ),
            None => Arc::new(Histogram::new()),
        }
    }

    /// Records one histogram sample by name. Convenience for cold paths;
    /// hot paths resolve the handle once with [`Recorder::histogram`] and
    /// record into it directly.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.histogram(name).record(value);
        }
    }

    /// Appends a structured event stamped with the given sim-time and the
    /// current wall clock. No-op on a null recorder.
    pub fn event(&self, name: &str, sim_us: u64, note: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let wall_ns = inner.wall_ns();
        let mut events = inner.events.lock().expect("obs event log poisoned");
        if events.len() >= inner.event_capacity {
            inner.events_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(Event {
            name: name.to_owned(),
            sim_us,
            wall_ns,
            note: note.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_recorder_snapshots_instruments() {
        let registry = Registry::new();
        let rec = registry.recorder();
        assert!(rec.enabled());
        rec.counter("a.count").add(3);
        rec.counter("a.count").inc();
        rec.gauge("a.gauge").set(2.5);
        rec.observe("a.hist", 10);
        rec.event("a.start", 1_000, "hello");
        let t = registry.snapshot();
        assert_eq!(t.counters.get("a.count"), Some(&4));
        assert_eq!(t.gauges.get("a.gauge"), Some(&2.5));
        assert_eq!(t.histograms.get("a.hist").map(|h| h.count), Some(1));
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].name, "a.start");
        assert_eq!(t.events[0].sim_us, 1_000);
    }

    #[test]
    fn null_recorder_counts_but_leaves_telemetry_empty() {
        let rec = Recorder::null();
        assert!(!rec.enabled());
        let c = rec.counter("x");
        c.add(7);
        assert_eq!(c.get(), 7, "detached counters must still function");
        rec.observe("h", 5);
        rec.event("e", 1, "");
        assert_eq!(rec.wall_ns(), 0);
        // No registry exists, so nothing can be snapshotted; the contract
        // is exercised end-to-end in the session tests (empty RunTelemetry).
    }

    #[test]
    fn event_capacity_is_enforced() {
        let registry = Registry::with_event_capacity(2);
        let rec = registry.recorder();
        for i in 0..5 {
            rec.event("e", i, "");
        }
        let t = registry.snapshot();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events_dropped, 3);
    }
}

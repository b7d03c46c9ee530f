//! The fault injector against a copy of its quadratic form, which
//! re-sorted the schedule on every insert, scheduled a trace window by
//! window and looked for a window to open by scanning the whole schedule:
//! scheduling results, the schedule and the injection log must be equal.

use proptest::prelude::*;
use rdsim_netem::{
    Direction, DuplexLink, FaultInjector, InjectionAction, InjectionEvent, InjectionWindow,
    NetemConfig, TraceSchedule,
};
use rdsim_units::{Millis, SimDuration, SimTime};
use std::fmt::Write as _;

/// The reference: scheduling and opening as the injector did before it
/// kept a cursor. It logs without a link, which the log never reads.
#[derive(Default)]
struct Reference {
    windows: Vec<InjectionWindow>,
    log: Vec<InjectionEvent>,
    active: Option<usize>,
}

#[allow(clippy::result_large_err)] // mirrors FaultInjector::schedule
impl Reference {
    fn schedule(&mut self, window: InjectionWindow) -> Result<(), InjectionWindow> {
        if let Some(conflict) = self.windows.iter().find(|w| w.overlaps(&window)) {
            return Err(*conflict);
        }
        self.windows.push(window);
        self.windows.sort_by_key(|w| w.start);
        Ok(())
    }

    fn schedule_trace(&mut self, trace: &TraceSchedule) -> Result<(), InjectionWindow> {
        for w in trace.windows() {
            self.schedule(*w)?;
        }
        Ok(())
    }

    fn advance(&mut self, now: SimTime) {
        if let Some(idx) = self.active {
            let w = self.windows[idx];
            if now >= w.end() {
                self.log.push(InjectionEvent {
                    time: w.end(),
                    config: w.config,
                    action: InjectionAction::Deleted,
                    direction: Direction::Both,
                });
                self.active = None;
            }
        }
        if self.active.is_none() {
            if let Some(idx) = self.windows.iter().position(|w| w.contains(now)) {
                let w = self.windows[idx];
                self.log.push(InjectionEvent {
                    time: now.max(w.start),
                    config: w.config,
                    action: InjectionAction::Added,
                    direction: Direction::Both,
                });
                self.active = Some(idx);
            }
        }
    }
}

/// The injector under test and the reference, driven in lockstep.
struct Pair {
    link: DuplexLink,
    injector: FaultInjector,
    reference: Reference,
    now: SimTime,
}

impl Pair {
    fn new() -> Self {
        Pair {
            link: DuplexLink::new(1),
            injector: FaultInjector::new(),
            reference: Reference::default(),
            now: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, window: InjectionWindow) {
        let got = self.injector.schedule(window);
        assert_eq!(got, self.reference.schedule(window), "schedule {window:?}");
        self.assert_same();
    }

    fn schedule_trace(&mut self, trace: &TraceSchedule) {
        let got = self.injector.schedule_trace(trace);
        assert_eq!(got, self.reference.schedule_trace(trace), "schedule_trace");
        self.assert_same();
    }

    /// Advances both, comparing the active window and the log's newest
    /// entries (the whole state is compared by [`assert_same`]).
    fn advance_to(&mut self, now: SimTime) {
        self.now = now;
        self.injector.advance(&mut self.link, now);
        self.reference.advance(now);
        assert_eq!(
            self.injector.active_window(),
            self.reference.active.map(|i| &self.reference.windows[i]),
            "active window at {now}"
        );
        let tail = |log: &[InjectionEvent]| log[log.len().saturating_sub(2)..].to_vec();
        assert_eq!(
            tail(self.injector.log()),
            tail(&self.reference.log),
            "log at {now}"
        );
    }

    fn assert_same(&self) {
        assert_eq!(self.injector.windows(), &self.reference.windows[..]);
        assert_eq!(
            self.injector.active_window(),
            self.reference.active.map(|i| &self.reference.windows[i])
        );
        assert_eq!(self.injector.log(), &self.reference.log[..]);
    }

    /// Steps in `step_ms` until every scheduled window has ended, then
    /// compares everything.
    fn run_out(&mut self, step_ms: u64) {
        let last_end = self
            .reference
            .windows
            .iter()
            .map(InjectionWindow::end)
            .max()
            .unwrap_or(SimTime::ZERO);
        while self.now <= last_end {
            self.advance_to(self.now + SimDuration::from_millis(step_ms));
        }
        self.assert_same();
    }
}

fn delay(ms: f64) -> NetemConfig {
    NetemConfig::default().with_delay(Millis::new(ms))
}

fn window(start_ms: u64, duration_ms: u64, config: NetemConfig) -> InjectionWindow {
    InjectionWindow::new(
        SimTime::from_millis(start_ms),
        SimDuration::from_millis(duration_ms),
        config,
    )
}

/// SplitMix64, so the generated traces depend on nothing else.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next()
    }
}

/// A 900 s, 1 Hz trace shaped like a measured 5G link: delay and rate
/// random walks, loss in about 30% of the seconds, and a 6–10 s choke
/// about once a minute. Nearly every sample differs from the one before,
/// so it compiles to about 900 back-to-back windows.
fn link_replay_trace(seed: u64) -> TraceSchedule {
    let mut rng = Mix(seed);
    let mut text = String::new();
    let (mut delay, mut rate) = (30.0, 16_000.0);
    let (mut next_choke, mut choke_until) = (rng.range(18.0, 60.0), -1.0);
    for t in 0..900 {
        let t = f64::from(t);
        delay = (delay + rng.range(-1.5, 1.5)).clamp(26.0, 36.0);
        rate = (rate + rng.range(-2_000.0, 2_000.0)).clamp(9_000.0, 23_000.0);
        if t >= next_choke {
            choke_until = t + rng.range(6.0, 10.0);
            next_choke = t + rng.range(48.0, 72.0);
        }
        let r = if t < choke_until { 2_000.0 } else { rate };
        let jitter = rng.range(2.5, 6.0);
        let _ = write!(
            text,
            "{{\"t\": {t:.1}, \"delay_ms\": {delay:.1}, \"jitter_ms\": {jitter:.1}"
        );
        if rng.next() < 0.3 {
            let _ = write!(text, ", \"loss_pct\": {:.2}", rng.range(0.1, 0.9));
        }
        let _ = writeln!(text, ", \"rate_kbit\": {r:.0}}}");
    }
    TraceSchedule::parse("link", &text).expect("generated traces parse")
}

#[test]
fn a_link_replay_trace_replays_as_before() {
    let trace = link_replay_trace(7);
    assert!(trace.windows().len() > 800, "{}", trace.windows().len());
    let mut pair = Pair::new();
    pair.schedule_trace(&trace);
    // The session's 20 ms clock, past the trace's end.
    pair.run_out(20);
    assert_eq!(pair.injector.log().len(), 2 * trace.windows().len());
}

#[test]
fn a_trace_beside_scheduled_windows_schedules_as_before() {
    let trace = link_replay_trace(11);
    let end = trace.end().as_micros() / 1_000;
    // In a gap of the schedule: windows before and after the trace,
    // touching its ends, and a zero-length one at each end.
    let mut pair = Pair::new();
    pair.schedule(window(end, 5_000, delay(50.0)));
    pair.schedule(window(end, 0, delay(25.0)));
    pair.schedule(window(0, 0, delay(5.0)));
    pair.schedule_trace(&trace);
    pair.run_out(20);
    // Overlapping: the same conflict, and the same windows left
    // scheduled before it.
    let mut pair = Pair::new();
    pair.schedule(window(400_500, 2_000, delay(50.0)));
    pair.schedule_trace(&trace);
    // Replayed twice: the second replay conflicts at its first window.
    let mut pair = Pair::new();
    pair.schedule_trace(&trace);
    pair.schedule_trace(&trace);
}

/// JSONL for a short trace starting at `start_ds` deciseconds: one
/// sample per `spacing_ds`, conditions cycling through a pattern drawn
/// from `pattern`'s bits, where a 0 is a clean (passthrough) gap and
/// repeated conditions merge.
fn short_trace(start_ds: u64, samples: u64, spacing_ds: u64, pattern: u64) -> String {
    let mut text = String::new();
    for k in 0..samples {
        let t = (start_ds + k * spacing_ds) as f64 / 10.0;
        match (pattern >> (2 * (k % 16))) & 3 {
            0 => {
                let _ = writeln!(text, "{{\"t\": {t:.1}}}");
            }
            level => {
                let _ = writeln!(text, "{{\"t\": {t:.1}, \"delay_ms\": {}}}", 10 * level);
            }
        }
    }
    text
}

proptest! {
    #[test]
    fn random_schedules_inject_as_before(
        ops in proptest::collection::vec(
            (0u8..9, 0u64..600, 0u64..80, 0u64..1_000_000, 1u64..1_500),
            1..60,
        ),
    ) {
        let mut pair = Pair::new();
        for (op, start_ds, len_ds, bits, step_ms) in ops {
            match op {
                // A window, possibly of zero length, possibly in the past.
                0..=2 => {
                    let config = delay(5.0 * f64::from(op + 1));
                    pair.schedule(window(start_ds * 100, len_ds * 100, config));
                }
                // A trace: back to back, with clean gaps, or merged runs.
                3 | 4 => {
                    let samples = 1 + len_ds % 12;
                    let spacing = 1 + bits % 30;
                    let text = short_trace(start_ds, samples, spacing, bits);
                    let trace = TraceSchedule::parse("short", &text).expect("valid trace");
                    pair.schedule_trace(&trace);
                }
                // The clock moves forward, sometimes across several windows.
                _ => {
                    let now = pair.now + SimDuration::from_millis(step_ms * u64::from(op - 4));
                    pair.advance_to(now);
                }
            }
        }
        pair.run_out(300);
    }
}

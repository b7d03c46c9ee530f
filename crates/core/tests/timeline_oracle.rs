//! Oracle tests for the per-window safety timeline.
//!
//! The timeline is a *decomposition* of signals the session already
//! measures, so it must reconcile exactly with the whole-run telemetry:
//! the per-window frame/command age counts and sums partition the
//! `session.frame_age_us` / `session.command_age_us` histogram totals,
//! and within every window the four latency legs (encode, queue,
//! propagation, display) sum back to the recorded frame age — all in
//! integer microseconds, so "exactly" means `==`, not a tolerance.

use rdsim_core::{Digestible, RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::{InjectionWindow, NetemConfig};
use rdsim_obs::{Registry, RunTelemetry, Timeline};
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, Millis, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

const STEPS: u64 = 900;

/// Every qdisc branch live at once, so all four legs are exercised.
fn stress_config() -> NetemConfig {
    NetemConfig::default()
        .with_jittered_delay(Millis::new(60.0), Millis::new(20.0), Ratio::new(0.25))
        .with_loss(Ratio::new(0.02))
        .with_duplicate(Ratio::new(0.05))
        .with_corrupt(Ratio::new(0.05))
        .with_reorder(Ratio::new(0.05), 3)
        .with_rate(40_000_000)
}

fn run() -> (Timeline, RunTelemetry) {
    let seed = 4_242;
    let mut world = World::new(town05());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let registry = Registry::new();
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        recorder: registry.recorder(),
        timeline: true,
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(3),
        SimDuration::from_secs(8),
        stress_config(),
    ))
    .expect("one window");
    s.preallocate(SimDuration::from_secs(20));
    let mut operator = ScriptedOperator::constant(ControlInput::new(0.3, 0.05, 0.0));
    for _ in 0..STEPS {
        s.step(&mut operator);
    }
    (s.take_timeline(), registry.snapshot())
}

#[test]
fn window_sums_reconcile_with_run_totals() {
    let (tl, t) = run();
    assert!(!tl.is_empty(), "timeline was enabled");

    // Frame ages: the windows partition the whole-run histogram exactly.
    let fa = t.histogram("session.frame_age_us").expect("frame ages");
    let count: u64 = tl.windows().iter().map(|w| w.frame_count).sum();
    let sum: u128 = tl
        .windows()
        .iter()
        .map(|w| u128::from(w.frame_age_sum_us))
        .sum();
    assert!(count > 0, "frames were delivered");
    assert_eq!(count, fa.count, "per-window frame counts partition the run");
    assert_eq!(sum, fa.sum, "per-window frame age sums partition the run");
    let max = tl.windows().iter().map(|w| w.frame_age_max_us).max();
    assert_eq!(max, Some(fa.max), "the worst window holds the run maximum");

    // Command ages: same reconciliation.
    let ca = t.histogram("session.command_age_us").expect("command ages");
    let count: u64 = tl.windows().iter().map(|w| w.cmd_count).sum();
    let sum: u128 = tl
        .windows()
        .iter()
        .map(|w| u128::from(w.cmd_age_sum_us))
        .sum();
    assert!(count > 0, "commands were actuated");
    assert_eq!(count, ca.count);
    assert_eq!(sum, ca.sum);

    // The per-leg decomposition is exact within every window.
    let mut delayed_legs = false;
    for w in tl.windows() {
        assert_eq!(
            w.encode_sum_us + w.queue_sum_us + w.prop_sum_us + w.display_sum_us,
            w.frame_age_sum_us,
            "legs must sum to the glass-to-glass age"
        );
        assert!(w.frame_age_max_us <= fa.max);
        delayed_legs |= w.queue_sum_us + w.prop_sum_us > 0;
    }
    assert!(
        delayed_legs,
        "the fault window put time on the network legs"
    );

    // The fault window shows up in the bitmask, and quiet time does not.
    let faulted = tl.windows().iter().filter(|w| w.fault_bits != 0).count();
    assert!(faulted >= 8, "the 8 s injection spans at least 8 windows");
    assert!(
        tl.windows().iter().any(|w| w.fault_bits == 0),
        "pre/post-fault windows are clean"
    );
}

#[test]
fn timeline_is_deterministic() {
    let (a, ta) = run();
    let (b, tb) = run();
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(
        ta.histogram("session.frame_age_us").map(|h| h.count),
        tb.histogram("session.frame_age_us").map(|h| h.count)
    );
}

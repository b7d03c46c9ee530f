//! Steady-state allocation gate for the session datapath.
//!
//! Run with the counting allocator enabled:
//!
//! ```text
//! cargo test -p rdsim-core --features alloc-count --test alloc_regression
//! ```
//!
//! Installs [`rdsim_obs::CountingAlloc`] as the global allocator, warms a
//! full remote-driving session (pools, step buffers, run log, trace ring, the
//! netem queues, one complete fault window plus the opening edge of a
//! second), then asserts the steady-state step —
//! capture → encode → uplink → display → operator → downlink → actuate,
//! with delay/loss/duplicate/corrupt/reorder faults live — performs
//! **zero** heap allocations per step — with the null recorder and with a
//! live one timing every stage and codec call.
#![cfg(feature = "alloc-count")]

use rdsim_core::{RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::{InjectionWindow, NetemConfig};
use rdsim_obs::{alloc_counts, Recorder, Registry};
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, Millis, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

#[global_allocator]
static ALLOC: rdsim_obs::CountingAlloc = rdsim_obs::CountingAlloc;

const WARMUP_STEPS: u64 = 350;
const MEASURE_STEPS: u64 = 650;

/// Every qdisc branch in one config.
fn stress_config() -> NetemConfig {
    NetemConfig::default()
        .with_jittered_delay(Millis::new(60.0), Millis::new(20.0), Ratio::new(0.25))
        .with_loss(Ratio::new(0.02))
        .with_duplicate(Ratio::new(0.05))
        .with_corrupt(Ratio::new(0.05))
        .with_reorder(Ratio::new(0.05), 3)
        .with_rate(40_000_000)
}

fn session(recorder: Recorder) -> RdsSession {
    let seed = 7_777;
    let mut world = World::new(town05());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        // The timeline layer must hold the zero-allocation bar too: its
        // windows come from `preallocate`, never from the step path.
        timeline: true,
        recorder,
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(2),
        SimDuration::from_secs(2),
        stress_config(),
    ))
    .expect("non-overlapping windows");
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(6),
        SimDuration::from_secs(54),
        stress_config(),
    ))
    .expect("non-overlapping windows");
    s.preallocate(SimDuration::from_secs(20));
    s
}

/// The session step's ten stage histograms.
const STAGE_SPANS: [&str; 10] = [
    "session.stage.fault_window_ns",
    "session.stage.vehicle_ns",
    "session.stage.capture_ns",
    "session.stage.uplink_ns",
    "session.stage.display_ns",
    "session.stage.operator_ns",
    "session.stage.downlink_ns",
    "session.stage.actuate_ns",
    "session.stage.safety_ns",
    "session.stage.logging_ns",
];

/// Both recorder cases run in this one test, one after the other: the
/// allocator counters are process-wide, so a second test running on
/// another harness thread would count into this one's measurement.
#[test]
fn steady_state_step_allocates_nothing() {
    assert_steady_state_allocates_nothing(session(Recorder::null()));

    // A live recorder resolves its stage and codec histograms when the
    // session is built, so timing adds no allocation.
    let registry = Registry::new();
    assert_steady_state_allocates_nothing(session(registry.recorder()));
    let telemetry = registry.snapshot();
    let steps = WARMUP_STEPS + MEASURE_STEPS;
    for name in STAGE_SPANS {
        let timed = telemetry.histogram(name).map(|h| h.count);
        assert_eq!(timed, Some(steps), "{name}");
    }
}

fn assert_steady_state_allocates_nothing(mut s: RdsSession) {
    let mut operator = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    for _ in 0..WARMUP_STEPS {
        s.step(&mut operator);
    }

    let start = alloc_counts();
    for _ in 0..MEASURE_STEPS {
        s.step(&mut operator);
    }
    let spent = alloc_counts().since(start);

    // Surface the measurement through the telemetry layer.
    let registry = Registry::new();
    let recorder = registry.recorder();
    recorder
        .gauge("session.allocs_per_step")
        .set(spent.allocs as f64 / MEASURE_STEPS as f64);
    recorder
        .gauge("session.alloc_bytes_per_step")
        .set(spent.bytes as f64 / MEASURE_STEPS as f64);

    assert_eq!(
        spent.allocs, 0,
        "steady-state datapath allocated {} times ({} B) over {MEASURE_STEPS} steps",
        spent.allocs, spent.bytes
    );

    // The session still works after the measured window (sanity).
    let log = s.into_log();
    assert!(!log.ego_samples().is_empty());
}

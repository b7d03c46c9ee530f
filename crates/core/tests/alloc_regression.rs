//! Steady-state allocation gate for the session datapath.
//!
//! Run with the counting allocator enabled:
//!
//! ```text
//! cargo test -p rdsim-core --features alloc-count --test alloc_regression
//! ```
//!
//! Installs [`rdsim_obs::CountingAlloc`] as the global allocator, warms a
//! full remote-driving session (pools, scratch, run log, trace ring, the
//! netem queues, one complete fault window plus the opening edge of a
//! second), then asserts the steady-state step —
//! capture → encode → uplink → display → operator → downlink → actuate,
//! with delay/loss/duplicate/corrupt/reorder faults live — performs
//! **zero** heap allocations per step — with the null recorder and with a
//! live one timing every stage and codec call. The per-stage breakdown
//! (the same wrapper for every pipeline stage) localises any regression
//! to the stage that caused it.
#![cfg(feature = "alloc-count")]

use rdsim_core::{RdsSession, RdsSessionConfig, ScriptedOperator, Stage, StageContext};
use rdsim_netem::{InjectionWindow, NetemConfig};
use rdsim_obs::{alloc_counts, Recorder, Registry};
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, Millis, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    let mut world = World::new(town05(), seed);
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

/// Wraps a pipeline stage, accumulating the allocator events its
/// `advance` performs — the breakdown that names the offending stage
/// when the zero-allocation gate trips.
#[derive(Debug)]
struct CountingStage {
    inner: Box<dyn Stage>,
    allocs: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl Stage for CountingStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn span_name(&self) -> &'static str {
        self.inner.span_name()
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let before = alloc_counts();
        self.inner.advance(ctx);
        let spent = alloc_counts().since(before);
        self.allocs.fetch_add(spent.allocs, Ordering::Relaxed);
        self.bytes.fetch_add(spent.bytes, Ordering::Relaxed);
    }
}

/// Both recorder cases run in this one test, one after the other: the
/// allocator counters are process-wide, so a second test running on
/// another harness thread would count into this one's measurement.
#[test]
fn steady_state_step_allocates_nothing() {
    assert_steady_state_allocates_nothing(session(Recorder::null()));

    // A live recorder resolves its stage and codec histograms when the
    // session (or a replaced stage) is built, so timing adds no
    // allocation.
    let registry = Registry::new();
    assert_steady_state_allocates_nothing(session(registry.recorder()));
    let telemetry = registry.snapshot();
    let steps = WARMUP_STEPS + MEASURE_STEPS;
    for stage in RdsSession::default_stages() {
        let timed = telemetry.histogram(stage.span_name()).map(|h| h.count);
        assert_eq!(timed, Some(steps), "{}", stage.span_name());
    }
}

fn assert_steady_state_allocates_nothing(mut s: RdsSession) {
    // Shadow every stage with a counting wrapper (same order, same
    // behaviour — the wrapper only reads the allocator counters).
    let mut meters: Vec<(&'static str, Arc<AtomicU64>, Arc<AtomicU64>)> = Vec::new();
    for stage in RdsSession::default_stages() {
        let allocs = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let name = stage.name();
        assert!(s.replace_stage(
            name,
            Box::new(CountingStage {
                inner: stage,
                allocs: allocs.clone(),
                bytes: bytes.clone(),
            }),
        ));
        meters.push((name, allocs, bytes));
    }

    let mut operator = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    for _ in 0..WARMUP_STEPS {
        s.step(&mut operator);
    }

    for (_, allocs, bytes) in &meters {
        allocs.store(0, Ordering::Relaxed);
        bytes.store(0, Ordering::Relaxed);
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

    let breakdown: Vec<String> = meters
        .iter()
        .map(|(name, allocs, bytes)| {
            format!(
                "{name}: {} allocs / {} B",
                allocs.load(Ordering::Relaxed),
                bytes.load(Ordering::Relaxed)
            )
        })
        .collect();
    assert_eq!(
        spent.allocs,
        0,
        "steady-state datapath allocated {} times ({} B) over {MEASURE_STEPS} steps;\n  {}",
        spent.allocs,
        spent.bytes,
        breakdown.join("\n  ")
    );

    // The session still works after the measured window (sanity).
    let log = s.into_log();
    assert!(!log.ego_samples().is_empty());
}

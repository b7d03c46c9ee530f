//! Trace-replay through a full session: dense measured-network edges
//! must replay identically whether or not a telemetry recorder watches
//! the run, and a rate-overloaded segment must surface *queue* drops
//! (congestion) separately from loss-model drops in both telemetry and
//! the timeline.

use rdsim_core::{Digestible, RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::TraceSchedule;
use rdsim_obs::{Registry, Timeline};
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

/// A dense synthetic measurement: a new sample every 100 ms for 4 s
/// (40 samples, dt = 20 ms → an edge lands every 5 ticks). Conditions
/// cycle so consecutive samples never merge, keeping the compiled edge
/// schedule as dense as the sample grid.
fn dense_trace() -> TraceSchedule {
    let mut text = String::new();
    for i in 0..40 {
        let t = i as f64 * 0.1;
        let line = match i % 4 {
            0 => format!("{{\"t\": {t}, \"delay_ms\": 30.0, \"jitter_ms\": 5.0}}\n"),
            1 => format!("{{\"t\": {t}, \"delay_ms\": 60.0, \"loss_pct\": 2.0}}\n"),
            2 => format!("{{\"t\": {t}}}\n"),
            _ => format!("{{\"t\": {t}, \"delay_ms\": 15.0, \"rate_kbit\": 2000}}\n"),
        };
        text.push_str(&line);
    }
    TraceSchedule::parse("dense", &text).unwrap()
}

fn session(seed: u64, trace: &TraceSchedule, registry: Option<&Registry>) -> RdsSession {
    let mut world = World::new(town05());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let mut config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        ..RdsSessionConfig::default()
    };
    if let Some(registry) = registry {
        config.recorder = registry.recorder();
    }
    let mut s = RdsSession::new(world, config, seed);
    s.schedule_trace(trace).unwrap();
    s
}

fn operator(seed: u64) -> ScriptedOperator {
    ScriptedOperator::constant(ControlInput::new(0.2 + (seed % 5) as f64 * 0.1, 0.0, 0.0))
}

const STEPS: u64 = 300; // 6 s: past the trace end, so both edge kinds retire.

/// Config edges arriving every few ticks instead of twice a run must not
/// let the recorder leak into behaviour: stepping with a live recorder
/// (per-stage spans, counters, fault events) reproduces the null-recorder
/// run-log digests bit for bit.
#[test]
fn dense_trace_edges_replay_identically_with_and_without_a_recorder() {
    let trace = dense_trace();
    assert!(trace.edges() >= 60, "the schedule really is dense");

    let run = |seed: u64, registry: Option<&Registry>| {
        let mut s = session(seed, &trace, registry);
        let mut op = operator(seed);
        for _ in 0..STEPS {
            s.step(&mut op);
        }
        s.into_log().digest()
    };
    let seeds = [11_u64, 12, 13, 14, 15, 16];
    let plain: Vec<u64> = seeds.iter().map(|&seed| run(seed, None)).collect();
    let registry = Registry::new();
    let recorded: Vec<u64> = seeds
        .iter()
        .map(|&seed| run(seed, Some(&registry)))
        .collect();
    assert_eq!(plain, recorded);
    assert!(plain.windows(2).any(|w| w[0] != w[1]), "seeds diverge");
    assert_eq!(
        registry.snapshot().counter("session.steps"),
        seeds.len() as u64 * STEPS
    );
}

/// Every trace edge the injector replays is logged, so the run log (and
/// through it the digest) pins the trace *content*, not just its label.
#[test]
fn trace_edges_are_logged_as_fault_events() {
    let trace = dense_trace();
    let mut s = session(21, &trace, None);
    let mut op = operator(21);
    for _ in 0..STEPS {
        s.step(&mut op);
    }
    let log = s.into_log();
    assert_eq!(log.fault_events().len(), trace.edges());
    assert_eq!(log.fault_events()[0].time, SimTime::ZERO);
}

/// A trace segment whose rate is far below the video bitrate: the
/// BDP-sized queue fills and tail-drops. Those congestion drops must be
/// visible in telemetry and the timeline as `queue_dropped`, disjoint
/// from the loss-model `dropped` ledger (zero here — the trace carries
/// no loss).
#[test]
fn overload_surfaces_queue_drops_distinct_from_loss() {
    // 25 Hz × 2000 B = 400 kbit/s of video into a 100 kbit/s segment:
    // 4× oversubscribed, 16-packet BDP-floor queue ⇒ steady tail-drop.
    let text = "{\"t\": 0.0, \"delay_ms\": 20.0, \"rate_kbit\": 100}\n\
                {\"t\": 10.0, \"delay_ms\": 20.0, \"rate_kbit\": 100}\n";
    let trace = TraceSchedule::parse("choke", text).unwrap();

    let seed = 33;
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
    s.schedule_trace(&trace).unwrap();
    let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(12));

    let tl = s.take_timeline();
    drop(s);
    let t = registry.snapshot();

    let queue_dropped = t.counter("netem.uplink.queue_dropped");
    assert!(queue_dropped > 50, "sustained overload: {queue_dropped}");
    assert_eq!(
        t.counter("netem.uplink.dropped"),
        0,
        "no loss model, so the loss ledger stays empty"
    );

    let tl_queue: u64 = tl.windows().iter().map(|w| w.up_queue_dropped).sum();
    let tl_loss: u64 = tl.windows().iter().map(|w| w.up_dropped).sum();
    assert_eq!(tl_queue, queue_dropped, "timeline partitions the counter");
    assert_eq!(tl_loss, 0);

    // The windows carrying queue drops flag the finite-limit fault bit.
    let flagged = tl
        .windows()
        .iter()
        .filter(|w| w.up_queue_dropped > 0)
        .all(|w| w.fault_bits & Timeline::FAULT_LIMIT != 0);
    assert!(flagged, "queue drops only happen under a finite limit");
}

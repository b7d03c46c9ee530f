//! Session-pipeline micro-bench: serial steps/sec on the plain datapath
//! and on the finite-queue datapath.
//!
//! Not a criterion bench — a custom harness that steps the same 32
//! scripted-operator sessions to completion one after another through
//! `RdsSession::step`, once with plain fault windows and once with every
//! fault window carrying a rate limit. The two variants are sampled in
//! interleaved pairs (alternating which goes first) so slow drift on the
//! host lands on both alike; each variant's median, min and max wall time
//! is recorded in `BENCH_session.json` at the workspace root, next to
//! `available_parallelism`. Every sample must reproduce its variant's
//! reference run-log digests bit for bit.
//!
//! The scenario is an empty map with no NPC traffic, so the numbers
//! measure the stage pipeline, not the paper's workload (that is what
//! `rdbench` measures).

use rdsim_bench::report::{Group, Report};
use rdsim_core::{Digestible, PaperFault, RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::InjectionWindow;
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};
use std::time::Instant;

/// Interleaved (plain, rate-limited) sample pairs.
const PAIRS: usize = 9;
/// Sessions stepped per sample.
const SESSIONS: usize = 32;
/// Steps per session (20 s of sim time at 50 Hz).
const STEPS: u64 = 1_000;
/// In-bench gate for the finite-queue datapath: with every fault window
/// carrying a rate limit — so the BDP-sized queue, its tail-drop
/// accounting and the serialization clock are live for the whole window
/// — the median sample may take at most this factor of the plain median.
/// The limit check itself is one branch per enqueue; the headroom is for
/// the rate path it enables.
const MAX_QUEUE_OVERHEAD: f64 = 1.4;
/// Rate attached to the fault windows of the rate-limited variant:
/// 1 Mbit/s against 400 kbit/s of video oversubscribes nothing, but
/// keeps the serialization clock and finite-limit check on every packet.
const QUEUE_SWEEP_RATE: u64 = 1_000_000;

fn session(i: usize, rate_limited: bool) -> RdsSession {
    let seed = 1_000 + i as u64;
    let mut world = World::new(town05(), seed);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    // Exercise the netem stages: a real fault window mid-run.
    let mut fault = PaperFault::ALL[i % PaperFault::ALL.len()].config();
    if rate_limited {
        fault = fault.with_rate(QUEUE_SWEEP_RATE);
    }
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(5),
        SimDuration::from_secs(5),
        fault,
    ))
    .expect("non-overlapping");
    s
}

fn operator(i: usize) -> ScriptedOperator {
    ScriptedOperator::constant(ControlInput::new(0.25 + (i % 4) as f64 * 0.05, 0.0, 0.0))
}

/// Steps all `SESSIONS` sessions to completion one at a time; returns
/// (wall secs, per-session run-log digests).
fn run(rate_limited: bool) -> (f64, Vec<u64>) {
    let start = Instant::now();
    let mut digests = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut s = session(i, rate_limited);
        let mut op = operator(i);
        for _ in 0..STEPS {
            s.step(&mut op);
        }
        digests.push(s.into_log().digest());
    }
    (start.elapsed().as_secs_f64(), digests)
}

/// One variant's wall-time samples, digest-checked against its reference.
struct Variant {
    rate_limited: bool,
    reference: Vec<u64>,
    secs: Vec<f64>,
}

impl Variant {
    /// Runs once untimed for the reference digests (and warm-up).
    fn new(rate_limited: bool) -> Self {
        Variant {
            rate_limited,
            reference: run(rate_limited).1,
            secs: Vec::with_capacity(PAIRS),
        }
    }

    fn sample(&mut self) {
        let (secs, digests) = run(self.rate_limited);
        assert_eq!(
            digests, self.reference,
            "digest drift (rate_limited = {}) — serial stepping is not deterministic",
            self.rate_limited
        );
        self.secs.push(secs);
    }

    /// (median, min, max) wall seconds.
    fn stats(&self) -> (f64, f64, f64) {
        let mut sorted = self.secs.clone();
        sorted.sort_by(f64::total_cmp);
        let last = sorted.len() - 1;
        (sorted[sorted.len() / 2], sorted[0], sorted[last])
    }
}

/// Steps/sec of one sample taking `secs`.
fn rate(secs: f64) -> f64 {
    (SESSIONS as u64 * STEPS) as f64 / secs
}

/// A variant's median, min and max wall seconds and its median steps/sec.
fn variant_group((median, min, max): (f64, f64, f64)) -> Group {
    Group::new()
        .float("median_secs", median, 6)
        .float("min_secs", min, 6)
        .float("max_secs", max, 6)
        .float("steps_per_sec", rate(median), 0)
}

fn main() {
    let _ = std::env::args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut plain = Variant::new(false);
    let mut limited = Variant::new(true);
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            plain.sample();
            limited.sample();
        } else {
            limited.sample();
            plain.sample();
        }
    }
    let plain_stats = plain.stats();
    let limited_stats = limited.stats();
    let queue_overhead = limited_stats.0 / plain_stats.0;

    println!(
        "== session pipeline ({SESSIONS} sessions × {STEPS} steps, {PAIRS} interleaved pairs, \
         {cores} core(s)) =="
    );
    for (name, (median, min, max)) in [("plain", plain_stats), ("rate-limited", limited_stats)] {
        println!(
            "{name}: median {median:.3} s ({:.0} steps/sec), min {min:.3} s, max {max:.3} s",
            rate(median)
        );
    }
    println!("queue overhead: {queue_overhead:.2}× plain (gate: {MAX_QUEUE_OVERHEAD}×)");
    assert!(
        queue_overhead <= MAX_QUEUE_OVERHEAD,
        "finite-queue regression: rate-limited stepping took {queue_overhead:.2}× the plain \
         median (gate: {MAX_QUEUE_OVERHEAD}×)"
    );

    let mut report = Report::new("session");
    report
        .uint("sessions", SESSIONS as u64)
        .uint("steps_per_session", STEPS)
        .uint("pairs", PAIRS as u64)
        .uint("available_parallelism", cores as u64)
        .group("plain", variant_group(plain_stats))
        .group("rate_limited", variant_group(limited_stats))
        .float("queue_overhead", queue_overhead, 3)
        .bool("queue_overhead_ok", queue_overhead <= MAX_QUEUE_OVERHEAD)
        .bool("digest_match", true);
    report.write("session");
}

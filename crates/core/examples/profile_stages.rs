//! Per-stage cost profile: steps one session 5000 ticks with a live
//! recorder and prints every `session.stage.*_ns` histogram, sorted by
//! total time — the quickest way to see where a tick's budget goes
//! (this is how the `RoadNetwork::project` hotspot behind the AABB
//! pruning in `rdsim-roadnet` was found).
//!
//! ```text
//! cargo run --release -p rdsim-core --example profile_stages
//! ```

use rdsim_core::{RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::InjectionWindow;
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

fn main() {
    let registry = rdsim_obs::Registry::new();
    let seed = 1000u64;
    let mut world = World::new(town05());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        recorder: registry.recorder(),
        tracer: rdsim_obs::Tracer::null(),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(5),
        SimDuration::from_secs(5),
        rdsim_core::PaperFault::Delay25ms.config(),
    ))
    .unwrap();
    let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    for _ in 0..5_000 {
        s.step(&mut op);
    }
    let t = registry.snapshot();
    let mut rows: Vec<(String, u64, u128)> = t
        .histograms
        .iter()
        .filter(|(k, _)| k.ends_with("_ns"))
        .map(|(k, h)| (k.clone(), h.count, h.sum))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    let total: u128 = rows
        .iter()
        .filter(|(k, _, _)| k.starts_with("session.stage."))
        .map(|r| r.2)
        .sum();
    println!(
        "total staged ns over 5000 steps: {total} ({} ns/step)",
        total / 5000u128
    );
    for (k, c, sum) in rows {
        println!(
            "{k:40} count={c:7} sum={sum:12} ns  mean={:7} ns",
            sum / (c.max(1) as u128)
        );
    }
}

//! Safety-measure evaluation — the use the paper's methodology was built
//! for: "to investigate which safety measures are adequate … and to be
//! able to validate that the implemented measures actually perform as
//! expected, comprehensive testing is needed" (§I).
//!
//! Drives the vehicle-following scenario under severe network conditions,
//! with and without a vehicle-side safety stack, and compares outcomes.
//!
//! ```text
//! cargo run --release --example safety_measures
//! ```

use rdsim::core::safety::{CommandWatchdog, DegradedModeLimiter, SafeStop, SafetyStack};
use rdsim::core::{RdsSession, RdsSessionConfig};
use rdsim::netem::NetemConfig;
use rdsim::operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim::roadnet::town05;
use rdsim::simulator::{ActorKind, Behavior, World};
use rdsim::units::{MetersPerSecond, Ratio, SimDuration};
use rdsim::vehicle::VehicleSpec;

struct Outcome {
    collisions: u64,
    distance: f64,
    final_speed: f64,
    interventions: usize,
}

/// A harsh scenario: approaching a parked van at speed while the network
/// degrades badly mid-run.
fn run(fault: &str, with_stack: bool, seed: u64) -> Outcome {
    let net = town05();
    let lane = net.spawn_point("ego-start").expect("spawn").lane;
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    world.spawn_npc_at(
        "slalom-1",
        ActorKind::Vehicle,
        VehicleSpec::van(),
        Behavior::Stationary,
        MetersPerSecond::ZERO,
    );
    let mut session = RdsSession::new(world, RdsSessionConfig::default(), seed);
    if with_stack {
        session.set_safety_stack(
            SafetyStack::new()
                .push(Box::new(DegradedModeLimiter::new(
                    Ratio::from_percent(10.0),
                    MetersPerSecond::new(5.0),
                )))
                .push(Box::new(CommandWatchdog::new(SimDuration::from_millis(
                    300,
                ))))
                .push(Box::new(SafeStop::new(SimDuration::from_millis(1500)))),
        );
    }
    let mut driver = HumanDriverModel::new(&SubjectProfile::typical("safety"), net, seed);
    driver.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));

    // 10 s healthy, then the network turns hostile for 25 s.
    session.run(&mut driver, SimDuration::from_secs(10));
    session.inject_now(fault.parse::<NetemConfig>().expect("valid rule"));
    session.run(&mut driver, SimDuration::from_secs(25));

    let world = session.world();
    let ego = world.ego_id().expect("ego");
    let state = world.actor(ego).state();
    Outcome {
        collisions: world.collision_count(),
        distance: state.position().x - 20.0,
        final_speed: state.speed.get(),
        interventions: session
            .safety_stack()
            .map(|s| s.interventions().len())
            .unwrap_or(0),
    }
}

fn main() {
    println!("Approaching a parked van while the network degrades mid-run.\n");
    println!(
        "{:<26} {:<8} {:>10} {:>12} {:>12} {:>14}",
        "condition", "stack", "crashes", "distance", "final v", "interventions"
    );
    for fault in ["delay 250ms", "loss 60%", "loss 95%"] {
        for with_stack in [false, true] {
            let o = run(fault, with_stack, 77);
            println!(
                "{:<26} {:<8} {:>10} {:>9.0} m {:>9.1} m/s {:>14}",
                fault,
                if with_stack { "yes" } else { "no" },
                o.collisions,
                o.distance,
                o.final_speed,
                o.interventions
            );
        }
    }
    println!("\nThe stack trades availability for safety: degraded mode caps speed");
    println!("under loss, the watchdog neutralises stale commands, and safe-stop");
    println!("halts the vehicle when the command link dies entirely.");
}

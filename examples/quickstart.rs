//! Quickstart: drive a remotely operated car through an emulated network
//! fault and look at what the safety metrics say.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rdsim::core::{RdsSession, RdsSessionConfig};
use rdsim::metrics::{steering_reversal_rate, SrrConfig};
use rdsim::netem::NetemConfig;
use rdsim::operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim::roadnet::town05;
use rdsim::simulator::{ActorKind, Behavior, LaneFollowConfig, World};
use rdsim::units::{Meters, MetersPerSecond, SimDuration};
use rdsim::vehicle::VehicleSpec;

fn drive(fault: Option<NetemConfig>, seed: u64) -> (f64, u64, f64) {
    // A Town-5-like map with an ego car and a lead vehicle to follow.
    let net = town05();
    let lane = net.spawn_point("ego-start").expect("map has spawn").lane;
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    world.spawn_npc_at(
        "lead-start",
        ActorKind::Vehicle,
        VehicleSpec::passenger_car(),
        Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(9.0))),
        MetersPerSecond::new(9.0),
    );

    // The RDS session: vehicle ↔ emulated network ↔ operator.
    let mut session = RdsSession::new(world, RdsSessionConfig::default(), seed);
    if let Some(fault) = fault {
        session.inject_now(fault);
    }

    // A simulated human remote driver at the station.
    let mut driver = HumanDriverModel::new(&SubjectProfile::typical("demo"), net, seed);
    driver.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));

    session.run(&mut driver, SimDuration::from_secs(60));

    let lead_gap = session
        .world()
        .ego_lead_gap(Meters::new(150.0))
        .map(|(_, gap, _)| gap.get())
        .unwrap_or(f64::NAN);
    let collisions = session.world().collision_count();
    let log = session.into_log();
    let srr = steering_reversal_rate(&log.steering_series(), &SrrConfig::default())
        .map(|r| r.rate_per_min)
        .unwrap_or(0.0);
    (srr, collisions, lead_gap)
}

fn main() {
    println!("One minute of remote driving on the town05 ring, following a lead vehicle.\n");
    let conditions: [(&str, Option<NetemConfig>); 3] = [
        ("no fault", None),
        (
            "delay 50ms",
            Some("delay 50ms".parse().expect("valid rule")),
        ),
        ("loss 5%", Some("loss 5%".parse().expect("valid rule"))),
    ];
    println!(
        "{:<12} {:>18} {:>12} {:>14}",
        "condition", "SRR (rev/min)", "collisions", "lead gap (m)"
    );
    for (label, fault) in conditions {
        let (srr, collisions, gap) = drive(fault, 2024);
        println!("{label:<12} {srr:>18.1} {collisions:>12} {gap:>14.1}");
    }
    println!("\nHigher steering-reversal rates under network disturbance reproduce");
    println!("the paper's core observation (Table IV).");
}

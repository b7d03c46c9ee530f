//! Fault-injection lab: test any `tc netem`-style rule against the
//! vehicle-following scenario and print the safety metrics.
//!
//! ```text
//! cargo run --release --example fault_injection_lab -- "delay 100ms 20ms 25%"
//! cargo run --release --example fault_injection_lab -- "loss gemodel 2% 20% 80%"
//! cargo run --release --example fault_injection_lab -- "loss 5% rate 4mbit"
//! ```

use rdsim::core::{RdsSession, RdsSessionConfig};
use rdsim::metrics::{steering_reversal_rate, ttc_series, SrrConfig, TtcConfig, TtcStats};
use rdsim::netem::NetemConfig;
use rdsim::operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim::roadnet::town05;
use rdsim::simulator::{ActorKind, Behavior, LaneFollowConfig, World};
use rdsim::units::{MetersPerSecond, SimDuration};
use rdsim::vehicle::VehicleSpec;
use std::process::ExitCode;

fn main() -> ExitCode {
    let rule = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "loss 5%".to_owned());
    let fault: NetemConfig = match rule.parse() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("examples: \"delay 50ms\", \"loss 5%\", \"delay 25ms 5ms 25% loss 2%\"");
            return ExitCode::FAILURE;
        }
    };
    println!("rule: {fault}\n");

    let net = town05();
    let lane = net.spawn_point("ego-start").expect("spawn").lane;
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    world.spawn_npc_at(
        "lead-start",
        ActorKind::Vehicle,
        VehicleSpec::passenger_car(),
        Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(8.5))),
        MetersPerSecond::new(8.5),
    );
    let mut session = RdsSession::new(world, RdsSessionConfig::default(), 99);
    let mut driver = HumanDriverModel::new(&SubjectProfile::typical("lab"), net, 99);
    driver.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));

    // 30 s clean baseline, 60 s under the rule, 30 s recovery.
    session.run(&mut driver, SimDuration::from_secs(30));
    session.inject_now(fault);
    session.run(&mut driver, SimDuration::from_secs(60));
    session.clear_fault_now();
    session.run(&mut driver, SimDuration::from_secs(30));

    let stats = session.stats();
    println!("transport:");
    println!(
        "  frames   sent {:>6}  delivered {:>6}  corrupted {:>4}",
        stats.frames_sent, stats.frames_delivered, stats.frames_corrupted
    );
    println!(
        "  commands sent {:>6}  delivered {:>6}  corrupted {:>4}",
        stats.commands_sent, stats.commands_delivered, stats.commands_corrupted
    );

    let collisions = session.world().collision_count();
    let invasions = session.world().lane_invasion_count();
    let log = session.into_log();

    println!("\nsafety metrics over the whole run:");
    let ttc_cfg = TtcConfig::default();
    let series = ttc_series(&log, &ttc_cfg);
    match TtcStats::from_samples(&series, &ttc_cfg) {
        Some(t) => println!(
            "  TTC: max {:.1} s, avg {:.1} s, min {:.1} s ({} violations of the 6 s threshold)",
            t.max.get(),
            t.avg.get(),
            t.min.get(),
            t.violations
        ),
        None => println!("  TTC: no approaching-lead intervals observed"),
    }
    match steering_reversal_rate(&log.steering_series(), &SrrConfig::default()) {
        Some(srr) => println!("  SRR: {:.1} reversals/min", srr.rate_per_min),
        None => println!("  SRR: signal unusable"),
    }
    println!("  collisions: {collisions}, lane invasions: {invasions}");
    println!("  fault events logged: {}", log.fault_events().len());
    ExitCode::SUCCESS
}

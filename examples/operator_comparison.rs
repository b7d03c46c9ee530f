//! Operator comparison: how subject experience shapes resilience to
//! network disturbances — the correlation the paper's questionnaire was
//! designed to probe (§V.E, §VII).
//!
//! Each of the nine subject × fault cells is an independent session,
//! driven to completion with [`RdsSession::run`] before the next is built.
//!
//! ```text
//! cargo run --release --example operator_comparison
//! ```

use rdsim::core::{RdsSession, RdsSessionConfig};
use rdsim::metrics::{steering_reversal_rate, SrrConfig};
use rdsim::netem::NetemConfig;
use rdsim::operator::{
    Experience, Familiarity, Handedness, HumanDriverModel, Instruction, SubjectProfile,
};
use rdsim::roadnet::town05;
use rdsim::simulator::World;
use rdsim::units::{MetersPerSecond, SimDuration};
use rdsim::vehicle::VehicleSpec;

fn subject(
    name: &str,
    gaming: Experience,
    station: Familiarity,
    attentiveness: f64,
) -> SubjectProfile {
    SubjectProfile {
        id: name.to_owned(),
        gaming,
        racing_games: gaming != Experience::None,
        station,
        handedness: Handedness::RightTraffic,
        attentiveness,
    }
}

fn main() {
    let subjects = [
        subject(
            "expert  (recent gamer, station-familiar)",
            Experience::Recent,
            Familiarity::Few,
            0.85,
        ),
        subject(
            "typical (past gamer, first time)        ",
            Experience::Past,
            Familiarity::None,
            0.65,
        ),
        subject(
            "novice  (no gaming, first time)         ",
            Experience::None,
            Familiarity::None,
            0.45,
        ),
    ];
    let faults: [(&str, Option<NetemConfig>); 3] = [
        ("clean", None),
        ("50ms", Some("delay 50ms".parse().expect("rule"))),
        ("5%", Some("loss 5%".parse().expect("rule"))),
    ];

    // Drive every subject × fault cell for 90 s of lane driving.
    let net = town05();
    let lane = net.spawn_point("ego-start").expect("spawn").lane;
    let config = RdsSessionConfig::default();
    let mut results: Vec<(f64, f64)> = Vec::new();
    for profile in &subjects {
        for (i, (_, fault)) in faults.iter().enumerate() {
            let seed = 555 + i as u64;
            let mut world = World::new(net.clone(), seed);
            world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
            let mut session = RdsSession::new(world, config.clone(), seed);
            if let Some(f) = fault {
                session.inject_now(*f);
            }
            let mut driver = HumanDriverModel::new(profile, net.clone(), seed);
            driver.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));
            session.run(&mut driver, SimDuration::from_secs(90));

            let log = session.into_log();
            let srr = steering_reversal_rate(&log.steering_series(), &SrrConfig::default())
                .map(|r| r.rate_per_min)
                .unwrap_or(f64::NAN);
            let worst_lat = log
                .ego_samples()
                .iter()
                .filter(|s| s.speed.get() > 1.0)
                .filter_map(|s| net.project(s.position))
                .map(|p| p.lateral.get().abs())
                .fold(0.0f64, f64::max);
            results.push((srr, worst_lat));
        }
    }

    println!("90 s of lane driving; cells: SRR rev/min (worst lateral m)\n");
    print!("{:<44}", "subject");
    for (label, _) in &faults {
        print!(" {label:>16}");
    }
    println!();
    for (si, profile) in subjects.iter().enumerate() {
        print!("{:<44}", profile.id);
        for fi in 0..faults.len() {
            let (srr, lat) = results[si * faults.len() + fi];
            print!(" {:>9.1} ({:>3.1})", srr, lat);
        }
        println!();
    }
    println!("\nExperienced operators hold lower reversal rates under the same");
    println!("disturbance — the correlation §VII proposes using for remote-driver");
    println!("training and screening.");
}

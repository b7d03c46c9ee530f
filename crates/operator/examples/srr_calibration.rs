//! SRR calibration sweep: measures the steering-reversal rate of the
//! driver model across network conditions and reversal thresholds.
//! This is the tool used to pick the `SrrConfig::theta_min` default; see
//! DESIGN.md §4.2.

use rdsim_core::{RdsSession, RdsSessionConfig};
use rdsim_metrics::{steering_reversal_rate, SrrConfig};
use rdsim_netem::NetemConfig;
use rdsim_operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim_roadnet::town05;
use rdsim_simulator::World;
use rdsim_units::{Hertz, MetersPerSecond, Millis, Ratio, SimDuration};
use rdsim_vehicle::VehicleSpec;

fn steering(fault: Option<NetemConfig>, seed: u64) -> Vec<rdsim_math::Sample> {
    let net = town05();
    let lane = net.spawn_point("ego-start").unwrap().lane;
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let mut s = RdsSession::new(world, RdsSessionConfig::default(), seed);
    if let Some(f) = fault {
        s.inject_now(f);
    }
    let mut d = HumanDriverModel::new(&SubjectProfile::typical("cal"), net, seed);
    d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));
    s.run(&mut d, SimDuration::from_secs(120));
    s.into_log().steering_series()
}

fn main() {
    let conditions: Vec<(&str, Option<NetemConfig>)> = vec![
        ("clean   ", None),
        (
            "delay5  ",
            Some(NetemConfig::default().with_delay(Millis::new(5.0))),
        ),
        (
            "delay25 ",
            Some(NetemConfig::default().with_delay(Millis::new(25.0))),
        ),
        (
            "delay50 ",
            Some(NetemConfig::default().with_delay(Millis::new(50.0))),
        ),
        (
            "loss2   ",
            Some(NetemConfig::default().with_loss(Ratio::from_percent(2.0))),
        ),
        (
            "loss5   ",
            Some(NetemConfig::default().with_loss(Ratio::from_percent(5.0))),
        ),
    ];
    let thresholds = [0.005, 0.01, 0.02, 0.03, 0.05];
    print!("{:>9}", "cond");
    for th in thresholds {
        print!(" th={:>5}", th);
    }
    println!();
    for (label, fault) in conditions {
        print!("{label:>9}");
        for th in thresholds {
            let mut rate = 0.0;
            for seed in [21, 22, 23] {
                let sig = steering(fault, seed);
                rate += steering_reversal_rate(
                    &sig,
                    &SrrConfig {
                        cutoff: Hertz::new(0.6),
                        theta_min: th,
                    },
                )
                .unwrap()
                .rate_per_min;
            }
            print!(" {:>8.1}", rate / 3.0);
        }
        println!();
    }
}

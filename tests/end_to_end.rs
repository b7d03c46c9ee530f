//! End-to-end integration: the full stack wired through the facade crate,
//! checking the causal chain the paper studies — network disturbance →
//! stale/jumpy operator perception → degraded control → safety metrics.

use rdsim::core::{OperatorSubsystem, RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim::metrics::{steering_reversal_rate, SrrConfig};
use rdsim::netem::{InjectionWindow, NetemConfig};
use rdsim::operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim::roadnet::town05;
use rdsim::simulator::{ActorKind, Behavior, CameraConfig, LaneFollowConfig, World};
use rdsim::units::{Hertz, MetersPerSecond, Ratio, SimDuration, SimTime};
use rdsim::vehicle::{ControlInput, VehicleSpec};

fn session_with(seed: u64, with_lead: bool) -> RdsSession {
    let net = town05();
    let mut world = World::new(net);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    if with_lead {
        world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(9.0))),
            MetersPerSecond::new(9.0),
        );
    }
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(27.0), 4_000),
        ..RdsSessionConfig::default()
    };
    RdsSession::new(world, config, seed)
}

fn driver(seed: u64) -> (HumanDriverModel, rdsim::roadnet::LaneId) {
    let net = town05();
    let lane = net.spawn_point("ego-start").expect("spawn").lane;
    let mut d = HumanDriverModel::new(&SubjectProfile::typical("e2e"), net, seed);
    d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));
    (d, lane)
}

#[test]
fn golden_run_is_clean_and_fully_logged() {
    let mut s = session_with(1, true);
    let (mut d, _) = driver(1);
    s.run(&mut d, SimDuration::from_secs(45));
    assert_eq!(s.world().collision_count(), 0);
    let stats = s.stats();
    assert_eq!(stats.frames_sent, stats.frames_delivered);
    assert_eq!(stats.commands_sent, stats.commands_delivered);
    let log = s.into_log();
    // §V.F schema fully populated.
    assert!(!log.ego_samples().is_empty());
    assert!(!log.other_samples().is_empty());
    assert!(log.has_lead_data());
    assert!(log.fault_events().is_empty());
    // Ego actually drove.
    assert!(log.ego_samples().last().unwrap().position.x > 100.0);
}

#[test]
fn bidirectional_fault_path_affects_both_streams() {
    // E10: both video (uplink) and commands (downlink) traverse the fault.
    let mut s = session_with(2, false);
    s.schedule_fault(InjectionWindow::new(
        SimTime::ZERO,
        SimDuration::from_secs(3600),
        NetemConfig::default().with_loss(Ratio::from_percent(30.0)),
    ))
    .expect("no overlap");
    let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(30));
    let stats = s.stats();
    assert!(
        stats.frames_delivered < stats.frames_sent,
        "uplink must lose frames"
    );
    assert!(
        stats.commands_delivered < stats.commands_sent,
        "downlink must lose commands"
    );
    // Loss rates statistically near 30 % on both directions.
    let up_loss = 1.0 - stats.frames_delivered as f64 / stats.frames_sent as f64;
    let down_loss = 1.0 - stats.commands_delivered as f64 / stats.commands_sent as f64;
    assert!((up_loss - 0.3).abs() < 0.08, "uplink loss {up_loss}");
    assert!((down_loss - 0.3).abs() < 0.08, "downlink loss {down_loss}");
}

#[test]
fn packet_loss_raises_steering_reversal_rate() {
    // The paper's core SRR finding, end to end, averaged over seeds.
    let srr_for = |fault: Option<NetemConfig>| -> f64 {
        let mut total = 0.0;
        for seed in [11, 12, 13] {
            let mut s = session_with(seed, false);
            if let Some(f) = fault {
                s.inject_now(f);
            }
            let (mut d, _) = driver(seed);
            s.run(&mut d, SimDuration::from_secs(45));
            let log = s.into_log();
            total += steering_reversal_rate(&log.steering_series(), &SrrConfig::default())
                .expect("usable signal")
                .rate_per_min;
        }
        total / 3.0
    };
    let clean = srr_for(None);
    let lossy = srr_for(Some(
        NetemConfig::default().with_loss(Ratio::from_percent(5.0)),
    ));
    assert!(
        lossy > clean * 1.15,
        "5 % loss should raise SRR: clean {clean:.1}, lossy {lossy:.1}"
    );
}

#[test]
fn large_delay_degrades_lateral_control() {
    // The lateral channel: stale percepts under-compensated by the
    // driver's internal model produce weave. 150 ms one-way delay sits
    // firmly in the paper's ">100 ms difficult" regime.
    let worst_lateral = |fault: Option<NetemConfig>| -> f64 {
        let mut worst: f64 = 0.0;
        for seed in [31, 32, 33] {
            let net = town05();
            let mut s = session_with(seed, false);
            if let Some(f) = fault {
                s.inject_now(f);
            }
            let (mut d, _) = driver(seed);
            // 45 s keeps the ego on the instructed avenue segment.
            s.run(&mut d, SimDuration::from_secs(45));
            let log = s.into_log();
            for sample in log.ego_samples() {
                if sample.speed.get() < 1.0 {
                    continue;
                }
                if let Some(p) = net.project(sample.position) {
                    worst = worst.max(p.lateral.get().abs());
                }
            }
        }
        worst
    };
    let clean = worst_lateral(None);
    let delayed = worst_lateral(Some(
        NetemConfig::default().with_delay(rdsim::units::Millis::new(150.0)),
    ));
    assert!(
        delayed > clean * 1.5,
        "150 ms delay must visibly degrade lane keeping: clean {clean:.2} m, delayed {delayed:.2} m"
    );
    assert!(clean < 1.8, "healthy loop stays in lane: {clean:.2} m");
}

#[test]
fn corruption_faults_are_contained_by_checksums() {
    let mut s = session_with(4, false);
    s.inject_now(NetemConfig::default().with_corrupt(Ratio::from_percent(20.0)));
    let (mut d, _) = driver(4);
    s.run(&mut d, SimDuration::from_secs(20));
    let stats = s.stats();
    assert!(stats.frames_corrupted > 0, "some frames must corrupt");
    // The plant never saw a mangled command: every applied command came
    // from the operator's clean sequence.
    let applied = s.server().active_command();
    assert!(applied.is_valid());
}

#[test]
fn operator_trait_objects_compose() {
    // Human and scripted operators are interchangeable mid-session.
    let mut s = session_with(5, false);
    let (mut human, _) = driver(5);
    let mut scripted = ScriptedOperator::constant(ControlInput::new(0.2, 0.0, 0.0));
    for i in 0..200 {
        let op: &mut dyn OperatorSubsystem = if i % 2 == 0 {
            &mut human
        } else {
            &mut scripted
        };
        s.step(op);
    }
    assert!(s.stats().commands_delivered > 0);
}

//! Integration tests for the vehicle-side safety measures: the extension
//! the paper's methodology is designed to evaluate.

use rdsim::core::safety::{CommandWatchdog, DegradedModeLimiter, SafeStop, SafetyStack};
use rdsim::core::{RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim::netem::{Direction, NetemConfig};
use rdsim::roadnet::town05;
use rdsim::simulator::World;
use rdsim::units::{MetersPerSecond, Ratio, SimDuration};
use rdsim::vehicle::{ControlInput, VehicleSpec};

fn session(seed: u64) -> RdsSession {
    let mut world = World::new(town05());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    RdsSession::new(world, RdsSessionConfig::default(), seed)
}

fn ego_speed(s: &RdsSession) -> f64 {
    let world = s.world();
    let ego = world.ego_id().expect("ego");
    world.actor(ego).state().speed.get()
}

#[test]
fn safe_stop_halts_vehicle_when_command_link_dies() {
    let mut s = session(1);
    s.set_safety_stack(
        SafetyStack::new().push(Box::new(SafeStop::new(SimDuration::from_millis(800)))),
    );
    let mut op = ScriptedOperator::constant(ControlInput::new(0.6, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(10));
    assert!(ego_speed(&s) > 8.0, "driving normally before the outage");

    // Kill the command link entirely (downlink only: video keeps flowing).
    s.inject_now_on(
        Direction::Downlink,
        NetemConfig::default().with_loss(Ratio::ONE),
    );
    s.run(&mut op, SimDuration::from_secs(15));
    assert!(
        ego_speed(&s) < 0.3,
        "safe stop must halt the vehicle, v = {}",
        ego_speed(&s)
    );
    let interventions = s.safety_stack().expect("stack").interventions();
    assert!(interventions.iter().any(|i| i.measure == "safe-stop"));

    // Link restored: the operator drives again (the latch releases).
    s.clear_fault_now();
    s.run(&mut op, SimDuration::from_secs(10));
    assert!(
        ego_speed(&s) > 5.0,
        "vehicle must be drivable again, v = {}",
        ego_speed(&s)
    );
}

#[test]
fn without_measures_the_vehicle_keeps_going_blind() {
    // The paper's configuration: no safety measures. A dead command link
    // leaves the last command applied for ever.
    let mut s = session(2);
    let mut op = ScriptedOperator::constant(ControlInput::new(0.6, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(10));
    s.inject_now_on(
        Direction::Downlink,
        NetemConfig::default().with_loss(Ratio::ONE),
    );
    s.run(&mut op, SimDuration::from_secs(10));
    assert!(
        ego_speed(&s) > 8.0,
        "without measures the stale throttle keeps driving: v = {}",
        ego_speed(&s)
    );
}

#[test]
fn degraded_mode_caps_speed_under_loss() {
    let mut s = session(3);
    s.set_safety_stack(SafetyStack::new().push(Box::new(DegradedModeLimiter::new(
        Ratio::from_percent(15.0),
        MetersPerSecond::new(5.0),
    ))));
    let mut op = ScriptedOperator::constant(ControlInput::new(0.8, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(10));
    assert!(ego_speed(&s) > 10.0, "full speed on a clean link");

    s.inject_now(NetemConfig::default().with_loss(Ratio::from_percent(50.0)));
    s.run(&mut op, SimDuration::from_secs(20));
    assert!(
        ego_speed(&s) < 6.5,
        "degraded mode must cap speed, v = {}",
        ego_speed(&s)
    );
    // QoS estimate reflects the loss.
    let qos = s.qos_estimate();
    assert!(
        qos.command_loss.get() > 0.25,
        "measured loss {}",
        qos.command_loss.get()
    );
}

#[test]
fn watchdog_neutralises_but_does_not_brake() {
    let mut s = session(4);
    s.set_safety_stack(SafetyStack::new().push(Box::new(CommandWatchdog::new(
        SimDuration::from_millis(400),
    ))));
    let mut op = ScriptedOperator::constant(ControlInput::new(0.6, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(10));
    let v_before = ego_speed(&s);
    s.inject_now_on(
        Direction::Downlink,
        NetemConfig::default().with_loss(Ratio::ONE),
    );
    s.run(&mut op, SimDuration::from_secs(6));
    let v_after = ego_speed(&s);
    // Coasting: slower than before, but not a hard stop.
    assert!(v_after < v_before, "{v_after} !< {v_before}");
    assert!(
        v_after > 0.5,
        "watchdog coasts rather than braking: {v_after}"
    );
}

#[test]
fn uplink_only_fault_spares_commands() {
    let mut s = session(5);
    let mut op = ScriptedOperator::constant(ControlInput::new(0.4, 0.0, 0.0));
    s.inject_now_on(
        Direction::Uplink,
        NetemConfig::default().with_loss(Ratio::from_percent(50.0)),
    );
    s.run(&mut op, SimDuration::from_secs(10));
    let stats = s.stats();
    assert!(
        stats.frames_delivered < stats.frames_sent * 7 / 10,
        "uplink lossy"
    );
    assert_eq!(
        stats.commands_delivered, stats.commands_sent,
        "downlink untouched"
    );
    // The injection log records the direction.
    let log = s.into_log();
    assert_eq!(log.fault_events()[0].direction, Direction::Uplink);
}

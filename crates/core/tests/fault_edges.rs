//! Edge-transition coverage for fault windows driven through a session:
//! open/close exactly on tick boundaries, zero-length windows, and
//! overlap handling for delay + loss rules.

use rdsim_core::{PaperFault, RdsSession, RdsSessionConfig, ScriptedOperator};
use rdsim_netem::{InjectionWindow, NetemConfig};
use rdsim_roadnet::town05;
use rdsim_simulator::{CameraConfig, World};
use rdsim_units::{Hertz, Millis, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

fn session(seed: u64) -> RdsSession {
    let mut world = World::new(town05());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        ..RdsSessionConfig::default()
    };
    RdsSession::new(world, config, seed)
}

#[test]
fn window_edges_land_exactly_on_tick_boundaries() {
    // dt = 20 ms; the window's start and end both coincide with a tick's
    // pre-step clock, so the injector must transition at exactly those
    // times — not one tick early or late.
    let mut s = session(1);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
        PaperFault::Delay50ms.config(),
    ))
    .unwrap();
    let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(5));

    // Both edges surfaced as incident marks at the boundary times.
    let incidents = s.incidents().to_vec();
    assert_eq!(incidents.len(), 2, "open + close edges");
    assert_eq!(incidents[0].time, SimTime::from_secs(1));
    assert_eq!(incidents[1].time, SimTime::from_secs(3));

    let log = s.into_log();
    let events = log.fault_events();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].time, SimTime::from_secs(1), "opens on its tick");
    assert_eq!(events[1].time, SimTime::from_secs(3), "closes on its tick");
}

#[test]
fn off_grid_window_end_closes_on_next_tick_boundary() {
    // A window ending between ticks (1.00 s .. 1.03 s with dt = 20 ms)
    // stays active through the 1.02 s tick and is closed by the 1.04 s
    // tick — logged at the window's own end time, as NETEM's rule
    // deletion timestamp would be.
    let mut s = session(2);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(1),
        SimDuration::from_millis(30),
        PaperFault::Delay25ms.config(),
    ))
    .unwrap();
    let mut op = ScriptedOperator::constant(ControlInput::COAST);
    s.run(&mut op, SimDuration::from_secs(2));
    let log = s.into_log();
    let events = log.fault_events();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].time, SimTime::from_secs(1));
    assert_eq!(events[1].time, SimTime::from_millis(1030));
}

#[test]
fn zero_length_window_never_activates() {
    // `[start, start)` contains no instant: the rule must never be
    // applied, and the log must stay clean.
    let mut s = session(3);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(1),
        SimDuration::ZERO,
        PaperFault::Loss5Pct.config(),
    ))
    .unwrap();
    let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(3));
    assert!(s.incidents().is_empty(), "no edges from an empty window");
    let stats = s.stats();
    assert_eq!(stats.commands_delivered, stats.commands_sent, "no loss");
    let log = s.into_log();
    assert!(log.fault_events().is_empty());
}

#[test]
fn zero_length_window_inside_another_still_conflicts() {
    // Zero-length windows occupy no time, but scheduling one strictly
    // inside an existing window is still rejected — the schedule stays
    // one-fault-at-a-time by construction.
    let mut s = session(4);
    let delay = InjectionWindow::new(
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
        PaperFault::Delay50ms.config(),
    );
    s.schedule_fault(delay).unwrap();
    let empty_inside = InjectionWindow::new(
        SimTime::from_secs(2),
        SimDuration::ZERO,
        PaperFault::Loss2Pct.config(),
    );
    assert_eq!(s.schedule_fault(empty_inside).unwrap_err(), delay);
    // On the boundary it is allowed (nothing overlaps a point on an edge).
    let empty_on_edge = InjectionWindow::new(
        SimTime::from_secs(3),
        SimDuration::ZERO,
        PaperFault::Loss2Pct.config(),
    );
    s.schedule_fault(empty_on_edge).unwrap();
}

#[test]
fn overlapping_delay_and_loss_windows_are_rejected() {
    let mut s = session(5);
    let delay = InjectionWindow::new(
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
        PaperFault::Delay50ms.config(),
    );
    s.schedule_fault(delay).unwrap();
    // A loss window overlapping the delay window is refused and the
    // conflicting window is reported back.
    let overlapping_loss = InjectionWindow::new(
        SimTime::from_millis(2_500),
        SimDuration::from_secs(2),
        PaperFault::Loss5Pct.config(),
    );
    assert_eq!(s.schedule_fault(overlapping_loss).unwrap_err(), delay);
    // Back-to-back (touching at t = 3 s) is fine: the close and the open
    // land on the same tick, in that order.
    let adjacent_loss = InjectionWindow::new(
        SimTime::from_secs(3),
        SimDuration::from_secs(1),
        PaperFault::Loss5Pct.config(),
    );
    s.schedule_fault(adjacent_loss).unwrap();
    let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(5));
    let log = s.into_log();
    let events = log.fault_events();
    assert_eq!(events.len(), 4, "two windows, two edges each");
    assert_eq!(events[1].time, SimTime::from_secs(3), "delay closes");
    assert_eq!(events[2].time, SimTime::from_secs(3), "loss opens");
    assert_eq!(
        PaperFault::from_config(&events[2].config),
        Some(PaperFault::Loss5Pct)
    );
}

#[test]
fn combined_delay_plus_loss_rule_degrades_both_ways() {
    // One window whose NETEM rule combines delay and loss (the injector
    // schedules whole configs, not single knobs): commands must arrive
    // late AND lossy while it is open.
    let combined = NetemConfig::default()
        .with_delay(Millis::new(50.0))
        .with_loss(Ratio::from_percent(30.0));
    let registry = rdsim_obs::Registry::new();
    let mut world = World::new(town05());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        recorder: registry.recorder(),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, 6);
    s.schedule_fault(InjectionWindow::new(
        SimTime::ZERO,
        SimDuration::from_secs(3600),
        combined,
    ))
    .unwrap();
    let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
    s.run(&mut op, SimDuration::from_secs(20));
    let stats = s.stats();
    // Loss component: ~30 % of 1000 commands dropped.
    assert!(stats.commands_delivered < stats.commands_sent * 9 / 10);
    assert!(stats.commands_delivered > stats.commands_sent / 2);
    drop(s);
    let t = registry.snapshot();
    // Delay component: no command applied younger than the rule's delay.
    let ages = t.histogram("session.command_age_us").expect("ages");
    assert_eq!(ages.count, stats.commands_delivered);
    assert!(ages.min >= 50_000, "delay floor holds under loss");
    // Everything was inside the (always-open) window.
    assert_eq!(t.counter("session.fault_window.outside.sent"), 0);
    assert_eq!(
        t.counter("session.fault_window.inside.sent"),
        stats.frames_sent + stats.commands_sent
    );
    assert!(t.counter("session.fault_window.inside.dropped") > 0);
}

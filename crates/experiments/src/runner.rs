//! Runs protocol runs (training / golden / faulty) for subjects.
//!
//! [`run_protocol`] is the one loop every study, observatory and
//! population campaign goes through: build the session and its private
//! `ProtocolDriver`, then alternate the driver's per-tick scenario
//! direction (`pre_step`: progress accounting, the test leader's
//! instructions, lead-vehicle phase scripting and point-of-interest fault
//! injection) with one [`RdsSession::step`] of the pipeline until the
//! driver retires the run.

use crate::{CourseMap, ScenarioPlan};
use rdsim_core::{PaperFault, RdsSession, RdsSessionConfig, RunKind, RunRecord, ScheduledFault};
use rdsim_math::RngStream;
use rdsim_netem::{InjectionWindow, TraceSchedule};
use rdsim_obs::{Recorder, Registry, RunTelemetry, Timeline, TraceLog, Tracer};
use rdsim_operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim_roadnet::town05;
use rdsim_simulator::{ActorId, ActorKind, Behavior, LaneFollowConfig, World};
use rdsim_units::{MetersPerSecond, SimDuration, SimTime};
use rdsim_vehicle::VehicleSpec;

/// Configuration of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Laps of the ring to complete.
    pub laps: u32,
    /// Alternatively, stop after this much forward progress (metres);
    /// overrides `laps` when set (used by the validity sweeps).
    pub progress_target: Option<f64>,
    /// Instructed speed on urban segments.
    pub urban_speed: MetersPerSecond,
    /// Instructed speed on the highway segment.
    pub highway_speed: MetersPerSecond,
    /// Cruise speed of the dynamic lead vehicle.
    pub lead_speed: MetersPerSecond,
    /// Hard wall-clock guard per run.
    pub max_duration: SimDuration,
    /// The ego plant.
    pub vehicle: VehicleSpec,
    /// A network condition applied for the whole run (used by the
    /// validity sweeps). Point-of-interest injections in faulty runs
    /// override it while active, so combine only with non-faulty kinds.
    pub ambient_fault: Option<rdsim_netem::NetemConfig>,
    /// A measured-network trace replayed over the run (`repro
    /// --trace-in`): its compiled config edges drive the injector
    /// exactly like scheduled windows, and the run is tagged with the
    /// trace's `trace:<label>` condition ([`RunOutput::trace_condition`]).
    /// Point-of-interest injections in faulty runs fight the replay for
    /// the link, so combine only with non-faulty kinds.
    pub ambient_trace: Option<TraceSchedule>,
    /// Overrides the driver's mental-extrapolation quality (operators
    /// have a poor internal model of an unfamiliar plant; see
    /// [`HumanDriverModel::set_extrapolation`]).
    pub driver_extrapolation: Option<f64>,
    /// Collect per-run telemetry ([`RunOutput::telemetry`]). Off by
    /// default: the run then uses the null recorder throughout.
    pub telemetry: bool,
    /// Retain the session's flight-recorder snapshot in
    /// [`RunOutput::trace`], with the ring deepened to 2¹⁸ events
    /// (`TRACE_EXPORT_CAPACITY`) so a full paper-style run fits without
    /// overwriting its early incidents. Without it the run records a
    /// trace only under [`telemetry`](Self::telemetry), whose
    /// `session.trace.*` counters read the default flight recorder; with
    /// neither, the run has the null tracer, since nothing would read
    /// the ring.
    pub trace: bool,
    /// Collect the per-window safety timeline ([`RunOutput::timeline`]).
    /// Off by default; the campaign digests exclude it, so enabling it
    /// never changes what a run computes.
    pub timeline: bool,
    /// Pin every point-of-interest injection of a faulty run to this one
    /// fault instead of drawing per point per lap (population campaigns
    /// condition each run on a single fault cell). `None` — the default —
    /// keeps the §V.C random draw bit-for-bit unchanged.
    pub fault_override: Option<PaperFault>,
}

/// Ring depth for runs whose trace is retained ([`ScenarioConfig::trace`]):
/// a full two-lap run records ~170 k events, so 2¹⁸ holds it whole
/// (~8 MiB; the default flight recorder stays at its much smaller bound).
const TRACE_EXPORT_CAPACITY: usize = 1 << 18;

impl Default for ScenarioConfig {
    /// The full paper-style run: two laps (~6 sim-minutes of driving).
    fn default() -> Self {
        ScenarioConfig {
            laps: 2,
            progress_target: None,
            urban_speed: MetersPerSecond::new(12.0),
            highway_speed: MetersPerSecond::new(18.0),
            lead_speed: MetersPerSecond::new(9.5),
            max_duration: SimDuration::from_secs(900),
            vehicle: VehicleSpec::passenger_car(),
            ambient_fault: None,
            ambient_trace: None,
            driver_extrapolation: None,
            telemetry: false,
            trace: false,
            timeline: false,
            fault_override: None,
        }
    }
}

impl ScenarioConfig {
    /// A shortened configuration for tests: a partial lap covering the
    /// following and slalom scenarios.
    pub fn quick() -> Self {
        ScenarioConfig {
            laps: 1,
            progress_target: Some(500.0),
            max_duration: SimDuration::from_secs(120),
            ..ScenarioConfig::default()
        }
    }
}

/// The outcome of one run: the analysable record plus the operator-side
/// feed-quality statistics the questionnaire model consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The run record (log + schedule).
    pub record: RunRecord,
    /// Accumulated display stutter experienced by the operator.
    pub stutter_time: SimDuration,
    /// Worst single display gap.
    pub worst_display_gap: SimDuration,
    /// Frames the operator received.
    pub frames_seen: u64,
    /// Forward progress achieved (metres along the course).
    pub progress: f64,
    /// Per-run telemetry; empty unless [`ScenarioConfig::telemetry`] was
    /// set. Serializes to JSON via [`RunTelemetry::to_json`].
    pub telemetry: RunTelemetry,
    /// The flight-recorder snapshot; empty unless [`ScenarioConfig::trace`]
    /// was set. Exports to Perfetto via [`TraceLog::to_chrome_json`].
    pub trace: TraceLog,
    /// The per-window safety timeline; empty unless
    /// [`ScenarioConfig::timeline`] was set. Serializes deterministically
    /// via [`Timeline::to_json`].
    pub timeline: Timeline,
    /// The `trace:<label>` condition of the replayed measurement, when the
    /// run was driven by [`ScenarioConfig::ambient_trace`]. Folded into
    /// [`crate::run_digest`] (the trace's *content* already reaches the
    /// digest through the logged injection events; this pins its identity)
    /// and registered as a campaign store cell.
    pub trace_condition: Option<String>,
}

/// Runs one protocol run for a subject.
///
/// Golden and faulty runs drive the full scenario course (lead vehicle,
/// parked vans, slow highway vehicle, cyclists); the training run is free
/// driving in an empty town. Fault injection happens only in faulty runs,
/// at the plan's points of interest, drawing a random fault per point per
/// lap exactly as §V.C describes.
pub fn run_protocol(
    profile: &SubjectProfile,
    kind: RunKind,
    seed: u64,
    config: &ScenarioConfig,
) -> RunOutput {
    let (mut session, mut driver) = build_run(profile, kind, seed, config);
    while driver.pre_step(&mut session) {
        session.step(&mut driver.driver);
    }
    driver.finish(session)
}

/// Builds one run's session and its scenario controller.
fn build_run(
    profile: &SubjectProfile,
    kind: RunKind,
    seed: u64,
    config: &ScenarioConfig,
) -> (RdsSession, ProtocolDriver) {
    let net = town05();
    let course = CourseMap::new(&net);
    let plan = ScenarioPlan::town05();

    // --- World and actors.
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", config.vehicle.clone());
    let lead = if kind == RunKind::Training {
        None
    } else {
        let lead = world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(config.lead_speed)),
            config.lead_speed,
        );
        // Parked vans hug the curb (≈0.8 m right of the lane centre), as
        // parked vehicles do; the lane change still is mandatory — the
        // remaining clearance in the own lane is under half a car width.
        for name in ["slalom-1", "slalom-2", "slalom-3"] {
            let sp = net.spawn_point(name).expect("slalom spawn").clone();
            let lane = net.lane(sp.lane);
            let pose = lane
                .centerline()
                .offset_point_at(sp.s, rdsim_units::Meters::new(-0.8));
            let heading = lane.centerline().heading_at(sp.s);
            let id = world.spawn(
                ActorKind::Vehicle,
                VehicleSpec::van(),
                Behavior::Stationary,
                rdsim_roadnet::LanePosition::new(sp.lane, sp.s),
                MetersPerSecond::ZERO,
            );
            // Re-seat at the curb offset.
            world.teleport_pose(id, rdsim_math::Pose2::new(pose, heading));
        }
        world.spawn_npc_at(
            "overtake-slow",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(4.0))),
            MetersPerSecond::new(4.0),
        );
        for name in ["cyclist-1", "cyclist-2"] {
            let mut cfg = LaneFollowConfig::cyclist(MetersPerSecond::new(4.0));
            cfg.keeper.lateral_offset = rdsim_units::Meters::new(-2.2);
            world.spawn_npc_at(
                name,
                ActorKind::Cyclist,
                VehicleSpec::bicycle(),
                Behavior::LaneFollow(cfg),
                MetersPerSecond::new(4.0),
            );
        }
        Some(lead)
    };

    // --- Session and driver.
    let registry = config.telemetry.then(Registry::new);
    let session_config = RdsSessionConfig {
        recorder: registry
            .as_ref()
            .map(Registry::recorder)
            .unwrap_or_else(Recorder::null),
        // A run records a trace only when something reads it. One whose
        // trace is *retained* for export gets a ring deep enough to hold
        // the entire run, so early incidents survive to the dump; under
        // telemetry the default flight recorder feeds the
        // `session.trace.*` counters; otherwise nothing reads the ring.
        tracer: if config.trace {
            Tracer::with_capacity(TRACE_EXPORT_CAPACITY)
        } else if config.telemetry {
            Tracer::flight_recorder()
        } else {
            Tracer::null()
        },
        timeline: config.timeline,
        ..RdsSessionConfig::default()
    };
    let mut session = RdsSession::new(world, session_config, seed);
    // Size the run log and trace ring for the longest possible run up
    // front, so steady-state stepping never grows them.
    session.preallocate(config.max_duration);
    if let Some(fault) = config.ambient_fault {
        session.inject_now(fault);
    }
    if let Some(trace) = &config.ambient_trace {
        session
            .schedule_trace(trace)
            .expect("a fresh session has no windows for the trace to conflict with");
    }
    let mut driver = HumanDriverModel::new(profile, net.clone(), seed);
    driver.set_vehicle_hint(config.vehicle.wheelbase(), config.vehicle.max_steer());
    if let Some(extrapolation) = config.driver_extrapolation {
        driver.set_extrapolation(extrapolation);
    }

    // --- Fault schedule draws (one per point per lap), unless the run is
    // pinned to one condition.
    let laps_planned = config.laps.max(1);
    let draws: Vec<Vec<PaperFault>> = match config.fault_override {
        Some(fault) => (0..laps_planned)
            .map(|_| vec![fault; plan.fault_points.len()])
            .collect(),
        None => {
            let mut fault_rng =
                RngStream::from_seed(seed).substream(&format!("faults-{}", profile.id));
            (0..laps_planned)
                .map(|_| plan.draw_faults(&mut fault_rng))
                .collect()
        }
    };

    // --- Controller state.
    let target = config
        .progress_target
        .unwrap_or(config.laps as f64 * course.lap_length() - 40.0);
    let consumed = vec![vec![false; plan.fault_points.len()]; laps_planned as usize];
    let ego = session.world().ego_id().expect("ego spawned");
    let world = session.world();
    let (prev_s, _) = course.chain_s(
        world.network(),
        ego_pos(&session, ego),
        world.projection(ego),
    );
    let max_steps = config.max_duration.div_steps(session.dt());

    let controller = ProtocolDriver {
        kind,
        config: config.clone(),
        profile_id: profile.id.clone(),
        course,
        plan,
        driver,
        registry,
        lead,
        ego,
        draws,
        consumed,
        schedule: Vec::new(),
        active_fault: None,
        target,
        progress: 0.0,
        lap: 0,
        laps_planned: laps_planned as usize,
        prev_s,
        stopping: false,
        steps_left: max_steps,
    };
    (session, controller)
}

/// Scenario direction for one protocol run: the per-tick preamble of
/// [`run_protocol`]'s loop lives in [`pre_step`](Self::pre_step), its loop
/// condition in the retirement checks at the top of it.
#[derive(Debug)]
struct ProtocolDriver {
    kind: RunKind,
    config: ScenarioConfig,
    profile_id: String,
    course: CourseMap,
    plan: ScenarioPlan,
    driver: HumanDriverModel,
    registry: Option<Registry>,
    lead: Option<ActorId>,
    ego: ActorId,
    /// Fault draws per lap per point of interest.
    draws: Vec<Vec<PaperFault>>,
    /// Whether `draws[lap][point]` has been injected already.
    consumed: Vec<Vec<bool>>,
    schedule: Vec<ScheduledFault>,
    active_fault: Option<(usize, SimTime, PaperFault)>,
    target: f64,
    progress: f64,
    lap: usize,
    laps_planned: usize,
    prev_s: f64,
    stopping: bool,
    steps_left: u64,
}

impl ProtocolDriver {
    /// Directs the tick about to be stepped; `false` retires the run.
    fn pre_step(&mut self, session: &mut RdsSession) -> bool {
        // Retirement: out of steps (the max-duration guard), or the stop
        // instruction has brought the ego to rest after the previous step.
        if self.steps_left == 0 {
            return false;
        }
        if self.stopping && session.world().actor(self.ego).state().speed.get() < 0.3 {
            return false;
        }
        self.steps_left -= 1;

        let course = &self.course;
        let plan = &self.plan;
        let pos = ego_pos(session, self.ego);
        let column = session.world().projection(self.ego);
        let (s, outer_lane) = course.chain_s(session.world().network(), pos, column);
        // Unwrapped progress and lap counting.
        let mut delta = s - self.prev_s;
        if delta < -course.lap_length() / 2.0 {
            delta += course.lap_length();
            self.lap = (self.lap + 1).min(self.laps_planned - 1);
        }
        if delta.abs() < 60.0 {
            self.progress += delta.max(0.0);
        }
        self.prev_s = s;

        // Instructions (the test leader's directions).
        let in_slalom = course.within(s, plan.slalom.0, plan.slalom.1);
        let in_overtake = course.within(s, plan.overtake.0, plan.overtake.1);
        let on_highway = course.within(s, plan.highway.0, plan.highway.1);
        let (lane, speed) = if in_slalom || in_overtake {
            (
                course.nearest_of(session.world().network(), course.inner(), pos, column),
                if on_highway {
                    self.config.highway_speed
                } else {
                    self.config.urban_speed
                },
            )
        } else if on_highway {
            (outer_lane, self.config.highway_speed)
        } else {
            (outer_lane, self.config.urban_speed)
        };
        if self.progress >= self.target {
            self.stopping = true;
        }
        if self.stopping {
            self.driver.set_instruction(Instruction::stop_in(lane));
        } else {
            self.driver.set_instruction(Instruction::drive(lane, speed));
        }

        // Lead-vehicle phase scripting: it clears the slalom zone via the
        // inner lane, like a cooperating road user.
        if let Some(lead) = self.lead {
            let lead_pos = ego_pos(session, lead);
            let world = session.world();
            let lead_column = world.projection(lead);
            let (lead_s, lead_outer) = course.chain_s(world.network(), lead_pos, lead_column);
            let lead_in_zone = course.within(lead_s, plan.slalom.0 - 25.0, plan.slalom.1 + 10.0);
            let (lead_lane, lead_speed) = if lead_in_zone {
                (
                    course.nearest_of(world.network(), course.inner(), lead_pos, lead_column),
                    MetersPerSecond::new(13.0),
                )
            } else {
                (lead_outer, self.config.lead_speed)
            };
            let cfg = LaneFollowConfig::urban(lead_speed).with_lane(lead_lane);
            session
                .world_mut()
                .set_behavior(lead, Behavior::LaneFollow(cfg));
        }

        // Fault points (faulty runs only).
        if self.kind == RunKind::Faulty && !self.stopping {
            if let Some((idx, started, fault)) = self.active_fault {
                let point = plan.fault_points[idx];
                if !course.within(s, point.from, point.to) {
                    let now = session.time();
                    session.clear_fault_now();
                    self.schedule.push(ScheduledFault {
                        fault,
                        window: InjectionWindow::new(
                            started,
                            now.saturating_since(started),
                            fault.config(),
                        ),
                    });
                    self.active_fault = None;
                }
            }
            if self.active_fault.is_none() {
                if let Some(idx) = plan
                    .fault_points
                    .iter()
                    .position(|p| course.within(s, p.from, p.to))
                {
                    if !self.consumed[self.lap][idx] {
                        self.consumed[self.lap][idx] = true;
                        let fault = self.draws[self.lap][idx];
                        session.inject_now(fault.config());
                        self.active_fault = Some((idx, session.time(), fault));
                    }
                }
            }
        }
        true
    }

    /// Finalises a retired run: closes any dangling fault window and
    /// assembles the [`RunOutput`].
    fn finish(mut self, mut session: RdsSession) -> RunOutput {
        if let Some((_, started, fault)) = self.active_fault {
            let now = session.time();
            session.clear_fault_now();
            self.schedule.push(ScheduledFault {
                fault,
                window: InjectionWindow::new(
                    started,
                    now.saturating_since(started),
                    fault.config(),
                ),
            });
        }

        let stutter_time = self.driver.perception().stutter_time();
        let worst_display_gap = self.driver.perception().worst_display_gap();
        let frames_seen = self.driver.perception().frames_seen();
        let trace = if self.config.trace {
            session.tracer().log()
        } else {
            TraceLog::default()
        };
        let timeline = session.take_timeline();
        let log = session.into_log();
        RunOutput {
            record: RunRecord::new(self.profile_id, self.kind, log, self.schedule),
            stutter_time,
            worst_display_gap,
            frames_seen,
            progress: self.progress,
            telemetry: self.registry.map(|r| r.snapshot()).unwrap_or_default(),
            trace,
            timeline,
            trace_condition: self
                .config
                .ambient_trace
                .as_ref()
                .map(TraceSchedule::condition),
        }
    }
}

fn ego_pos(session: &RdsSession, id: ActorId) -> rdsim_math::Vec2 {
    session.world().actor(id).state().position()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_core::RunKind;

    fn profile() -> SubjectProfile {
        SubjectProfile::typical("TQ")
    }

    #[test]
    fn golden_quick_run_completes_without_crash() {
        let out = run_protocol(&profile(), RunKind::Golden, 101, &ScenarioConfig::quick());
        assert!(
            out.progress >= 490.0,
            "should cover the target distance, got {}",
            out.progress
        );
        assert!(out.record.schedule.is_empty(), "golden run has no faults");
        assert!(!out.record.log.collided(), "golden run must be clean");
        assert!(out.frames_seen > 500);
        assert!(out.record.log.has_lead_data(), "lead vehicle is observed");
    }

    #[test]
    fn faulty_quick_run_injects_at_points_of_interest() {
        let out = run_protocol(&profile(), RunKind::Faulty, 101, &ScenarioConfig::quick());
        // The 500 m quick course crosses three fault points.
        assert!(
            (1..=3).contains(&out.record.schedule.len()),
            "expected 1–3 injections, got {}",
            out.record.schedule.len()
        );
        // Injection log mirrors the schedule (added + deleted per window).
        assert_eq!(
            out.record.log.fault_events().len(),
            out.record.schedule.len() * 2
        );
        for sf in &out.record.schedule {
            assert!(sf.window.duration > SimDuration::from_secs(1));
        }
    }

    #[test]
    fn training_run_has_no_traffic() {
        let out = run_protocol(&profile(), RunKind::Training, 55, &ScenarioConfig::quick());
        assert!(out.record.log.other_samples().is_empty());
        assert!(!out.record.log.collided());
        assert!(
            out.telemetry.is_empty(),
            "null recorder ⇒ empty RunTelemetry"
        );
    }

    #[test]
    fn telemetry_flag_populates_run_output() {
        let cfg = ScenarioConfig {
            telemetry: true,
            ..ScenarioConfig::quick()
        };
        let out = run_protocol(&profile(), RunKind::Faulty, 101, &cfg);
        let t = &out.telemetry;
        assert!(!t.is_empty());
        let steps = t.counter("session.steps");
        assert!(steps > 0);
        assert!(t.steps_per_sec("session.steps") > 0.0);
        let fa = t.histogram("session.frame_age_us").expect("frame ages");
        assert_eq!(fa.count, t.counter("session.frames_delivered"));
        assert!(fa.p50() > 0);
        // The quick faulty course injects at least one fault, so both
        // sides of the fault-window accounting are populated.
        assert!(t.counter("session.fault_window.inside.sent") > 0);
        assert!(t.counter("session.fault_window.outside.sent") > 0);
        assert_eq!(
            t.counter("session.fault_window.inside.sent")
                + t.counter("session.fault_window.outside.sent"),
            t.counter("session.frames_sent") + t.counter("session.commands_sent")
        );
        assert!(t.events.iter().any(|e| e.name == "session.fault"));
        // Serializes without panicking and round-trips the step counter.
        assert!(t.to_json().contains("\"session.steps\""));
    }

    #[test]
    fn trace_flag_retains_the_flight_recorder() {
        use rdsim_obs::{ArtifactKind, TraceStage};
        let cfg = ScenarioConfig {
            trace: true,
            ..ScenarioConfig::quick()
        };
        let out = run_protocol(&profile(), RunKind::Faulty, 101, &cfg);
        assert!(!out.trace.is_empty());
        // The retained window still holds complete frame and command
        // lineages, and the run's incident marks are in the log.
        assert!(
            out.trace.complete_lineages(
                ArtifactKind::Frame,
                TraceStage::Capture,
                TraceStage::Display
            ) > 0
        );
        assert!(
            out.trace.complete_lineages(
                ArtifactKind::Command,
                TraceStage::CommandEmit,
                TraceStage::Actuate
            ) > 0
        );
        assert!(
            !out.record.log.incidents().is_empty(),
            "faulty run has fault-edge incidents at least"
        );
        // Off by default: no snapshot retained.
        let plain = run_protocol(&profile(), RunKind::Faulty, 101, &ScenarioConfig::quick());
        assert!(plain.trace.is_empty());
    }

    #[test]
    fn unread_trace_is_not_recorded_and_changes_nothing() {
        let plain = ScenarioConfig::quick();
        let traced = ScenarioConfig {
            trace: true,
            ..ScenarioConfig::quick()
        };
        let observed = ScenarioConfig {
            telemetry: true,
            ..ScenarioConfig::quick()
        };
        let tracing = |cfg: &ScenarioConfig| {
            let (session, _) = build_run(&profile(), RunKind::Faulty, 101, cfg);
            session.tracer().enabled()
        };
        assert!(!tracing(&plain), "nothing reads the ring");
        assert!(tracing(&traced), "the retained trace reads it");
        assert!(tracing(&observed), "the session.trace.* counters read it");
        let a = run_protocol(&profile(), RunKind::Faulty, 101, &plain);
        let b = run_protocol(&profile(), RunKind::Faulty, 101, &traced);
        assert!(!b.trace.is_empty());
        assert_eq!(
            crate::record_digest(&a.record),
            crate::record_digest(&b.record)
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_protocol(&profile(), RunKind::Faulty, 7, &ScenarioConfig::quick());
        let b = run_protocol(&profile(), RunKind::Faulty, 7, &ScenarioConfig::quick());
        assert_eq!(
            a.record.log.ego_samples().len(),
            b.record.log.ego_samples().len()
        );
        assert_eq!(
            a.record.log.ego_samples().last().map(|s| s.position),
            b.record.log.ego_samples().last().map(|s| s.position)
        );
        let faults_a: Vec<_> = a.record.schedule.iter().map(|s| s.fault).collect();
        let faults_b: Vec<_> = b.record.schedule.iter().map(|s| s.fault).collect();
        assert_eq!(faults_a, faults_b);
    }

    #[test]
    fn fault_override_pins_every_injection() {
        let cfg = ScenarioConfig {
            fault_override: Some(PaperFault::Loss5Pct),
            ..ScenarioConfig::quick()
        };
        let out = run_protocol(&profile(), RunKind::Faulty, 101, &cfg);
        assert!(!out.record.schedule.is_empty());
        for sf in &out.record.schedule {
            assert_eq!(sf.fault, PaperFault::Loss5Pct, "override pins every draw");
        }
        // The default path is untouched: same seed, no override draws the
        // historical random sequence.
        let plain = run_protocol(&profile(), RunKind::Faulty, 101, &ScenarioConfig::quick());
        let plan = ScenarioPlan::town05();
        let mut rng = RngStream::from_seed(101).substream("faults-TQ");
        let expected = plan.draw_faults(&mut rng);
        for (i, sf) in plain.record.schedule.iter().enumerate() {
            assert_eq!(sf.fault, expected[i]);
        }
    }

    #[test]
    fn different_subjects_draw_different_faults() {
        let mut p2 = profile();
        p2.id = "TZ".to_owned();
        let cfg = ScenarioConfig::quick();
        let a = run_protocol(&profile(), RunKind::Faulty, 7, &cfg);
        let b = run_protocol(&p2, RunKind::Faulty, 7, &cfg);
        // Same seed, different subject id ⇒ independent fault draws (the
        // sequences may coincide by chance for very short runs, so compare
        // the underlying draw streams via more draws).
        let plan = ScenarioPlan::town05();
        let mut ra = RngStream::from_seed(7).substream("faults-TQ");
        let mut rb = RngStream::from_seed(7).substream("faults-TZ");
        let da: Vec<_> = (0..5).flat_map(|_| plan.draw_faults(&mut ra)).collect();
        let db: Vec<_> = (0..5).flat_map(|_| plan.draw_faults(&mut rb)).collect();
        assert_ne!(da, db);
        let _ = (a, b);
    }
}

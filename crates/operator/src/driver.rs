//! The human driver model: two-point steering + gap regulation on stale
//! percepts.

use crate::{PerceivedScene, PerceptionState, SubjectProfile};
use rdsim_core::{OperatorSubsystem, ReceivedFrame};
use rdsim_math::RngStream;
use rdsim_roadnet::{LaneId, RoadNetwork};
use rdsim_simulator::ActorKind;
use rdsim_units::{Meters, MetersPerSecond, Radians, Seconds, SimTime};
use rdsim_vehicle::ControlInput;

/// Tunable parameters of the driver model (derived from a
/// [`SubjectProfile`] or set directly for ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverParams {
    /// Visuomotor *tracking* latency for continuous steering (~0.2 s in
    /// the manual-control literature).
    pub reaction_time: Seconds,
    /// *Event* reaction latency for discrete hazards (braking for an
    /// obstacle; ~0.6–1.0 s).
    pub event_reaction: Seconds,
    /// Interval between control re-plans (intermittent human control).
    pub update_interval: Seconds,
    /// Gain on the near-point visual angle (lane-position correction).
    pub near_gain: f64,
    /// Gain on the far-point visual angle (curvature preview).
    pub far_gain: f64,
    /// Baseline neuromuscular steering noise (normalised steer units).
    pub noise_std: f64,
    /// Noise amplification per second of *excess* percept staleness —
    /// the "disturbed driver corrects more" channel behind elevated SRR.
    pub stale_noise_gain: f64,
    /// How fast the subject can move the wheel (normalised units/s).
    pub wheel_rate: f64,
    /// Hold hysteresis: steering targets closer than this to the current
    /// target are ignored (humans do not chase milliradians).
    pub steer_deadband: f64,
    /// Constant steering bias (left-traffic habit on right-hand roads).
    pub steer_bias: f64,
    /// Desired time headway when following.
    pub headway: Seconds,
    /// Fraction of percept staleness the subject compensates by mental
    /// extrapolation (experienced drivers anticipate; nobody fully does).
    pub extrapolation: f64,
    /// Perceived time-to-collision below which the brake reflex fires.
    pub emergency_ttc: Seconds,
}

impl Default for DriverParams {
    fn default() -> Self {
        let mut rng = RngStream::from_seed(0).substream("default-driver");
        SubjectProfile::typical("default").driver_params(&mut rng)
    }
}

/// An out-of-band instruction from the test leader ("turn left here",
/// "overtake the parked vans"): a target lane and speed. Instructions are
/// verbal and do **not** traverse the faulty network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The lane to drive in.
    pub lane: LaneId,
    /// The speed to hold.
    pub speed: MetersPerSecond,
    /// Come to a stop (end of test).
    pub stop: bool,
}

impl Instruction {
    /// Drive in `lane` at `speed`.
    pub fn drive(lane: LaneId, speed: MetersPerSecond) -> Self {
        Instruction {
            lane,
            speed,
            stop: false,
        }
    }

    /// Stop in `lane`.
    pub fn stop_in(lane: LaneId) -> Self {
        Instruction {
            lane,
            speed: MetersPerSecond::ZERO,
            stop: true,
        }
    }
}

/// The simulated human remote driver.
///
/// Implements [`OperatorSubsystem`]: frames in, commands out. All the
/// degradation mechanics live here — see the crate docs for the model.
#[derive(Debug)]
pub struct HumanDriverModel {
    net: RoadNetwork,
    params: DriverParams,
    perception: PerceptionState,
    /// Slower percept stream used for discrete hazard reactions.
    hazard_perception: PerceptionState,
    instruction: Option<Instruction>,
    rng: RngStream,
    steer_target: f64,
    wheel: f64,
    throttle: f64,
    brake: f64,
    last_command_at: Option<SimTime>,
    next_update_at: SimTime,
    last_replan_at: Option<SimTime>,
    prev_angles: Option<(f64, f64)>,
    /// Accumulated deliberate steering control (noise-free).
    steer_integrated: f64,
    /// Attention disturbance level from recent frame skips.
    disturbance: f64,
    /// Stutter total at the previous replan, for deltas.
    prev_stutter: f64,
    /// The driver's internal model of the plant: (wheelbase m, full-lock
    /// road-wheel angle rad). Defaults to a passenger car; set to the
    /// plant's values when driving something else (the RC model vehicle).
    vehicle_hint: (f64, f64),
    /// Replan's copies of the two percepts, cloned into in place so their
    /// snapshot allocations are reused from replan to replan (a percept
    /// is `None` only before the first frame).
    scene_copy: Option<PerceivedScene>,
    hazard_copy: Option<PerceivedScene>,
}

/// Assumed ego body length for visual gap estimation (the driver judges
/// bumper gaps, not centre distances).
const EGO_LENGTH_GUESS: f64 = 4.6;
/// Assumed wheelbase for the pursuit law (drivers internalise their car).
const WHEELBASE_GUESS: f64 = 2.8;
/// Assumed full-lock road-wheel angle for normalising wheel commands.
const MAX_STEER_GUESS: f64 = 0.61;
/// Integral gain on the near-point angle (normalised wheel units per
/// radian-second), shared across subjects.
const K_INTEGRAL: f64 = 1.1;
/// How long a skip keeps the driver rattled.
const DISTURBANCE_DECAY_S: f64 = 1.5;
/// Steering-noise multiplier per unit of disturbance.
const DISTURBANCE_NOISE_GAIN: f64 = 6.0;

impl HumanDriverModel {
    /// Creates a driver from a subject profile. Parameter jitter and all
    /// in-run stochasticity derive from `seed` and the subject id, so the
    /// same subject drives identically across program runs.
    pub fn new(profile: &SubjectProfile, net: RoadNetwork, seed: u64) -> Self {
        let root = RngStream::from_seed(seed).substream(&format!("driver-{}", profile.id));
        let mut param_rng = root.substream("params");
        let params = profile.driver_params(&mut param_rng);
        Self::with_params(params, net, root.substream("noise"))
    }

    /// Creates a driver with explicit parameters (ablation studies).
    pub fn with_params(params: DriverParams, net: RoadNetwork, rng: RngStream) -> Self {
        HumanDriverModel {
            net,
            perception: PerceptionState::new(params.reaction_time),
            hazard_perception: PerceptionState::new(params.event_reaction),
            params,
            instruction: None,
            rng,
            steer_target: 0.0,
            wheel: 0.0,
            throttle: 0.0,
            brake: 0.0,
            last_command_at: None,
            next_update_at: SimTime::ZERO,
            last_replan_at: None,
            prev_angles: None,
            steer_integrated: 0.0,
            disturbance: 0.0,
            prev_stutter: 0.0,
            vehicle_hint: (WHEELBASE_GUESS, MAX_STEER_GUESS),
            scene_copy: None,
            hazard_copy: None,
        }
    }

    /// Tells the driver what they are driving (affects how wheel motion
    /// maps to expected yaw in the efference copy and the steering law).
    pub fn set_vehicle_hint(&mut self, wheelbase: Meters, max_steer: rdsim_units::Radians) {
        assert!(
            wheelbase.get() > 0.0 && max_steer.get() > 0.0,
            "hint must be positive"
        );
        self.vehicle_hint = (wheelbase.get(), max_steer.get());
    }

    /// Overrides the mental-extrapolation quality. Operators driving an
    /// unfamiliar plant (the paper's scaled model vehicle) have a poor
    /// internal model and compensate dead time far less effectively.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ extrapolation ≤ 1`.
    pub fn set_extrapolation(&mut self, extrapolation: f64) {
        assert!(
            (0.0..=1.0).contains(&extrapolation),
            "extrapolation must be within [0, 1]"
        );
        self.params.extrapolation = extrapolation;
    }

    /// The driver's parameters.
    pub fn params(&self) -> &DriverParams {
        &self.params
    }

    /// Gives the driver a new instruction.
    pub fn set_instruction(&mut self, instruction: Instruction) {
        self.instruction = Some(instruction);
    }

    /// The active instruction.
    pub fn instruction(&self) -> Option<Instruction> {
        self.instruction
    }

    /// Perception statistics (for QoE estimation).
    pub fn perception(&self) -> &PerceptionState {
        &self.perception
    }

    fn replan(
        &mut self,
        now: SimTime,
        scene: Option<&PerceivedScene>,
        hazard_scene: Option<&PerceivedScene>,
    ) {
        let Some(scene) = scene else {
            // Blind (no frame yet, or total feed loss): release throttle
            // and brake gently.
            self.throttle = 0.0;
            self.brake = 0.4;
            self.steer_target = 0.0;
            return;
        };
        let Some(ego) = scene.snapshot.ego else {
            self.throttle = 0.0;
            self.brake = 0.4;
            return;
        };

        let staleness = scene.staleness(now).as_secs_f64();
        // Excess staleness beyond what a healthy feed plus own reaction
        // time would produce: that surplus is what the network added.
        let baseline = self.params.reaction_time.get() + 0.045;
        let excess = (staleness - baseline).max(0.0);

        // Visible frame skips (packet loss) disturb the driver: the
        // percept jumps and attention degrades for a second or two. The
        // perception stage accumulates stutter (display gaps beyond the
        // nominal frame period); new stutter since the last replan feeds
        // the disturbance level.
        let dt_since_replan = now
            .saturating_since(self.last_replan_at.unwrap_or(now))
            .as_secs_f64();
        self.disturbance *= (-dt_since_replan / DISTURBANCE_DECAY_S).exp();
        let stutter_now = self.perception.stutter_time().as_secs_f64();
        let new_stutter = (stutter_now - self.prev_stutter).max(0.0);
        self.prev_stutter = stutter_now;
        if new_stutter > 0.0 {
            self.disturbance = (self.disturbance + new_stutter / 0.2).min(1.5);
        }

        // Mental extrapolation of the stale percept, including an
        // efference copy: the driver knows the wheel angle they are
        // already holding and predicts the heading change it produced
        // during the percept's dead time. This partial Smith-predictor is
        // what keeps humans stable under moderate delay — and its
        // incompleteness (`extrapolation < 1`) is why large delays hurt.
        let v = ego.speed.get();
        let (wheelbase, max_steer) = self.vehicle_hint;
        let lookahead_time = staleness * self.params.extrapolation;
        let yaw_est = v * (self.wheel * max_steer).tan() / wheelbase;
        let dh = yaw_est * lookahead_time;
        let heading = Radians::new(ego.pose.heading.get() + dh).normalized();
        let mid_heading = Radians::new(ego.pose.heading.get() + dh / 2.0);
        let pos =
            ego.pose.position + rdsim_math::Vec2::from_heading(mid_heading) * (v * lookahead_time);

        // --- Lateral: Salvucci–Gray two-point steering on the instructed
        // lane. The driver adjusts the wheel at a *rate* driven by the
        // rates of the near/far visual angles plus an integral term on the
        // near angle:
        //
        //   Δwheel = k_far·Δθ_far + k_near·Δθ_near + k_I·θ_near·Δt
        //
        // The rate terms provide the damping that keeps humans stable
        // under dead time; the integral term nulls lane-position error.
        let lane = self
            .instruction
            .map(|i| i.lane)
            .or_else(|| self.net.project(pos).map(|p| p.position.lane));
        if let Some(lane) = lane {
            let proj = self.net.project_onto_lane(lane, pos);
            let near_d = (v * 0.8).max(6.0);
            let far_d = (v * 2.2).max(15.0);
            let near_pos = self.net.advance(proj.position, Meters::new(near_d));
            let far_pos = self.net.advance(proj.position, Meters::new(far_d));
            let near_pt = self.net.pose_at(near_pos).position;
            let far_pt = self.net.pose_at(far_pos).position;
            let pose = rdsim_math::Pose2::new(pos, heading);
            let theta_near = pose.heading_error_to(near_pt).get();
            let theta_far = pose.heading_error_to(far_pt).get();
            let dt_update = now
                .saturating_since(self.last_replan_at.unwrap_or(now))
                .as_secs_f64()
                .max(1e-3);
            let (d_near, d_far) = match self.prev_angles {
                Some((pn, pf)) => (theta_near - pn, theta_far - pf),
                None => (0.0, 0.0),
            };
            self.prev_angles = Some((theta_near, theta_far));
            // Deliberate control accumulates; neuromuscular noise is a
            // transient perturbation around it (it must NOT integrate,
            // or the wheel would random-walk). Gains adapt to the plant:
            // the wheel motion needed for a given curvature scales with
            // wheelbase / full-lock angle.
            let gain_scale = (wheelbase / max_steer) / (WHEELBASE_GUESS / MAX_STEER_GUESS);
            let delta = gain_scale
                * (self.params.far_gain * d_far
                    + self.params.near_gain * d_near
                    + K_INTEGRAL * theta_near * dt_update)
                + self.params.steer_bias * dt_update;
            self.steer_integrated = (self.steer_integrated + delta).clamp(-1.0, 1.0);
            let noise_std = self.params.noise_std
                * (1.0
                    + self.params.stale_noise_gain * excess
                    + DISTURBANCE_NOISE_GAIN * self.disturbance);
            let jitter = self.rng.normal(0.0, noise_std);
            let raw = (self.steer_integrated + jitter).clamp(-1.0, 1.0);
            if (raw - self.steer_target).abs() > self.params.steer_deadband {
                self.steer_target = raw;
            }
        }
        self.last_replan_at = Some(now);

        // --- Longitudinal: track instructed speed, regulate gap, reflex.
        // Disturbed drivers slow down deliberately (the paper observes the
        // *minimum* TTC rising under faults — cautious driving).
        let caution = 1.0 - (0.35 * self.disturbance.min(1.0) + (2.0 * excess).min(0.4)).min(0.6);
        let target_speed = match self.instruction {
            Some(i) if i.stop => 0.0,
            Some(i) => i.speed.get() * caution,
            None => v.min(8.0),
        };
        let mut accel = 0.9 * (target_speed - v);

        // Perceived leader: anything roughly ahead in the ego's corridor.
        // Hazard reactions run on the slower event-perception stream — the
        // driver notices the road curving immediately but takes most of a
        // second to register that the gap ahead is collapsing.
        let hazard = hazard_scene.unwrap_or(scene);
        let mut emergency = false;
        for other in &hazard.snapshot.others {
            if other.kind == ActorKind::Prop {
                continue;
            }
            let rel = rdsim_math::Pose2::new(pos, heading).world_to_local(other.pose.position);
            if rel.x <= 0.0 || rel.x > 100.0 || rel.y.abs() > 2.0 {
                continue;
            }
            // An obstacle parked clear of the *instructed* lane is not a
            // leader: the driver plans around it (the slalom scenario)
            // rather than queueing behind it. It still triggers the
            // reflex if the planned path has not cleared it in time.
            let in_planned_path = match lane {
                Some(lane) => {
                    self.net
                        .project_onto_lane(lane, other.pose.position)
                        .lateral
                        .get()
                        .abs()
                        <= 2.05
                }
                None => true,
            };
            let gap = (rel.x - (EGO_LENGTH_GUESS + other.length.get()) / 2.0).max(0.1);
            let closing = v - other.speed.get();
            if in_planned_path {
                // Gap regulation toward min-gap + v·headway.
                let desired = 2.0 + v * self.params.headway.get();
                let follow = 0.45 * (gap - desired) - 0.9 * closing;
                accel = accel.min(follow);
            }
            if closing > 0.1 && gap / closing < self.params.emergency_ttc.get() {
                emergency = true;
            }
        }

        if emergency {
            self.throttle = 0.0;
            self.brake = 1.0;
        } else if accel >= 0.0 {
            self.throttle = (accel / 3.0).clamp(0.0, 1.0);
            self.brake = 0.0;
        } else {
            self.throttle = 0.0;
            self.brake = (-accel / 6.0).clamp(0.0, 1.0);
        }
        if self.instruction.is_some_and(|i| i.stop) && v < 0.5 {
            self.throttle = 0.0;
            self.brake = 1.0;
        }
    }
}

impl OperatorSubsystem for HumanDriverModel {
    fn on_frame(&mut self, frame: ReceivedFrame) {
        // Each channel keeps its own scene: the tracking channel a copy,
        // cloned into a recycled one, the hazard channel the frame itself.
        let copy = match self.recycle_frame() {
            Some(mut copy) => {
                copy.snapshot.clone_from(&frame.snapshot);
                copy.captured_at = frame.captured_at;
                copy.received_at = frame.received_at;
                copy
            }
            None => frame.clone(),
        };
        self.perception.ingest(copy);
        self.hazard_perception.ingest(frame);
    }

    fn on_bad_frame(&mut self, _received_at: SimTime) {
        self.perception.note_bad_frame();
    }

    fn command(&mut self, now: SimTime) -> ControlInput {
        let dt = self
            .last_command_at
            .map(|t| now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.02)
            .max(1e-4);
        self.last_command_at = Some(now);

        // Both percepts advance every step, so frames are promoted in the
        // same order whatever the replan cadence; only a replan, on a
        // small share of steps, copies them (into reused buffers).
        let replan = now >= self.next_update_at;
        let scene = self.perception.percept(now);
        let hazard_scene = self.hazard_perception.percept(now);
        if replan {
            copy_percept(&mut self.scene_copy, scene);
            copy_percept(&mut self.hazard_copy, hazard_scene);
            let (scene, hazard) = (self.scene_copy.take(), self.hazard_copy.take());
            self.replan(now, scene.as_ref(), hazard.as_ref());
            (self.scene_copy, self.hazard_copy) = (scene, hazard);
            // Jittered intermittent cadence (±20 %).
            let jitter = self.rng.uniform_range(0.8, 1.2);
            self.next_update_at = now
                + rdsim_units::SimDuration::from_secs_f64(
                    self.params.update_interval.get() * jitter,
                );
        }

        // Hand dynamics: slew the wheel toward the target.
        let max_step = self.params.wheel_rate * dt;
        self.wheel += (self.steer_target - self.wheel).clamp(-max_step, max_step);
        let _ = Radians::ZERO;
        ControlInput::new(self.throttle, self.brake, self.wheel)
    }

    fn recycle_frame(&mut self) -> Option<ReceivedFrame> {
        // Scenes either channel has released, for the decoder and for
        // `on_frame`'s copy.
        let scene = self
            .perception
            .recycle()
            .or_else(|| self.hazard_perception.recycle())?;
        Some(ReceivedFrame {
            snapshot: scene.snapshot,
            captured_at: scene.captured_at,
            received_at: scene.received_at,
        })
    }
}

/// Makes `copy` a copy of `percept`, cloning into its existing snapshot
/// allocation when both are present.
fn copy_percept(copy: &mut Option<PerceivedScene>, percept: Option<&PerceivedScene>) {
    match (copy.as_mut(), percept) {
        (Some(copy), Some(percept)) => copy.clone_from(percept),
        (_, percept) => *copy = percept.cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_core::{RdsSession, RdsSessionConfig, ScriptedOperator};
    use rdsim_netem::NetemConfig;
    use rdsim_roadnet::town05;
    use rdsim_simulator::{Behavior, CameraConfig, LaneFollowConfig, World};
    use rdsim_units::{Hertz, Millis, Ratio, SimDuration};
    use rdsim_vehicle::VehicleSpec;

    fn make_driver(seed: u64) -> HumanDriverModel {
        let profile = SubjectProfile::typical("Txx");
        HumanDriverModel::new(&profile, town05(), seed)
    }

    fn session(seed: u64, with_lead: bool) -> (RdsSession, LaneId) {
        let net = town05();
        let lane = net.spawn_point("ego-start").unwrap().lane;
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
        (RdsSession::new(world, config, seed), lane)
    }

    #[test]
    fn blind_driver_holds_brake() {
        let mut d = make_driver(1);
        let c = d.command(SimTime::from_millis(20));
        // No frame yet: coast with gentle brake once the first replan ran.
        assert_eq!(c.throttle.get(), 0.0);
        assert!(c.brake.get() > 0.0);
    }

    #[test]
    fn drives_lane_cleanly_without_faults() {
        let (mut s, lane) = session(2, false);
        let mut d = make_driver(2);
        d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));
        s.run(&mut d, SimDuration::from_secs(30));
        let world = s.world();
        let ego = world.ego_id().unwrap();
        let state = world.actor(ego).state();
        assert!(
            state.speed.get() > 8.0,
            "should reach near target speed: {}",
            state.speed
        );
        let proj = world.network().project(state.position()).unwrap();
        assert!(
            proj.lateral.get().abs() < 1.2,
            "should hold the lane: lateral {}",
            proj.lateral
        );
        assert_eq!(world.collision_count(), 0);
    }

    #[test]
    fn follows_lead_without_collision() {
        let (mut s, lane) = session(3, true);
        let mut d = make_driver(3);
        d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(13.0)));
        s.run(&mut d, SimDuration::from_secs(40));
        assert_eq!(s.world().collision_count(), 0, "golden run must not crash");
        // The driver actually follows: ends up within 60 m of the lead.
        let log_gap = s
            .world()
            .ego_lead_gap(Meters::new(150.0))
            .map(|(_, g, _)| g.get());
        assert!(
            log_gap.is_some_and(|g| g < 80.0),
            "gap {log_gap:?} should have closed"
        );
    }

    #[test]
    fn stops_on_instruction() {
        let (mut s, lane) = session(4, false);
        let mut d = make_driver(4);
        d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(10.0)));
        s.run(&mut d, SimDuration::from_secs(15));
        d.set_instruction(Instruction::stop_in(lane));
        s.run(&mut d, SimDuration::from_secs(15));
        let ego = s.world().ego_id().unwrap();
        assert!(s.world().actor(ego).state().speed.get() < 0.5);
    }

    #[test]
    fn steering_noise_rises_under_packet_loss() {
        // Variance of steering output with vs without 5 % loss.
        let steer_variance = |faulty: bool, seed: u64| {
            let (mut s, lane) = session(seed, false);
            if faulty {
                s.inject_now(NetemConfig::default().with_loss(Ratio::from_percent(5.0)));
            }
            let mut d = make_driver(seed);
            d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));
            s.run(&mut d, SimDuration::from_secs(40));
            let log = s.into_log();
            let steers: Vec<f64> = log.steering_series().iter().map(|s| s.value).collect();
            // Differences between consecutive commands ≈ correction energy.
            steers
                .windows(2)
                .map(|w| (w[1] - w[0]).powi(2))
                .sum::<f64>()
                / steers.len() as f64
        };
        let clean: f64 = (10..14).map(|s| steer_variance(false, s)).sum();
        let lossy: f64 = (10..14).map(|s| steer_variance(true, s)).sum();
        assert!(
            lossy > clean * 1.2,
            "loss should visibly roughen steering: clean {clean:.3e} lossy {lossy:.3e}"
        );
    }

    #[test]
    fn emergency_brake_fires_on_sudden_obstacle() {
        let net = town05();
        let lane = net.spawn_point("ego-start").unwrap().lane;
        let mut world = World::new(net);
        world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        // Parked van only 60 m ahead.
        world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::van(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        // Give the ego an initial speed so it closes fast.
        let ego = world.ego_id().unwrap();
        let sp = world.network().spawn_point("ego-start").unwrap();
        let pos = rdsim_roadnet::LanePosition::new(sp.lane, sp.s);
        world.teleport(ego, pos, MetersPerSecond::new(14.0));
        let config = RdsSessionConfig {
            camera: CameraConfig::fixed(Hertz::new(27.0), 4_000),
            ..RdsSessionConfig::default()
        };
        let mut s = RdsSession::new(world, config, 5);
        let mut d = make_driver(5);
        d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(14.0)));
        s.run(&mut d, SimDuration::from_secs(12));
        assert_eq!(
            s.world().collision_count(),
            0,
            "healthy feed: reflex must prevent the crash"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut s, lane) = session(seed, true);
            let mut d = make_driver(seed);
            d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(11.0)));
            s.run(&mut d, SimDuration::from_secs(10));
            let log = s.into_log();
            let last = log.ego_samples().last().copied().unwrap();
            (last.position.x, last.position.y, last.steer)
        };
        assert_eq!(run(6), run(6));
        assert_ne!(run(6), run(7));
    }

    #[test]
    fn scripted_and_human_operators_are_interchangeable() {
        // Both implement OperatorSubsystem; verify via dynamic dispatch.
        let (mut s, lane) = session(8, false);
        let mut human = make_driver(8);
        human.set_instruction(Instruction::drive(lane, MetersPerSecond::new(8.0)));
        let mut scripted = ScriptedOperator::constant(ControlInput::COAST);
        let ops: Vec<&mut dyn OperatorSubsystem> = vec![&mut human, &mut scripted];
        for op in ops {
            s.step(op);
        }
    }

    #[test]
    fn delay_increases_percept_staleness() {
        let (mut s, lane) = session(9, false);
        s.inject_now(NetemConfig::default().with_delay(Millis::new(50.0)));
        let mut d = make_driver(9);
        d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(10.0)));
        s.run(&mut d, SimDuration::from_secs(5));
        let now = s.time();
        // The percept is at least reaction + 50 ms old.
        let min_expected = d.params().reaction_time.get() + 0.05;
        let staleness = d
            .perception
            .percept(now)
            .map(|p| p.staleness(now).as_secs_f64())
            .unwrap();
        assert!(
            staleness >= min_expected,
            "staleness {staleness} < {min_expected}"
        );
    }
}

//! The simulated world: actors, stepping, sensors, weather.

use crate::sensors::{circumradius, discs_apart, CollisionTracker};
use crate::{
    obb_overlap, Actor, ActorId, ActorKind, ActorSnapshot, Behavior, CollisionEvent,
    LaneInvasionEvent, WorldSnapshot,
};
use rdsim_math::RngStream;
use rdsim_roadnet::{LaneId, LanePosition, LaneProjection, RoadNetwork};
use rdsim_units::{Meters, MetersPerSecond, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec, VehicleState};

/// Environmental meta-state (set via CARLA-style meta-commands).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Weather {
    /// Night-time driving (the paper's OD includes day and night).
    pub night: bool,
    /// Precipitation intensity.
    pub precipitation: Ratio,
}

/// The simulated world: a road network populated with actors, advanced on
/// a fixed step, with ego-centric collision and lane-invasion sensing.
#[derive(Debug)]
pub struct World {
    net: RoadNetwork,
    actors: Vec<Actor>,
    /// Each actor's whole-network projection, parallel to `actors`:
    /// `projections[i] == net.project(actors[i].state().position())`.
    /// Refreshed wherever a position changes (`spawn`, `set_state` behind
    /// both teleports, the integrate pass of `step`, which seeds each
    /// refresh with the actor's previous entry), so the per-tick readers
    /// (control decisions, leader search, lane-invasion sensing, lead-gap
    /// logging, [`projection`](Self::projection)) never project an actor
    /// twice.
    projections: Vec<Option<LaneProjection>>,
    time: SimTime,
    frame_hint: u64,
    weather: Weather,
    ego: Option<ActorId>,
    ego_lane: Option<LaneId>,
    ego_was_outside: bool,
    collision_tracker: CollisionTracker,
    collisions: Vec<CollisionEvent>,
    lane_invasions: Vec<LaneInvasionEvent>,
    collision_total: u64,
    lane_invasion_total: u64,
    /// Reusable pass-1 control buffer — `step` scratch, never observable.
    control_scratch: Vec<ControlInput>,
    /// Reusable candidate buffer for lane re-anchoring — sensor scratch.
    lane_candidates: Vec<LaneId>,
    #[allow(dead_code)]
    rng: RngStream,
}

impl World {
    /// Creates an empty world on the given road network.
    pub fn new(net: RoadNetwork, seed: u64) -> Self {
        World {
            net,
            actors: Vec::new(),
            projections: Vec::new(),
            time: SimTime::ZERO,
            frame_hint: 0,
            weather: Weather::default(),
            ego: None,
            ego_lane: None,
            ego_was_outside: false,
            collision_tracker: CollisionTracker::new(),
            collisions: Vec::new(),
            lane_invasions: Vec::new(),
            collision_total: 0,
            lane_invasion_total: 0,
            control_scratch: Vec::new(),
            lane_candidates: Vec::new(),
            rng: RngStream::from_seed(seed).substream("world"),
        }
    }

    /// The road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Current weather.
    pub fn weather(&self) -> Weather {
        self.weather
    }

    /// Sets the weather (a meta-command in CARLA terms).
    pub fn set_weather(&mut self, weather: Weather) {
        self.weather = weather;
    }

    /// The ego actor id, if an ego has been spawned.
    pub fn ego_id(&self) -> Option<ActorId> {
        self.ego
    }

    /// The lane the ego is currently tracked on.
    pub fn ego_lane(&self) -> Option<LaneId> {
        self.ego_lane
    }

    /// Spawns an actor at an explicit lane position.
    ///
    /// # Panics
    ///
    /// Panics if an ego already exists and `kind` is [`ActorKind::Ego`],
    /// or if the lane position is invalid for the network.
    pub fn spawn(
        &mut self,
        kind: ActorKind,
        spec: VehicleSpec,
        behavior: Behavior,
        position: LanePosition,
        speed: MetersPerSecond,
    ) -> ActorId {
        if kind == ActorKind::Ego {
            assert!(self.ego.is_none(), "an ego vehicle already exists");
        }
        let pose = self.net.pose_at(position);
        let id = ActorId(self.actors.len() as u32);
        let state = VehicleState::moving(pose, speed);
        self.projections.push(self.net.project(state.position()));
        self.actors
            .push(Actor::new(id, kind, spec, behavior, state));
        if kind == ActorKind::Ego {
            self.ego = Some(id);
            self.ego_lane = Some(position.lane);
            self.ego_was_outside = false;
        }
        id
    }

    /// Spawns the ego vehicle at a named spawn point, at rest.
    ///
    /// # Panics
    ///
    /// Panics if the spawn point does not exist or an ego already exists.
    pub fn spawn_ego_at(&mut self, spawn_name: &str, spec: VehicleSpec) -> ActorId {
        let sp = self.spawn_point(spawn_name);
        self.spawn(
            ActorKind::Ego,
            spec,
            Behavior::External,
            LanePosition::new(sp.0, sp.1),
            MetersPerSecond::ZERO,
        )
    }

    /// Spawns a non-ego actor at a named spawn point.
    ///
    /// # Panics
    ///
    /// Panics if the spawn point does not exist.
    pub fn spawn_npc_at(
        &mut self,
        spawn_name: &str,
        kind: ActorKind,
        spec: VehicleSpec,
        behavior: Behavior,
        speed: MetersPerSecond,
    ) -> ActorId {
        let sp = self.spawn_point(spawn_name);
        self.spawn(kind, spec, behavior, LanePosition::new(sp.0, sp.1), speed)
    }

    /// Convenience wrapper used by the doc examples: spawns at a named
    /// point inferring the kind from the behaviour (external control ⇒
    /// ego).
    pub fn spawn_at(&mut self, spawn_name: &str, spec: VehicleSpec, behavior: Behavior) -> ActorId {
        match behavior {
            Behavior::External => self.spawn_ego_at(spawn_name, spec),
            other => self.spawn_npc_at(
                spawn_name,
                ActorKind::Vehicle,
                spec,
                other,
                MetersPerSecond::ZERO,
            ),
        }
    }

    fn spawn_point(&self, name: &str) -> (LaneId, Meters) {
        let sp = self
            .net
            .spawn_point(name)
            .unwrap_or_else(|| panic!("unknown spawn point '{name}'"));
        (sp.lane, sp.s)
    }

    /// All actors.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// Looks up an actor.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.0 as usize]
    }

    /// An actor's whole-network projection, read from the projection
    /// column: bit for bit `network().project(position)` of its current
    /// position, without projecting. `None` only on an empty network.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn projection(&self, id: ActorId) -> Option<LaneProjection> {
        self.projections[id.0 as usize]
    }

    /// Sets the external control applied to an externally driven actor on
    /// subsequent steps.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn set_external_control(&mut self, id: ActorId, control: ControlInput) {
        self.actors[id.0 as usize].external_control = control.sanitized();
    }

    /// Replaces an actor's behaviour (scenario scripting: lane changes,
    /// speed-profile phases).
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn set_behavior(&mut self, id: ActorId, behavior: Behavior) {
        self.actors[id.0 as usize].set_behavior(behavior);
    }

    /// Places an actor at an arbitrary world pose, at rest (e.g. parked
    /// vehicles offset from the lane centre).
    pub fn teleport_pose(&mut self, id: ActorId, pose: rdsim_math::Pose2) {
        self.set_state(id, VehicleState::at_pose(pose));
    }

    /// Teleports an actor (used when resetting between runs).
    pub fn teleport(&mut self, id: ActorId, position: LanePosition, speed: MetersPerSecond) {
        let pose = self.net.pose_at(position);
        self.set_state(id, VehicleState::moving(pose, speed));
        if Some(id) == self.ego {
            self.ego_lane = Some(position.lane);
            self.ego_was_outside = false;
        }
    }

    /// Replaces an actor's state and re-projects it.
    fn set_state(&mut self, id: ActorId, state: VehicleState) {
        let i = id.0 as usize;
        self.actors[i].set_state(state);
        self.projections[i] = self.net.project(state.position());
    }

    /// Stamps the camera frame id used for event attribution.
    pub fn set_frame_hint(&mut self, frame_id: u64) {
        self.frame_hint = frame_id;
    }

    /// The camera frame id most recently stamped via
    /// [`set_frame_hint`](Self::set_frame_hint) — the same id a fresh
    /// [`snapshot`](Self::snapshot) would carry, without building one.
    pub fn frame_hint(&self) -> u64 {
        self.frame_hint
    }

    /// Advances the world by `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn step(&mut self, dt: SimDuration) {
        assert!(!dt.is_zero(), "dt must be non-zero");
        self.time += dt;
        let dt_s = dt.to_seconds();

        // Pass 1: decide controls from the pre-step world state. The
        // buffer persists across steps (taken, refilled, put back) so the
        // steady-state step performs no heap allocation here.
        let mut controls = std::mem::take(&mut self.control_scratch);
        controls.clear();
        controls.extend((0..self.actors.len()).map(|i| self.decide_control(i)));

        // Pass 2: integrate, then re-project whoever moved, seeded with
        // its own previous entry (it moved at most one tick's distance).
        for ((actor, control), proj) in self
            .actors
            .iter_mut()
            .zip(&controls)
            .zip(&mut self.projections)
        {
            actor.integrate(control, dt_s);
            // `integrate` returns before touching a Stationary actor's
            // state, so its projection is still exact.
            if !actor.is_stationary_behavior() {
                let position = actor.state().position();
                *proj = match *proj {
                    Some(prev) => self.net.project_seeded(position, prev.position),
                    None => self.net.project(position),
                };
            }
        }
        self.control_scratch = controls;

        // Pass 3: sensors.
        self.sense_collisions();
        self.sense_lane_invasion();

        debug_assert!(
            self.actors.iter().zip(&self.projections).all(|(a, p)| {
                projection_bits(p) == projection_bits(&self.net.project(a.state().position()))
            }),
            "stale projection column"
        );
    }

    fn decide_control(&self, index: usize) -> ControlInput {
        let actor = &self.actors[index];
        match actor.behavior() {
            Behavior::External => actor.external_control,
            Behavior::Stationary => ControlInput::COAST.with_handbrake(true),
            Behavior::LaneFollow(cfg) => {
                // The nearest lane's projection is the column entry itself:
                // `project` returns `project_onto_lane` of the lane it picks,
                // so an override naming that lane reads it too.
                let column = self.projections[index].expect("network has lanes");
                let pos = match cfg.lane_override {
                    Some(lane) if lane != column.position.lane => {
                        self.net
                            .project_onto_lane(lane, actor.state().position())
                            .position
                    }
                    _ => column.position,
                };
                let leader = self.find_leader(index, pos, cfg.leader_horizon);
                cfg.control(&self.net, pos, actor.state(), actor.spec(), leader)
            }
        }
    }

    /// Finds the nearest actor ahead of `pos` along its lane chain within
    /// `horizon`, returning bumper-to-bumper gap and closing speed.
    fn find_leader(
        &self,
        self_index: usize,
        pos: LanePosition,
        horizon: Meters,
    ) -> Option<(Meters, MetersPerSecond)> {
        let me = &self.actors[self_index];
        let mut best: Option<(Meters, MetersPerSecond)> = None;
        for (i, (other, proj)) in self.actors.iter().zip(&self.projections).enumerate() {
            if i == self_index || other.kind() == ActorKind::Prop {
                continue;
            }
            let Some(proj) = proj else { continue };
            // Must actually be on the lane, not merely projectable onto it.
            if proj.distance.get() > self.net.lane(proj.position.lane).width().get() {
                continue;
            }
            if let Some(gap_centres) = self.net.gap_along(pos, proj.position, horizon) {
                if gap_centres.get() < 0.05 {
                    continue; // co-located (e.g. the projection of self)
                }
                let bumper_gap = Meters::new(
                    (gap_centres.get()
                        - me.spec().length().get() / 2.0
                        - other.spec().length().get() / 2.0)
                        .max(0.05),
                );
                let closing =
                    MetersPerSecond::new(me.state().speed.get() - other.state().speed.get());
                if best.is_none_or(|(g, _)| bumper_gap < g) {
                    best = Some((bumper_gap, closing));
                }
            }
        }
        best
    }

    fn sense_collisions(&mut self) {
        let Some(ego_id) = self.ego else { return };
        let ego = &self.actors[ego_id.0 as usize];
        let ego_pose = ego.state().pose;
        let (ego_len, ego_wid) = (ego.spec().length(), ego.spec().width());
        let ego_radius = circumradius(ego_len, ego_wid);
        let ego_speed = ego.state().speed;
        for other in &self.actors {
            if other.id() == ego_id {
                continue;
            }
            let pose = other.state().pose;
            let (len, wid) = (other.spec().length(), other.spec().width());
            // Far pairs skip the SAT test, but the tracker still sees them,
            // so a contact episode ends exactly as before.
            let touching = !discs_apart(
                ego_pose.position,
                ego_radius,
                pose.position,
                circumradius(len, wid),
            ) && obb_overlap(ego_pose, ego_len, ego_wid, pose, len, wid);
            if self.collision_tracker.update(ego_id, other.id(), touching) {
                self.collision_total += 1;
                self.collisions.push(CollisionEvent {
                    time: self.time,
                    frame_id: self.frame_hint,
                    ego: ego_id,
                    other: other.id(),
                    relative_speed: MetersPerSecond::new(
                        (ego_speed.get() - other.state().speed.get()).abs(),
                    ),
                });
            }
        }
    }

    fn sense_lane_invasion(&mut self) {
        let Some(ego_id) = self.ego else { return };
        let Some(lane_id) = self.ego_lane else { return };
        let ego_pos = self.actors[ego_id.0 as usize].state().position();
        // On the column's lane the column entry is this projection.
        let proj = match self.projections[ego_id.0 as usize] {
            Some(column) if column.position.lane == lane_id => column,
            _ => self.net.project_onto_lane(lane_id, ego_pos),
        };
        let lane = self.net.lane(lane_id);
        let outside = lane.is_outside(proj.lateral);
        if outside && !self.ego_was_outside {
            self.lane_invasions.push(LaneInvasionEvent {
                time: self.time,
                frame_id: self.frame_hint,
                actor: ego_id,
                lane: lane_id,
                lateral: proj.lateral,
            });
            self.lane_invasion_total += 1;
        }
        self.ego_was_outside = outside;

        // Re-anchor the tracked lane to wherever the ego actually is:
        // current lane (already projected: `proj` is the first candidate),
        // its neighbours, or its successors (and their neighbours, to
        // follow diagonal motion at segment joints). The candidate buffer
        // persists across steps so this allocates only until it reaches
        // its high-water mark.
        let mut candidates = std::mem::take(&mut self.lane_candidates);
        candidates.clear();
        if let Some(l) = lane.left_neighbor() {
            candidates.push(l);
        }
        if let Some(r) = lane.right_neighbor() {
            candidates.push(r);
        }
        for &succ in lane.successors() {
            candidates.push(succ);
            let s = self.net.lane(succ);
            if let Some(l) = s.left_neighbor() {
                candidates.push(l);
            }
            if let Some(r) = s.right_neighbor() {
                candidates.push(r);
            }
        }
        let best = self.net.project_among_from(proj, &candidates, ego_pos);
        if best.position.lane != lane_id
            && !self.net.lane(best.position.lane).is_outside(best.lateral)
        {
            self.ego_lane = Some(best.position.lane);
            self.ego_was_outside = false;
        }
        self.lane_candidates = candidates;
    }

    /// Reserves the event buffers for one step's events: a lane invasion
    /// and a collision with every other actor. A caller that drains them
    /// every step then never grows them.
    pub fn reserve_step_events(&mut self) {
        self.collisions.reserve(self.actors.len().saturating_sub(1));
        self.lane_invasions.reserve(1);
    }

    /// Collision events recorded since the last drain. The world keeps
    /// its buffer's capacity.
    pub fn drain_collisions(&mut self) -> std::vec::Drain<'_, CollisionEvent> {
        self.collisions.drain(..)
    }

    /// Lane-invasion events recorded since the last drain. The world
    /// keeps its buffer's capacity.
    pub fn drain_lane_invasions(&mut self) -> std::vec::Drain<'_, LaneInvasionEvent> {
        self.lane_invasions.drain(..)
    }

    /// Total collisions since world creation.
    pub fn collision_count(&self) -> u64 {
        self.collision_total
    }

    /// Total lane invasions since world creation.
    pub fn lane_invasion_count(&self) -> u64 {
        self.lane_invasion_total
    }

    /// Straight-line distance between two actors' centres.
    pub fn distance_between(&self, a: ActorId, b: ActorId) -> Meters {
        self.actor(a)
            .state()
            .position()
            .distance_m(self.actor(b).state().position())
    }

    /// Gap and closing speed from the ego to its lead vehicle, if any —
    /// the quantity TTC is computed from.
    pub fn ego_lead_gap(&self, horizon: Meters) -> Option<(ActorId, Meters, MetersPerSecond)> {
        let ego_id = self.ego?;
        let ego = self.actor(ego_id);
        let proj = self.projections[ego_id.0 as usize]?;
        let mut best: Option<(ActorId, Meters, MetersPerSecond)> = None;
        for (other, oproj) in self.actors.iter().zip(&self.projections) {
            if other.id() == ego_id || other.kind() != ActorKind::Vehicle {
                continue;
            }
            let oproj = (*oproj)?;
            if oproj.distance.get() > self.net.lane(oproj.position.lane).width().get() {
                continue;
            }
            if let Some(gap) = self.net.gap_along(proj.position, oproj.position, horizon) {
                if gap.get() < 0.05 {
                    continue;
                }
                if best.is_none_or(|(_, g, _)| gap < g) {
                    let closing =
                        MetersPerSecond::new(ego.state().speed.get() - other.state().speed.get());
                    best = Some((other.id(), gap, closing));
                }
            }
        }
        best
    }

    /// Builds a snapshot of the current scene (what a camera frame shows).
    pub fn snapshot(&self) -> WorldSnapshot {
        let mut snapshot = WorldSnapshot {
            time: SimTime::ZERO,
            frame_id: 0,
            ego: None,
            others: Vec::with_capacity(self.actors.len().saturating_sub(1)),
        };
        self.snapshot_into(&mut snapshot);
        snapshot
    }

    /// Writes the current scene into an existing snapshot, reusing its
    /// `others` allocation. Allocation-free once the vector has capacity
    /// for every non-ego actor.
    pub fn snapshot_into(&self, snapshot: &mut WorldSnapshot) {
        let to_snap = |a: &Actor| ActorSnapshot {
            id: a.id(),
            kind: a.kind(),
            pose: a.state().pose,
            speed: a.state().speed,
            length: a.spec().length(),
            width: a.spec().width(),
        };
        snapshot.ego = self.ego.map(|id| to_snap(self.actor(id)));
        snapshot.others.clear();
        snapshot.others.extend(
            self.actors
                .iter()
                .filter(|a| Some(a.id()) != self.ego)
                .map(to_snap),
        );
        snapshot.time = self.time;
        snapshot.frame_id = self.frame_hint;
    }
}

/// A projection as raw bits, so NaN and signed zeros compare exactly.
fn projection_bits(p: &Option<LaneProjection>) -> Option<(u32, u64, u64, u64)> {
    p.map(|p| {
        (
            p.position.lane.0,
            p.position.s.get().to_bits(),
            p.lateral.get().to_bits(),
            p.distance.get().to_bits(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::LaneFollowConfig;
    use proptest::prelude::*;
    use rdsim_math::{Pose2, Vec2};
    use rdsim_roadnet::town05;
    use rdsim_units::{Radians, Seconds};

    const DT: SimDuration = SimDuration::from_millis(20);

    fn world() -> World {
        World::new(town05(), 42)
    }

    #[test]
    fn spawn_and_lookup() {
        let mut w = world();
        let ego = w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        assert_eq!(w.ego_id(), Some(ego));
        assert_eq!(w.actor(ego).kind(), ActorKind::Ego);
        assert!(w.ego_lane().is_some());
        let npc = w.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        assert_eq!(w.actors().len(), 2);
        assert!((w.distance_between(ego, npc).get() - 40.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn second_ego_panics() {
        let mut w = world();
        w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        w.spawn_ego_at("lead-start", VehicleSpec::passenger_car());
    }

    #[test]
    #[should_panic(expected = "unknown spawn point")]
    fn unknown_spawn_point_panics() {
        let mut w = world();
        w.spawn_ego_at("nowhere", VehicleSpec::passenger_car());
    }

    #[test]
    fn external_control_drives_ego() {
        let mut w = world();
        let ego = w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        w.set_external_control(ego, ControlInput::full_throttle());
        for _ in 0..250 {
            w.step(DT);
        }
        assert!(w.actor(ego).state().speed.get() > 10.0);
        assert_eq!(w.time(), SimTime::from_secs(5));
    }

    #[test]
    fn lane_follow_npc_tracks_lane() {
        let mut w = world();
        let npc = w.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(10.0))),
            MetersPerSecond::new(10.0),
        );
        for _ in 0..500 {
            w.step(DT);
        }
        // Still on the road and near cruise speed after 10 s.
        let state = w.actor(npc).state();
        let proj = w.network().project(state.position()).unwrap();
        assert!(
            proj.lateral.get().abs() < 1.0,
            "lateral drift {}",
            proj.lateral
        );
        assert!(
            (state.speed.get() - 10.0).abs() < 1.0,
            "speed {}",
            state.speed
        );
    }

    #[test]
    fn npc_follows_ring_through_corner() {
        let mut w = world();
        let npc = w.spawn_npc_at(
            "cyclist-2", // 520 m along the 600 m south avenue
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(12.0))),
            MetersPerSecond::new(12.0),
        );
        // 15 s at ~12 m/s ≈ 180 m: well around the south-east corner.
        for _ in 0..750 {
            w.step(DT);
        }
        let state = w.actor(npc).state();
        let proj = w.network().project(state.position()).unwrap();
        assert!(proj.lateral.get().abs() < 1.2, "off lane: {}", proj.lateral);
        assert!(
            state.position().x > 590.0,
            "should be past the corner: {}",
            state.position()
        );
    }

    #[test]
    fn idm_npc_stops_behind_parked_vehicle() {
        let mut w = world();
        w.spawn_npc_at(
            "slalom-1",
            ActorKind::Vehicle,
            VehicleSpec::van(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        let follower = w.spawn_npc_at(
            "ego-start", // 230 m behind slalom-1
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(14.0))),
            MetersPerSecond::new(14.0),
        );
        for _ in 0..2000 {
            w.step(DT);
        }
        let state = w.actor(follower).state();
        assert!(
            state.speed.get() < 0.5,
            "should have stopped, v = {}",
            state.speed
        );
        // Stopped short of the parked van.
        assert!(state.position().x < 250.0 - 4.0);
        assert_eq!(w.collision_count(), 0);
    }

    #[test]
    fn collision_detected_once_per_episode() {
        let mut w = world();
        let ego = w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        w.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::van(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        w.set_external_control(ego, ControlInput::full_throttle());
        let mut steps = 0;
        while w.collision_count() == 0 && steps < 1000 {
            w.step(DT);
            steps += 1;
        }
        assert_eq!(w.collision_count(), 1, "ego must hit the parked van");
        let events: Vec<_> = w.drain_collisions().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ego, ego);
        assert!(events[0].relative_speed.get() > 1.0);
        // Keep ramming: still one episode.
        for _ in 0..50 {
            w.step(DT);
        }
        assert_eq!(w.collision_count(), 1);
        assert_eq!(w.drain_collisions().len(), 0);
    }

    #[test]
    fn lane_invasion_on_boundary_crossing() {
        let mut w = world();
        let ego = w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        // Drive forward while steering left: crosses into the inner lane.
        w.set_external_control(ego, ControlInput::new(0.6, 0.0, 0.4));
        for _ in 0..300 {
            w.step(DT);
        }
        assert!(
            w.lane_invasion_count() >= 1,
            "steering across the lane must log an invasion"
        );
        let events: Vec<_> = w.drain_lane_invasions().collect();
        assert!(!events.is_empty());
        assert_eq!(events[0].actor, ego);
        // The tracked lane eventually re-anchors (ego ends up on some lane
        // or off-road, but the tracker must not be stuck outside forever
        // while the ego is on the neighbour lane centre).
    }

    #[test]
    fn ego_lead_gap_reports_vehicle_ahead() {
        let mut w = world();
        w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        let lead = w.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        let (id, gap, closing) = w.ego_lead_gap(Meters::new(100.0)).unwrap();
        assert_eq!(id, lead);
        assert!((gap.get() - 40.0).abs() < 1.0);
        assert_eq!(closing.get(), 0.0);
        // Cyclists are not TTC lead candidates.
        let mut w2 = world();
        w2.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        w2.spawn_npc_at(
            "lead-start",
            ActorKind::Cyclist,
            VehicleSpec::bicycle(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        assert!(w2.ego_lead_gap(Meters::new(100.0)).is_none());
    }

    #[test]
    fn snapshot_contains_scene() {
        let mut w = world();
        let ego = w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        w.spawn_npc_at(
            "slalom-1",
            ActorKind::Vehicle,
            VehicleSpec::van(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        w.set_frame_hint(7);
        let snap = w.snapshot();
        assert_eq!(snap.frame_id, 7);
        assert_eq!(snap.ego.unwrap().id, ego);
        assert_eq!(snap.others.len(), 1);
        assert_eq!(snap.actor_count(), 2);
    }

    #[test]
    fn teleport_resets_pose() {
        let mut w = world();
        let ego = w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        w.set_external_control(ego, ControlInput::full_throttle());
        for _ in 0..100 {
            w.step(DT);
        }
        let sp = w.network().spawn_point("ego-start").unwrap();
        let (lane, s) = (sp.lane, sp.s);
        w.teleport(ego, LanePosition::new(lane, s), MetersPerSecond::ZERO);
        assert!(w.actor(ego).state().is_stationary());
        let expected = w.network().pose_at(LanePosition::new(lane, s)).position;
        assert!(w.actor(ego).state().position().distance(expected) < 1e-9);
    }

    #[test]
    fn weather_meta_command() {
        let mut w = world();
        assert!(!w.weather().night);
        w.set_weather(Weather {
            night: true,
            precipitation: Ratio::from_percent(20.0),
        });
        assert!(w.weather().night);
        let _ = Seconds::new(0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_step_panics() {
        let mut w = world();
        w.step(SimDuration::ZERO);
    }

    /// `ego_lead_gap` with every projection computed afresh by
    /// `net.project`: the same filters and tie-breaks, no column.
    fn lead_gap_reference(
        w: &World,
        horizon: Meters,
    ) -> Option<(ActorId, Meters, MetersPerSecond)> {
        let net = w.network();
        let ego = w.actor(w.ego_id()?);
        let proj = net.project(ego.state().position())?;
        let mut best: Option<(ActorId, Meters, MetersPerSecond)> = None;
        for other in w.actors() {
            if other.id() == ego.id() || other.kind() != ActorKind::Vehicle {
                continue;
            }
            let oproj = net.project(other.state().position())?;
            if oproj.distance.get() > net.lane(oproj.position.lane).width().get() {
                continue;
            }
            if let Some(gap) = net.gap_along(proj.position, oproj.position, horizon) {
                if gap.get() >= 0.05 && best.is_none_or(|(_, g, _)| gap < g) {
                    let closing =
                        MetersPerSecond::new(ego.state().speed.get() - other.state().speed.get());
                    best = Some((other.id(), gap, closing));
                }
            }
        }
        best
    }

    /// One world operation: `(kind, a, b, x, y, z)` picks the operation,
    /// an actor, a lane and the continuous arguments.
    type Op = (u8, usize, usize, f64, f64, f64);

    fn apply(w: &mut World, (kind, a, b, x, y, z): Op) {
        let id = ActorId((a % w.actors().len()) as u32);
        let lane = LaneId((b % w.network().lane_count()) as u32);
        let at = LanePosition::new(lane, w.network().lane(lane).length() * x);
        let speed = MetersPerSecond::new(15.0 * y);
        let behavior = match b % 4 {
            0 => Behavior::Stationary,
            1 => Behavior::LaneFollow(LaneFollowConfig::urban(speed)),
            2 => Behavior::LaneFollow(LaneFollowConfig::cyclist(speed).with_lane(lane)),
            _ => Behavior::External,
        };
        match kind {
            0 if w.actors().len() < 12 => {
                let (kind, spec) = match a % 3 {
                    0 => (ActorKind::Vehicle, VehicleSpec::van()),
                    1 => (ActorKind::Cyclist, VehicleSpec::bicycle()),
                    _ => (ActorKind::Prop, VehicleSpec::passenger_car()),
                };
                w.spawn(kind, spec, behavior, at, speed);
            }
            1 => w.teleport(id, at, speed),
            2 => w.teleport_pose(
                id,
                Pose2::new(
                    Vec2::new(750.0 * x - 50.0, 500.0 * y - 50.0),
                    Radians::new(std::f64::consts::PI * z),
                ),
            ),
            3 => w.set_behavior(id, behavior),
            _ => {
                let ego = w.ego_id().expect("spawned first");
                w.set_external_control(ego, ControlInput::new(x, 0.2 * y, z));
                for _ in 0..=b % 8 {
                    w.step(DT);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn projection_column_stays_fresh(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..64, 0usize..64, 0.0f64..1.0, 0.0f64..1.0, -1.0f64..1.0),
                1..40,
            ),
        ) {
            let mut w = world();
            w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
            w.spawn_npc_at(
                "lead-start",
                ActorKind::Vehicle,
                VehicleSpec::passenger_car(),
                Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(8.0))),
                MetersPerSecond::new(8.0),
            );
            // Lane overrides naming the spawn lane (read from the column)
            // and its inner neighbour (projected).
            for lane in [LaneId(0), LaneId(1)] {
                let cfg = LaneFollowConfig::urban(MetersPerSecond::new(6.0)).with_lane(lane);
                w.spawn_npc_at(
                    "slalom-1",
                    ActorKind::Vehicle,
                    VehicleSpec::passenger_car(),
                    Behavior::LaneFollow(cfg),
                    MetersPerSecond::new(6.0),
                );
            }
            let horizon = Meters::new(400.0);
            for op in ops {
                apply(&mut w, op);
                for a in w.actors() {
                    let position = a.state().position();
                    let column = w.projection(a.id());
                    let fresh = w.network().project(position);
                    prop_assert_eq!(projection_bits(&column), projection_bits(&fresh));
                    // The identities the column reads rest on: the
                    // column's lane projected onto directly (`lane_override`
                    // in `decide_control`, the tracked lane in
                    // `sense_lane_invasion`) is the column entry.
                    let column = column.expect("town05 has lanes");
                    let direct = w.network().project_onto_lane(column.position.lane, position);
                    prop_assert_eq!(projection_bits(&Some(column)), projection_bits(&Some(direct)));
                }
                if let (Some(ego), Some(lane)) = (w.ego_id(), w.ego_lane()) {
                    // Re-anchoring, started from the column entry when the
                    // tracked lane is the column's lane, picks the first
                    // nearest candidate, each projected in full.
                    let position = w.actor(ego).state().position();
                    let net = w.network();
                    let l = net.lane(lane);
                    let others: Vec<LaneId> = l
                        .left_neighbor()
                        .into_iter()
                        .chain(l.right_neighbor())
                        .chain(l.successors().iter().copied())
                        .collect();
                    let start = match w.projection(ego) {
                        Some(column) if column.position.lane == lane => column,
                        _ => net.project_onto_lane(lane, position),
                    };
                    let mut want = net.project_onto_lane(lane, position);
                    for &id in &others {
                        let proj = net.project_onto_lane(id, position);
                        if proj.distance < want.distance {
                            want = proj;
                        }
                    }
                    prop_assert_eq!(
                        projection_bits(&Some(net.project_among_from(start, &others, position))),
                        projection_bits(&Some(want))
                    );
                }
                prop_assert_eq!(w.ego_lead_gap(horizon), lead_gap_reference(&w, horizon));
            }
        }
    }

    #[test]
    fn nan_positioned_npc_steps_without_panicking() {
        // A NaN position still projects (lane 0, s 0, infinite distance),
        // seeded or not, so the control decision finds its column entry.
        let mut w = world();
        w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        let mut npcs = Vec::new();
        for cfg in [
            LaneFollowConfig::urban(MetersPerSecond::new(8.0)),
            LaneFollowConfig::urban(MetersPerSecond::new(8.0)).with_lane(LaneId(0)),
        ] {
            npcs.push(w.spawn_npc_at(
                "lead-start",
                ActorKind::Vehicle,
                VehicleSpec::passenger_car(),
                Behavior::LaneFollow(cfg),
                MetersPerSecond::new(8.0),
            ));
        }
        for &npc in &npcs {
            w.teleport_pose(npc, Pose2::new(Vec2::new(f64::NAN, 0.0), Radians::new(0.0)));
        }
        for _ in 0..20 {
            w.step(DT);
        }
        for npc in npcs {
            let proj = w.projection(npc).expect("NaN still projects");
            assert_eq!(proj.position, LanePosition::new(LaneId(0), Meters::ZERO));
            assert_eq!(proj.distance.get(), f64::INFINITY);
        }
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut w = world();
            let ego = w.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
            w.spawn_npc_at(
                "lead-start",
                ActorKind::Vehicle,
                VehicleSpec::passenger_car(),
                Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(8.0))),
                MetersPerSecond::new(8.0),
            );
            w.set_external_control(ego, ControlInput::new(0.5, 0.0, 0.02));
            for _ in 0..500 {
                w.step(DT);
            }
            let s = w.actor(ego).state();
            (s.position().x, s.position().y, s.speed.get())
        };
        assert_eq!(run(), run());
    }
}

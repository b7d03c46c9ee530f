//! The CARLA-style server facade: the "vehicle subsystem" plant.

use crate::{frame_len, CameraConfig, CameraSensor, VideoFrame, World, WorldSnapshot};
use bytes::BufPool;
use rdsim_math::RngStream;
use rdsim_obs::Recorder;
use rdsim_units::SimDuration;
use rdsim_vehicle::ControlInput;

/// Wraps a [`World`] behind the interface the RDS stack talks to: driving
/// commands go in, video frames come out.
///
/// Mirroring the paper's setup (which deliberately has *no* safety
/// measures against network disturbances), the server simply keeps
/// applying the most recently received command — stale commands are
/// exactly how delay and loss degrade control. Vehicle-side measures
/// against a silent link live in `rdsim_core::safety`.
#[derive(Debug)]
pub struct SimulatorServer {
    world: World,
    camera: CameraSensor,
    last_command: ControlInput,
    /// Reused scene snapshot the camera encodes from — per-session
    /// scratch so steady-state captures never rebuild the actor list.
    snap_scratch: WorldSnapshot,
    /// Pool backing frame payloads; slots sized to the encoded scene of
    /// the world's actors, so even the first encode into a fresh slot
    /// does not regrow it.
    frame_pool: BufPool,
}

impl SimulatorServer {
    /// Creates a server around a world.
    ///
    /// # Panics
    ///
    /// Panics if the world has no ego vehicle — the server exists to drive
    /// one.
    pub fn new(world: World, camera_config: CameraConfig, seed: u64) -> Self {
        assert!(
            world.ego_id().is_some(),
            "SimulatorServer requires a spawned ego vehicle"
        );
        let frame_pool = BufPool::with_slot_capacity(frame_len(world.actors().len()));
        SimulatorServer {
            world,
            camera: CameraSensor::new(
                camera_config,
                RngStream::from_seed(seed).substream("server-camera"),
            ),
            last_command: ControlInput::COAST,
            snap_scratch: WorldSnapshot::default(),
            frame_pool,
        }
    }

    /// Attaches a telemetry recorder; forwarded to the camera so frame
    /// encodes are timed (`codec.encode_ns`) and sized
    /// (`codec.frame_bytes`).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.camera.set_recorder(recorder);
    }

    /// The camera configuration of the video feed.
    pub fn camera_config(&self) -> &CameraConfig {
        self.camera.config()
    }

    /// The wrapped world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the wrapped world (scenario setup, meta-commands).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Applies a driving command received from the operator subsystem.
    pub fn apply_command(&mut self, command: ControlInput) {
        self.last_command = command.sanitized();
    }

    /// The command currently being applied.
    pub fn active_command(&self) -> ControlInput {
        self.last_command
    }

    /// Advances the physics plant by `dt`, applying the active command to
    /// the ego. The session step runs it as its own stage, ahead of
    /// [`capture_into`](Self::capture_into), so plant integration and
    /// sensing are timed separately.
    pub fn advance_plant(&mut self, dt: SimDuration) {
        let ego = self.world.ego_id().expect("checked at construction");
        self.world.set_external_control(ego, self.last_command);
        self.world.step(dt);
    }

    /// Polls the camera sensor at the current world time, appending
    /// captured frames to `out`. The scene is staged in the server's
    /// snapshot scratch and payloads come from its frame pool, so steady
    /// state this allocates nothing.
    pub fn capture_into(&mut self, out: &mut Vec<VideoFrame>) {
        let now = self.world.time();
        let start = out.len();
        // Borrow dance: snapshot needs &world while camera is &mut self.
        let world = &self.world;
        self.camera.poll_into(
            now,
            |snap| world.snapshot_into(snap),
            &mut self.snap_scratch,
            &self.frame_pool,
            out,
        );
        if let Some(last) = out[start..].last() {
            self.world.set_frame_hint(last.frame_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_frame_into, ActorKind, Behavior};
    use rdsim_roadnet::town05;
    use rdsim_units::{Hertz, MetersPerSecond};
    use rdsim_vehicle::VehicleSpec;

    const DT: SimDuration = SimDuration::from_millis(20);

    /// One plant step followed by a capture, as the session step runs
    /// them.
    fn tick(srv: &mut SimulatorServer) -> Vec<VideoFrame> {
        srv.advance_plant(DT);
        let mut frames = Vec::new();
        srv.capture_into(&mut frames);
        frames
    }

    fn server() -> SimulatorServer {
        let mut world = World::new(town05());
        world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        SimulatorServer::new(world, CameraConfig::fixed(Hertz::new(25.0), 2_000), 7)
    }

    #[test]
    #[should_panic(expected = "requires a spawned ego")]
    fn server_without_ego_panics() {
        let world = World::new(town05());
        let _ = SimulatorServer::new(world, CameraConfig::default(), 7);
    }

    #[test]
    fn commands_drive_the_ego() {
        let mut srv = server();
        srv.apply_command(ControlInput::full_throttle());
        for _ in 0..100 {
            tick(&mut srv);
        }
        let ego = srv.world().ego_id().unwrap();
        assert!(srv.world().actor(ego).state().speed.get() > 3.0);
        assert_eq!(srv.active_command(), ControlInput::full_throttle());
    }

    #[test]
    fn stale_command_keeps_applying() {
        // No safety measures: the last command persists — the failure mode
        // the paper studies.
        let mut srv = server();
        srv.apply_command(ControlInput::full_throttle());
        for _ in 0..250 {
            tick(&mut srv);
        }
        assert_eq!(srv.active_command(), ControlInput::full_throttle());
        let ego = srv.world().ego_id().unwrap();
        assert!(srv.world().actor(ego).state().speed.get() > 10.0);
    }

    #[test]
    fn frames_stream_at_camera_rate() {
        let mut srv = server();
        let mut frames = Vec::new();
        for _ in 0..100 {
            frames.extend(tick(&mut srv));
        }
        // 2 s at 25 fps = 50 frames.
        assert!((48..=52).contains(&frames.len()), "{} frames", frames.len());
        // Frames decode and contain the scene.
        let mut snap = WorldSnapshot::default();
        decode_frame_into(&frames[10].payload, &mut snap).unwrap();
        assert!(snap.ego.is_some());
        assert_eq!(snap.others.len(), 1);
        // Frame ids are monotone.
        for w in frames.windows(2) {
            assert!(w[1].frame_id > w[0].frame_id);
        }
    }

    #[test]
    fn frame_hint_propagates_to_events() {
        let mut srv = server();
        srv.apply_command(ControlInput::full_throttle());
        let mut steps = 0;
        while srv.world().collision_count() == 0 && steps < 2000 {
            tick(&mut srv);
            steps += 1;
        }
        let events: Vec<_> = srv.world_mut().drain_collisions().collect();
        assert_eq!(events.len(), 1);
        assert!(events[0].frame_id > 0, "event carries the camera frame id");
    }
}

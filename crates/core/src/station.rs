//! The operator subsystem: the driving station plus whoever sits at it.
//!
//! This is the single home of both station abstractions: the behavioural
//! [`OperatorSubsystem`] trait (who sits at the station) and the
//! [`StationSpec`] rig inventory (what the station is built from,
//! Table I of the paper).

use rdsim_simulator::{CameraConfig, WorldSnapshot};
use rdsim_units::{Hertz, SimDuration, SimTime};
use rdsim_vehicle::ControlInput;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A frame as delivered to the driving station.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceivedFrame {
    /// Decoded scene.
    pub snapshot: WorldSnapshot,
    /// When the camera captured it.
    pub captured_at: SimTime,
    /// When it arrived at the station.
    pub received_at: SimTime,
}

impl ReceivedFrame {
    /// The glass-to-glass latency of this frame.
    pub fn latency(&self) -> SimDuration {
        self.received_at.saturating_since(self.captured_at)
    }
}

/// The operator subsystem of the RDS: consumes the video feed, produces
/// driving commands. Implemented by the simulated human driver models in
/// `rdsim-operator`, and by scripted operators for deterministic tests.
pub trait OperatorSubsystem {
    /// Delivers a successfully decoded frame to the station display.
    ///
    /// Frames arrive in network order, which under jitter is not capture
    /// order; implementations should ignore frames older than the newest
    /// one already shown (real video pipelines do the same).
    fn on_frame(&mut self, frame: ReceivedFrame);

    /// Notifies that a frame arrived but failed its checksum (corruption
    /// fault). Default: ignored, like a decoder dropping a broken frame.
    fn on_bad_frame(&mut self, _received_at: SimTime) {}

    /// Samples the operator's controls at time `now`. Called at the
    /// station's command rate (every session step).
    fn command(&mut self, now: SimTime) -> ControlInput;

    /// Hands a no-longer-needed frame back to the pipeline so its
    /// snapshot allocation can be reused for the next decode.
    ///
    /// Called before a frame delivery whenever the pipeline has no
    /// holder of its own parked (one is parked by a frame that failed to
    /// decode). Returning `None` — the default — makes the pipeline
    /// allocate a fresh holder; operators that consume frames immediately
    /// can return their previous one, and operators that buffer frames
    /// (the driver model's percept queues) can return one they have
    /// released, to make steady-state display allocation-free.
    fn recycle_frame(&mut self) -> Option<ReceivedFrame> {
        None
    }
}

/// A deterministic operator for tests and examples: plays a fixed control,
/// or a piecewise schedule.
#[derive(Debug, Clone)]
pub struct ScriptedOperator {
    schedule: Vec<(SimTime, ControlInput)>,
    frames_seen: u64,
    bad_frames: u64,
    last_frame_id: Option<u64>,
    /// Most recent frame, kept only so `recycle_frame` can hand its
    /// allocation back to the pipeline.
    spare: Option<ReceivedFrame>,
}

impl ScriptedOperator {
    /// An operator that always outputs the same control.
    pub fn constant(control: ControlInput) -> Self {
        ScriptedOperator {
            schedule: vec![(SimTime::ZERO, control)],
            frames_seen: 0,
            bad_frames: 0,
            last_frame_id: None,
            spare: None,
        }
    }

    /// An operator following a piecewise-constant schedule: each entry
    /// `(from, control)` applies from its time until the next entry.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or not sorted by time.
    pub fn piecewise(schedule: Vec<(SimTime, ControlInput)>) -> Self {
        assert!(!schedule.is_empty(), "schedule must not be empty");
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule must be time-sorted"
        );
        ScriptedOperator {
            schedule,
            frames_seen: 0,
            bad_frames: 0,
            last_frame_id: None,
            spare: None,
        }
    }

    /// Frames successfully received.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Corrupted frames notified.
    pub fn bad_frames(&self) -> u64 {
        self.bad_frames
    }

    /// Newest frame id displayed.
    pub fn last_frame_id(&self) -> Option<u64> {
        self.last_frame_id
    }
}

impl OperatorSubsystem for ScriptedOperator {
    fn on_frame(&mut self, frame: ReceivedFrame) {
        self.frames_seen += 1;
        if self
            .last_frame_id
            .is_none_or(|id| frame.snapshot.frame_id > id)
        {
            self.last_frame_id = Some(frame.snapshot.frame_id);
        }
        self.spare = Some(frame);
    }

    fn on_bad_frame(&mut self, _received_at: SimTime) {
        self.bad_frames += 1;
    }

    fn command(&mut self, now: SimTime) -> ControlInput {
        let mut current = self.schedule[0].1;
        for (from, control) in &self.schedule {
            if *from <= now {
                current = *control;
            } else {
                break;
            }
        }
        current
    }

    fn recycle_frame(&mut self) -> Option<ReceivedFrame> {
        self.spare.take()
    }
}

/// Technical specification of a driving station, as Table I inventories
/// the paper's rig. Behaviourally, only the video frame-rate band enters
/// the simulation; the rest is faithfully recorded configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationSpec {
    /// CPU and memory.
    pub cpu_and_ram: String,
    /// Display.
    pub monitor: String,
    /// Input devices.
    pub input_device: String,
    /// Graphics card.
    pub gpu: String,
    /// Operating system.
    pub operating_system: String,
    /// GPU driver version.
    pub gpu_driver: String,
    /// Video frame-rate band of the simulator feed.
    pub min_fps: Hertz,
    /// Upper end of the frame-rate band.
    pub max_fps: Hertz,
}

impl StationSpec {
    /// The paper's driving station (Table I) with its observed 25–30 fps
    /// simulator feed.
    pub fn paper_station() -> Self {
        StationSpec {
            cpu_and_ram: "Intel Core i7-12700K (12-core), 16 GB RAM".to_owned(),
            monitor: "34\" Samsung WQHD (3440x1440) curved".to_owned(),
            input_device: "Logitech G27 steering wheel and pedals".to_owned(),
            gpu: "NVIDIA GeForce RTX 3080, 10 GB".to_owned(),
            operating_system: "Ubuntu 18.04".to_owned(),
            gpu_driver: "470.103.01".to_owned(),
            min_fps: Hertz::new(25.0),
            max_fps: Hertz::new(30.0),
        }
    }

    /// The camera configuration this station produces.
    pub fn camera_config(&self) -> CameraConfig {
        CameraConfig {
            min_fps: self.min_fps,
            max_fps: self.max_fps,
            ..CameraConfig::default()
        }
    }
}

impl fmt::Display for StationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CPU and RAM      {}", self.cpu_and_ram)?;
        writeln!(f, "Monitor          {}", self.monitor)?;
        writeln!(f, "Input device     {}", self.input_device)?;
        writeln!(f, "GPU              {}", self.gpu)?;
        writeln!(f, "Operating system {}", self.operating_system)?;
        writeln!(f, "NVIDIA driver    {}", self.gpu_driver)?;
        write!(
            f,
            "Video feed       {:.0}-{:.0} fps",
            self.min_fps.get(),
            self.max_fps.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u64, captured_ms: u64, received_ms: u64) -> ReceivedFrame {
        ReceivedFrame {
            snapshot: WorldSnapshot {
                time: SimTime::from_millis(captured_ms),
                frame_id: id,
                ego: None,
                others: Vec::new(),
            },
            captured_at: SimTime::from_millis(captured_ms),
            received_at: SimTime::from_millis(received_ms),
        }
    }

    #[test]
    fn latency() {
        assert_eq!(frame(0, 100, 150).latency(), SimDuration::from_millis(50));
    }

    #[test]
    fn constant_operator() {
        let mut op = ScriptedOperator::constant(ControlInput::full_throttle());
        assert_eq!(op.command(SimTime::ZERO), ControlInput::full_throttle());
        assert_eq!(
            op.command(SimTime::from_secs(100)),
            ControlInput::full_throttle()
        );
    }

    #[test]
    fn piecewise_schedule() {
        let mut op = ScriptedOperator::piecewise(vec![
            (SimTime::ZERO, ControlInput::full_throttle()),
            (SimTime::from_secs(5), ControlInput::full_brake()),
        ]);
        assert_eq!(
            op.command(SimTime::from_secs(1)),
            ControlInput::full_throttle()
        );
        assert_eq!(
            op.command(SimTime::from_secs(5)),
            ControlInput::full_brake()
        );
        assert_eq!(
            op.command(SimTime::from_secs(9)),
            ControlInput::full_brake()
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_schedule_panics() {
        let _ = ScriptedOperator::piecewise(vec![]);
    }

    #[test]
    fn frame_bookkeeping_ignores_stale() {
        let mut op = ScriptedOperator::constant(ControlInput::COAST);
        op.on_frame(frame(5, 0, 10));
        op.on_frame(frame(3, 0, 11)); // out-of-order: counted, not shown
        assert_eq!(op.frames_seen(), 2);
        assert_eq!(op.last_frame_id(), Some(5));
        op.on_bad_frame(SimTime::from_millis(12));
        assert_eq!(op.bad_frames(), 1);
    }

    #[test]
    fn paper_station_matches_table1() {
        let s = StationSpec::paper_station();
        assert!(s.cpu_and_ram.contains("i7-12700K"));
        assert!(s.monitor.contains("3440x1440"));
        assert!(s.input_device.contains("G27"));
        assert!(s.gpu.contains("RTX 3080"));
        assert_eq!(s.operating_system, "Ubuntu 18.04");
        assert_eq!(s.min_fps, Hertz::new(25.0));
        assert_eq!(s.max_fps, Hertz::new(30.0));
    }

    #[test]
    fn camera_config_uses_band() {
        let c = StationSpec::paper_station().camera_config();
        assert_eq!(c.min_fps, Hertz::new(25.0));
        assert_eq!(c.max_fps, Hertz::new(30.0));
    }

    #[test]
    fn station_display_renders_all_rows() {
        let text = StationSpec::paper_station().to_string();
        for key in [
            "CPU",
            "Monitor",
            "Input",
            "GPU",
            "Operating",
            "driver",
            "fps",
        ] {
            assert!(text.contains(key), "missing {key}");
        }
    }
}

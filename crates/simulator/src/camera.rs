//! The camera sensor: produces video frames at 25–30 fps.

use crate::{encode_frame_pooled, frame_len, WorldSnapshot};
use bytes::{BufPool, Bytes};
use rdsim_math::RngStream;
use rdsim_obs::{Histogram, Recorder};
use rdsim_units::{Hertz, SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// Camera configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraConfig {
    /// Lower bound of the frame rate band.
    pub min_fps: Hertz,
    /// Upper bound of the frame rate band.
    pub max_fps: Hertz,
    /// Size in bytes of the compressed video frame each capture stands
    /// for. It travels as the frame's wire size, which netem queues,
    /// rate-limits and corrupts; the payload itself is only the encoded
    /// scene, and a scene larger than this sets the wire size instead.
    pub frame_bytes: usize,
}

impl Default for CameraConfig {
    /// The paper's rig: "the video frame rate of the simulator was in the
    /// range of 25 to 30 frames per second", streamed at roughly the
    /// bitrate of a compressed WQHD feed.
    fn default() -> Self {
        CameraConfig {
            min_fps: Hertz::new(25.0),
            max_fps: Hertz::new(30.0),
            frame_bytes: 20_000,
        }
    }
}

impl CameraConfig {
    /// A fixed frame rate (no jitter), useful in tests.
    pub fn fixed(fps: Hertz, frame_bytes: usize) -> Self {
        CameraConfig {
            min_fps: fps,
            max_fps: fps,
            frame_bytes,
        }
    }
}

/// A captured video frame: the encoded payload plus capture metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoFrame {
    /// Monotone frame id.
    pub frame_id: u64,
    /// Capture time.
    pub captured_at: SimTime,
    /// The encoded snapshot, and nothing else; see
    /// [`crate::decode_frame_into`].
    pub payload: Bytes,
    /// Size on the wire in bytes: [`CameraConfig::frame_bytes`], or the
    /// payload's length if that is larger.
    pub wire_len: usize,
}

/// Generates frames whenever the simulation clock passes the next capture
/// instant. Frame spacing is drawn uniformly from the configured fps band,
/// which reproduces the mild frame-time variability of the real rig.
#[derive(Debug)]
pub struct CameraSensor {
    config: CameraConfig,
    rng: RngStream,
    next_capture: SimTime,
    next_frame_id: u64,
    /// `codec.encode_ns` and `codec.frame_bytes`, resolved once while a
    /// live recorder is attached.
    codec_obs: Option<(Arc<Histogram>, Arc<Histogram>)>,
}

impl CameraSensor {
    /// Creates a camera; the first frame is captured at time zero.
    pub fn new(config: CameraConfig, rng: RngStream) -> Self {
        CameraSensor {
            config,
            rng,
            next_capture: SimTime::ZERO,
            next_frame_id: 0,
            codec_obs: None,
        }
    }

    /// Attaches a recorder; subsequent encodes are timed into
    /// `codec.encode_ns` and their wire sizes recorded into
    /// `codec.frame_bytes`. A null recorder detaches, and encodes read no
    /// clock.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.codec_obs = recorder.enabled().then(|| {
            (
                recorder.histogram("codec.encode_ns"),
                recorder.histogram("codec.frame_bytes"),
            )
        });
    }

    /// The configuration.
    pub fn config(&self) -> &CameraConfig {
        &self.config
    }

    /// Number of frames captured so far.
    pub fn frames_captured(&self) -> u64 {
        self.next_frame_id
    }

    /// Time of the next capture.
    pub fn next_capture(&self) -> SimTime {
        self.next_capture
    }

    /// Captures zero or more frames up to time `now`. The caller provides
    /// the scene via `snapshot_fn`, which is invoked once per captured
    /// frame with the capture timestamp and frame id already filled in by
    /// the caller's world state.
    ///
    /// In practice the world advances in 20 ms steps while frames are
    /// ~33–40 ms apart, so this returns zero or one frame per step.
    pub fn poll(
        &mut self,
        now: SimTime,
        mut snapshot_fn: impl FnMut() -> WorldSnapshot,
    ) -> Vec<VideoFrame> {
        let pool = BufPool::new();
        let mut scratch = WorldSnapshot::default();
        // Capacity from the polled span × the rate band's upper edge, so
        // even a coarse catch-up poll fills without regrowing.
        let mut frames = Vec::with_capacity(self.frames_due(now));
        self.poll_into(
            now,
            |snap| *snap = snapshot_fn(),
            &mut scratch,
            &pool,
            &mut frames,
        );
        frames
    }

    /// [`poll`](Self::poll) with caller-owned buffers: the scene is
    /// written into `snapshot` (reusing its `others` allocation), the
    /// payload is encoded into a buffer checked out of `pool`, and the
    /// frames are appended to `out`. Steady state this captures without
    /// heap allocation.
    pub fn poll_into(
        &mut self,
        now: SimTime,
        mut snapshot_fn: impl FnMut(&mut WorldSnapshot),
        snapshot: &mut WorldSnapshot,
        pool: &BufPool,
        out: &mut Vec<VideoFrame>,
    ) {
        while self.next_capture <= now {
            let captured_at = self.next_capture;
            snapshot_fn(snapshot);
            snapshot.time = captured_at;
            snapshot.frame_id = self.next_frame_id;
            let wire_len = self
                .config
                .frame_bytes
                .max(frame_len(snapshot.actor_count()));
            let payload = match &self.codec_obs {
                Some((encode_ns, frame_bytes)) => {
                    let start = Instant::now();
                    let payload = encode_frame_pooled(snapshot, pool);
                    encode_ns.record(start.elapsed().as_nanos() as u64);
                    frame_bytes.record(wire_len as u64);
                    payload
                }
                None => encode_frame_pooled(snapshot, pool),
            };
            out.push(VideoFrame {
                frame_id: self.next_frame_id,
                captured_at,
                payload,
                wire_len,
            });
            self.next_frame_id += 1;
            let fps = self
                .rng
                .uniform_range(self.config.min_fps.get(), self.config.max_fps.get());
            let period = SimDuration::from_secs_f64(1.0 / fps.max(1e-3));
            self.next_capture += period.max(SimDuration::from_micros(1));
        }
    }

    /// Upper bound on the frames one poll spanning up to `now` can
    /// produce: the polled duration × the band's maximum rate, plus the
    /// frame due exactly at `next_capture`.
    pub fn frames_due(&self, now: SimTime) -> usize {
        if self.next_capture > now {
            return 0;
        }
        let span = (now - self.next_capture).as_secs_f64();
        (span * self.config.max_fps.get()).ceil() as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode_frame_into;

    fn empty_snapshot() -> WorldSnapshot {
        WorldSnapshot::default()
    }

    fn camera(cfg: CameraConfig) -> CameraSensor {
        CameraSensor::new(cfg, RngStream::from_seed(5).substream("camera"))
    }

    #[test]
    fn captures_at_fixed_rate() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 1000));
        // Step 1 s in 20 ms increments; expect 25 frames (t=0 inclusive).
        // Capacity = 1 s duration × 25 fps (+1 for the frame due at t=0).
        let mut frames = Vec::with_capacity(25 + 1);
        for k in 0..=50 {
            let now = SimTime::from_millis(k * 20);
            frames.extend(cam.poll(now, empty_snapshot));
        }
        assert_eq!(frames.len(), 26); // t = 0.00, 0.04, ..., 1.00
        assert_eq!(frames[0].frame_id, 0);
        assert_eq!(frames[25].frame_id, 25);
        assert_eq!(frames[25].captured_at, SimTime::from_secs(1));
        assert_eq!(cam.frames_captured(), 26);
    }

    #[test]
    fn frame_rate_band_respected() {
        let mut cam = camera(CameraConfig::default());
        // Capacity = 50 s polled × the band's 30 fps upper edge.
        let mut times = Vec::with_capacity(50 * 30);
        for k in 0..2500 {
            let now = SimTime::from_millis(k * 20);
            for f in cam.poll(now, empty_snapshot) {
                times.push(f.captured_at);
            }
        }
        assert!(times.len() > 1000, "≈27.5 fps over 50 s");
        for w in times.windows(2) {
            let gap = (w[1] - w[0]).as_millis_f64();
            assert!(
                (1000.0 / 30.0 - 1e-6..=1000.0 / 25.0 + 1e-6).contains(&gap),
                "inter-frame gap {gap} ms outside [33.3, 40]"
            );
        }
        let span = (times[times.len() - 1] - times[0]).as_secs_f64();
        let fps = (times.len() - 1) as f64 / span;
        assert!((25.0..=30.0).contains(&fps), "measured fps {fps}");
    }

    #[test]
    fn payload_is_the_body_and_the_wire_size_the_frame_size() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(30.0), 20_000));
        let frames = cam.poll(SimTime::ZERO, empty_snapshot);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload.len(), frame_len(0));
        assert_eq!(frames[0].wire_len, 20_000);
        let mut snap = WorldSnapshot::default();
        decode_frame_into(&frames[0].payload, &mut snap).unwrap();
        assert_eq!(snap.frame_id, 0);
        assert_eq!(snap.time, SimTime::ZERO);
    }

    #[test]
    fn a_scene_larger_than_the_frame_size_sets_the_wire_size() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(30.0), 0));
        let frames = cam.poll(SimTime::ZERO, empty_snapshot);
        assert_eq!(frames[0].wire_len, frame_len(0));
    }

    #[test]
    fn recorder_sizes_frames_by_wire_size() {
        let registry = rdsim_obs::Registry::new();
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 4_000));
        cam.set_recorder(&registry.recorder());
        cam.poll(SimTime::from_millis(200), empty_snapshot);
        let t = registry.snapshot();
        let sizes = t.histogram("codec.frame_bytes").expect("recorded");
        assert_eq!(sizes.count, 6, "t = 0, 40, ..., 200 ms");
        assert_eq!((sizes.min, sizes.max), (4_000, 4_000));
    }

    #[test]
    fn no_capture_before_due() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 100));
        assert_eq!(cam.poll(SimTime::ZERO, empty_snapshot).len(), 1);
        // Next frame due at 40 ms.
        assert!(cam
            .poll(SimTime::from_millis(39), empty_snapshot)
            .is_empty());
        assert_eq!(cam.next_capture(), SimTime::from_millis(40));
        assert_eq!(cam.poll(SimTime::from_millis(40), empty_snapshot).len(), 1);
    }

    #[test]
    fn coarse_poll_catches_up() {
        let mut cam = camera(CameraConfig::fixed(Hertz::new(25.0), 100));
        // Jumping 200 ms in one poll yields all missed frames.
        let frames = cam.poll(SimTime::from_millis(200), empty_snapshot);
        assert_eq!(frames.len(), 6); // t = 0, 40, ..., 200
    }
}

//! The HIL session: vehicle ↔ network ↔ operator in simulated time.
//!
//! The paper's remote-driving loop (§III, Fig. 3) is one fixed chain —
//! sense → encode → uplink (NETEM) → display → operator → command →
//! downlink (NETEM) → actuate — plus the fault clock, the optional
//! vehicle-side safety stack and the logger. [`RdsSession::step`] runs it
//! as ten private stage methods in a fixed order. With a live recorder,
//! each stage's wall time goes into its own `session.stage.<name>_ns`
//! histogram, one sample per step.

use crate::safety::{QosEstimate, SafetyStack};
use crate::{
    decode_command, encode_command_pooled, EgoSample, IncidentKind, IncidentMark, LeadObservation,
    OperatorSubsystem, OtherSample, ReceivedFrame, RunLog,
};
use rdsim_netem::{
    DuplexLink, FaultInjector, InjectionAction, InjectionWindow, NetemConfig, Packet, PacketKind,
    TraceSchedule,
};
use rdsim_obs::{Counter, Histogram, Recorder, Timeline, TraceId, TraceStage, Tracer};
use rdsim_simulator::{
    decode_frame_into, ActorKind, CameraConfig, SimulatorServer, VideoFrame, World, WorldSnapshot,
};
use rdsim_units::{Meters, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Horizon for logging lead-vehicle observations (the metrics gate at
/// 100 m downstream).
const LEAD_LOG_HORIZON: Meters = Meters::new(150.0);

/// Session configuration.
#[derive(Debug, Clone)]
pub struct RdsSessionConfig {
    /// Camera configuration for the vehicle's video feed.
    pub camera: CameraConfig,
    /// Telemetry recorder. Defaults to the null recorder, which keeps the
    /// session's own counters working but records nothing else.
    pub recorder: Recorder,
    /// Causal tracer. Defaults to the always-on flight recorder
    /// ([`Tracer::flight_recorder`]): a bounded overwrite-oldest ring that
    /// keeps the most recent trace events at negligible cost, so the run-up
    /// to any incident can be dumped after the fact. [`Tracer::null`]
    /// disables tracing entirely.
    pub tracer: Tracer,
    /// Record a time-resolved [`Timeline`] (1 s windows of integer
    /// aggregates: glass-to-glass latency decomposition, per-direction
    /// link counters, min gated TTC, steering reversals, speed, fault
    /// bitmask). Off by default; the campaign digests exclude it, so
    /// enabling it never perturbs golden output.
    pub timeline: bool,
}

impl Default for RdsSessionConfig {
    /// The paper's 25–30 fps camera, the null recorder, the flight
    /// recorder as tracer and no timeline.
    fn default() -> Self {
        RdsSessionConfig {
            camera: CameraConfig::default(),
            recorder: Recorder::null(),
            tracer: Tracer::flight_recorder(),
            timeline: false,
        }
    }
}

/// Transport-level counters for a session.
///
/// Since the telemetry layer landed this is a *read-out view*: the live
/// tallies are [`rdsim_obs::Counter`]s held by the session (and shared with
/// its recorder's registry, when one is attached); [`RdsSession::stats`]
/// materialises them into this struct. The serialized shape is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Video frames sent by the vehicle subsystem.
    pub frames_sent: u64,
    /// Frames decoded and shown at the station.
    pub frames_delivered: u64,
    /// Frames that arrived but failed their checksum.
    pub frames_corrupted: u64,
    /// Commands sent by the station.
    pub commands_sent: u64,
    /// Commands applied by the vehicle.
    pub commands_delivered: u64,
    /// Commands that arrived corrupted and were rejected.
    pub commands_corrupted: u64,
}

/// The stages' wall-time histograms, in step order.
const STAGE_SPANS: [&str; 10] = [
    "session.stage.fault_window_ns",
    "session.stage.vehicle_ns",
    "session.stage.capture_ns",
    "session.stage.uplink_ns",
    "session.stage.display_ns",
    "session.stage.operator_ns",
    "session.stage.downlink_ns",
    "session.stage.actuate_ns",
    "session.stage.safety_ns",
    "session.stage.logging_ns",
];

/// The session's instrument handles, resolved once at construction.
///
/// The six transport counters double as the backing store of
/// [`SessionStats`], so they are always functional: with a null recorder
/// they are detached (cheap atomics nobody else sees), with a live one they
/// appear in the run's `RunTelemetry` under the same names.
#[derive(Debug)]
struct SessionObs {
    frames_sent: Counter,
    frames_delivered: Counter,
    frames_corrupted: Counter,
    commands_sent: Counter,
    commands_delivered: Counter,
    commands_corrupted: Counter,
    steps: Counter,
    /// Packet accounting split by whether a fault rule was active when the
    /// packet was offered / delivered / dropped / rejected.
    win_in_sent: Counter,
    win_in_delivered: Counter,
    win_in_dropped: Counter,
    win_in_corrupted: Counter,
    win_out_sent: Counter,
    win_out_delivered: Counter,
    win_out_dropped: Counter,
    win_out_corrupted: Counter,
    /// Glass-to-glass frame age at display (capture → decode), µs.
    /// Handles held only while a live recorder is attached, so the
    /// disabled path records nothing.
    frame_age_us: Option<Arc<Histogram>>,
    /// Command age at application (station send → vehicle apply), µs.
    command_age_us: Option<Arc<Histogram>>,
    /// Wall time of each frame decode, good or rejected, ns.
    decode_ns: Option<Arc<Histogram>>,
    /// Wall time of each stage per step, ns, indexed like [`STAGE_SPANS`].
    stage_ns: Option<[Arc<Histogram>; 10]>,
}

impl SessionObs {
    fn new(recorder: &Recorder) -> Self {
        SessionObs {
            frames_sent: recorder.counter("session.frames_sent"),
            frames_delivered: recorder.counter("session.frames_delivered"),
            frames_corrupted: recorder.counter("session.frames_corrupted"),
            commands_sent: recorder.counter("session.commands_sent"),
            commands_delivered: recorder.counter("session.commands_delivered"),
            commands_corrupted: recorder.counter("session.commands_corrupted"),
            steps: recorder.counter("session.steps"),
            win_in_sent: recorder.counter("session.fault_window.inside.sent"),
            win_in_delivered: recorder.counter("session.fault_window.inside.delivered"),
            win_in_dropped: recorder.counter("session.fault_window.inside.dropped"),
            win_in_corrupted: recorder.counter("session.fault_window.inside.corrupted"),
            win_out_sent: recorder.counter("session.fault_window.outside.sent"),
            win_out_delivered: recorder.counter("session.fault_window.outside.delivered"),
            win_out_dropped: recorder.counter("session.fault_window.outside.dropped"),
            win_out_corrupted: recorder.counter("session.fault_window.outside.corrupted"),
            frame_age_us: recorder
                .enabled()
                .then(|| recorder.histogram("session.frame_age_us")),
            command_age_us: recorder
                .enabled()
                .then(|| recorder.histogram("session.command_age_us")),
            decode_ns: recorder
                .enabled()
                .then(|| recorder.histogram("codec.decode_ns")),
            stage_ns: recorder
                .enabled()
                .then(|| STAGE_SPANS.map(|name| recorder.histogram(name))),
        }
    }

    /// The `(sent, delivered, dropped, corrupted)` counters for the given
    /// fault-window side.
    fn window(&self, inside: bool) -> (&Counter, &Counter, &Counter, &Counter) {
        if inside {
            (
                &self.win_in_sent,
                &self.win_in_delivered,
                &self.win_in_dropped,
                &self.win_in_corrupted,
            )
        } else {
            (
                &self.win_out_sent,
                &self.win_out_delivered,
                &self.win_out_dropped,
                &self.win_out_corrupted,
            )
        }
    }
}

/// Per-tick bookkeeping for the timeline: the previous cumulative link
/// tallies (so each tick attributes exactly its delta to the current
/// window) and the incremental steering-reversal hysteresis state.
#[derive(Debug, Default)]
struct TimelineTaps {
    up_dropped: u64,
    up_queue_dropped: u64,
    up_duplicated: u64,
    up_reordered: u64,
    down_dropped: u64,
    down_queue_dropped: u64,
    down_duplicated: u64,
    down_reordered: u64,
    /// Direction of the current steering excursion: `Some(true)` rising,
    /// `Some(false)` falling, `None` before the first latch.
    srr_dir: Option<bool>,
    /// The running extreme the hysteresis measures excursions from.
    srr_anchor: f64,
    /// Lowest / highest steer seen before the first direction latch.
    srr_lo: f64,
    srr_hi: f64,
    srr_init: bool,
}

/// J2944 reversal gap: a direction change only counts once the steering
/// excursion from the previous extreme exceeds this (same θ as the
/// offline `rdsim-metrics` SRR).
const SRR_THETA: f64 = 0.05;

impl TimelineTaps {
    /// Advances the incremental steering-reversal detector by one raw
    /// per-tick sample, returning the number of reversals completed.
    ///
    /// This mirrors the hysteresis core of the offline J2944 SRR metric,
    /// but runs on raw samples without the 0.6 Hz Butterworth filter and
    /// extrema extraction (which need the whole signal). Counts therefore
    /// differ slightly from the offline metric — the timeline wants a
    /// cheap, causal per-window workload signal, not the paper statistic,
    /// which stays with `rdsim-metrics`.
    fn srr_step(&mut self, e: f64) -> u64 {
        if !e.is_finite() {
            return 0;
        }
        if !self.srr_init {
            self.srr_init = true;
            self.srr_anchor = e;
            self.srr_lo = e;
            self.srr_hi = e;
            return 0;
        }
        match self.srr_dir {
            None => {
                self.srr_lo = self.srr_lo.min(e);
                self.srr_hi = self.srr_hi.max(e);
                if self.srr_hi - e >= SRR_THETA {
                    self.srr_dir = Some(false);
                    self.srr_anchor = e;
                } else if e - self.srr_lo >= SRR_THETA {
                    self.srr_dir = Some(true);
                    self.srr_anchor = e;
                }
                0
            }
            Some(true) => {
                if e > self.srr_anchor {
                    self.srr_anchor = e;
                    0
                } else if self.srr_anchor - e >= SRR_THETA {
                    self.srr_dir = Some(false);
                    self.srr_anchor = e;
                    1
                } else {
                    0
                }
            }
            Some(false) => {
                if e < self.srr_anchor {
                    self.srr_anchor = e;
                    0
                } else if e - self.srr_anchor >= SRR_THETA {
                    self.srr_dir = Some(true);
                    self.srr_anchor = e;
                    1
                } else {
                    0
                }
            }
        }
    }
}

/// The [`Timeline`] fault bits implied by an active netem configuration.
fn netem_fault_bits(cfg: &NetemConfig) -> u64 {
    let mut bits = 0;
    if cfg
        .delay
        .as_ref()
        .is_some_and(|d| d.base.get() > 0.0 || d.jitter.get() > 0.0)
    {
        bits |= Timeline::FAULT_DELAY;
    }
    if cfg.loss.is_some() {
        bits |= Timeline::FAULT_LOSS;
    }
    if cfg.duplicate.is_some() {
        bits |= Timeline::FAULT_DUPLICATE;
    }
    if cfg.corrupt.is_some() {
        bits |= Timeline::FAULT_CORRUPT;
    }
    if cfg
        .reorder
        .as_ref()
        .is_some_and(|r| r.probability.get() > 0.0)
    {
        bits |= Timeline::FAULT_REORDER;
    }
    if cfg.rate.is_some() {
        bits |= Timeline::FAULT_RATE;
    }
    if cfg.effective_limit().is_some() {
        bits |= Timeline::FAULT_LIMIT;
    }
    bits
}

/// A human-in-the-loop RDS test session (Fig. 3 of the paper): the
/// simulator server streams frames through the emulated network to the
/// operator; the operator's commands stream back through the same faults.
///
/// One [`step`](Self::step) runs the loop's ten stages once, in a fixed
/// order:
///
/// ```text
/// fault_window → vehicle → capture → uplink → display → operator
///              → downlink → actuate → safety → logging
/// ```
#[derive(Debug)]
pub struct RdsSession {
    server: SimulatorServer,
    link: DuplexLink,
    injector: FaultInjector,
    log: RunLog,
    recorder: Recorder,
    tracer: Tracer,
    obs: SessionObs,
    /// Injection-log entries already mirrored as recorder events.
    fault_events_seen: usize,
    frame_seq: u64,
    cmd_seq: u64,
    /// Incident marks emitted so far (moved into the log on completion).
    incidents: Vec<IncidentMark>,
    /// Sequence for incident trace ids.
    incident_seq: u64,
    /// Whether the previous sample was inside a TTC breach (edge detector).
    ttc_breached: bool,
    /// Sequence number of the newest frame shown to the operator — the
    /// causal antecedent stamped onto every emitted command.
    last_displayed_frame: Option<u64>,
    safety_stack: Option<SafetyStack>,
    /// Pool backing command-packet payloads, slot-sized to the fixed
    /// command packet so steady-state emits never allocate.
    cmd_pool: bytes::BufPool,
    last_cmd_received_at: Option<SimTime>,
    highest_cmd_seq: Option<u64>,
    /// Sliding delivery/miss window for the vehicle-side loss estimate.
    cmd_window: VecDeque<bool>,
    /// Time-resolved per-window aggregates (None unless configured).
    timeline: Option<Timeline>,
    /// Previous cumulative link tallies + incremental SRR state backing
    /// the timeline's per-tick deltas.
    tl_taps: TimelineTaps,
    /// Frames captured this step (capture → uplink). This and the next
    /// three buffers are drained by the stage that consumes them and keep
    /// their capacity from step to step.
    frames: Vec<VideoFrame>,
    /// Wire packets offered to a link: the uplink stages this step's video
    /// packets, then the downlink the command.
    packets: Vec<Packet>,
    /// Frames the uplink delivered this step (uplink → display).
    arrived_frames: Vec<Packet>,
    /// Commands the downlink delivered this step (downlink → actuate).
    arrived_cmds: Vec<Packet>,
    /// A [`ReceivedFrame`] holder parked by a frame that failed to decode;
    /// the next decode uses it before asking
    /// [`OperatorSubsystem::recycle_frame`], so its actor allocation keeps
    /// being reused.
    spare_frame: Option<ReceivedFrame>,
}

impl RdsSession {
    /// The fixed simulation step, 20 ms: the session steps at 50 Hz and
    /// the station sends one command per step.
    pub const DT: SimDuration = SimDuration::from_millis(20);

    /// Creates a session around a world with a spawned ego vehicle.
    ///
    /// # Panics
    ///
    /// Panics if the world has no ego vehicle.
    pub fn new(world: World, config: RdsSessionConfig, seed: u64) -> Self {
        let recorder = config.recorder;
        let tracer = config.tracer;
        let mut server = SimulatorServer::new(world, config.camera, seed);
        server.set_recorder(&recorder);
        let mut link = DuplexLink::new(seed ^ 0x6E65_7431);
        link.attach_recorder(&recorder);
        link.attach_tracer(&tracer);
        let obs = SessionObs::new(&recorder);
        RdsSession {
            server,
            link,
            injector: FaultInjector::new(),
            log: RunLog::new(),
            recorder,
            tracer,
            obs,
            fault_events_seen: 0,
            frame_seq: 0,
            cmd_seq: 0,
            incidents: Vec::new(),
            incident_seq: 0,
            ttc_breached: false,
            last_displayed_frame: None,
            safety_stack: None,
            cmd_pool: bytes::BufPool::with_slot_capacity(crate::COMMAND_PACKET_BYTES),
            last_cmd_received_at: None,
            highest_cmd_seq: None,
            cmd_window: VecDeque::new(),
            timeline: config.timeline.then(Timeline::default),
            tl_taps: TimelineTaps::default(),
            frames: Vec::new(),
            packets: Vec::new(),
            arrived_frames: Vec::new(),
            arrived_cmds: Vec::new(),
            spare_frame: None,
        }
    }

    /// Installs a vehicle-side safety stack (the paper's test setup runs
    /// without one; this is the hook its methodology exists to evaluate).
    pub fn set_safety_stack(&mut self, stack: SafetyStack) {
        self.safety_stack = Some(stack);
    }

    /// The installed safety stack, if any.
    pub fn safety_stack(&self) -> Option<&SafetyStack> {
        self.safety_stack.as_ref()
    }

    /// The vehicle-side link-quality estimate.
    pub fn qos_estimate(&self) -> QosEstimate {
        let misses = self.cmd_window.iter().filter(|&&m| m).count();
        let loss = if self.cmd_window.is_empty() {
            0.0
        } else {
            misses as f64 / self.cmd_window.len() as f64
        };
        QosEstimate {
            command_age: self
                .last_cmd_received_at
                .map(|t| self.time().saturating_since(t)),
            command_loss: rdsim_units::Ratio::new(loss),
            commands_received: self.obs.commands_delivered.get(),
        }
    }

    /// The simulated world (read access).
    pub fn world(&self) -> &World {
        self.server.world()
    }

    /// Mutable world access for scenario setup between runs.
    pub fn world_mut(&mut self) -> &mut World {
        self.server.world_mut()
    }

    /// The vehicle-subsystem server.
    pub fn server(&self) -> &SimulatorServer {
        &self.server
    }

    /// Transport statistics so far (a read-out of the live counters).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            frames_sent: self.obs.frames_sent.get(),
            frames_delivered: self.obs.frames_delivered.get(),
            frames_corrupted: self.obs.frames_corrupted.get(),
            commands_sent: self.obs.commands_sent.get(),
            commands_delivered: self.obs.commands_delivered.get(),
            commands_corrupted: self.obs.commands_corrupted.get(),
        }
    }

    /// The session's telemetry recorder (null unless one was configured).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The session's causal tracer (the always-on flight recorder unless
    /// a null tracer was configured).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Safety-incident marks emitted so far.
    pub fn incidents(&self) -> &[IncidentMark] {
        &self.incidents
    }

    /// The time-resolved timeline recorded so far (None unless enabled
    /// via [`RdsSessionConfig::timeline`]).
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Takes the recorded timeline out of the session (an empty default
    /// when the timeline was not enabled). Call before
    /// [`into_log`](Self::into_log).
    pub fn take_timeline(&mut self) -> Timeline {
        self.timeline.take().unwrap_or_default()
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.server.world().time()
    }

    /// The session step, [`RdsSession::DT`].
    pub fn dt(&self) -> SimDuration {
        Self::DT
    }

    /// Schedules a fault window.
    ///
    /// # Errors
    ///
    /// Returns the conflicting window on overlap.
    #[allow(clippy::result_large_err)] // mirrors FaultInjector::schedule
    pub fn schedule_fault(&mut self, window: InjectionWindow) -> Result<(), InjectionWindow> {
        self.injector.schedule(window)
    }

    /// Schedules every compiled window of a measured-network trace.
    ///
    /// # Errors
    ///
    /// Returns the scheduled window that the first conflicting trace
    /// window overlaps; trace windows before that one stay scheduled.
    #[allow(clippy::result_large_err)] // mirrors FaultInjector::schedule
    pub fn schedule_trace(&mut self, trace: &TraceSchedule) -> Result<(), InjectionWindow> {
        self.injector.schedule_trace(trace)
    }

    /// Injects a rule immediately (test-leader style ad-hoc injection).
    pub fn inject_now(&mut self, config: NetemConfig) {
        let now = self.time();
        self.injector.inject_now(&mut self.link, config, now);
        self.sync_fault_events();
    }

    /// Injects a rule on one direction only — the unidirectional variants
    /// of the related 4G/5G evaluation work.
    pub fn inject_now_on(&mut self, direction: rdsim_netem::Direction, config: NetemConfig) {
        let now = self.time();
        self.injector
            .inject_now_on(&mut self.link, direction, config, now);
        self.sync_fault_events();
    }

    /// Clears the active rule immediately.
    pub fn clear_fault_now(&mut self) {
        let now = self.time();
        self.injector.clear_now(&mut self.link, now);
        self.sync_fault_events();
    }

    /// Pre-sizes the session's buffers for a run of (at least) `duration`:
    /// run-log sample vectors from the step count and the current moving
    /// vehicles, run-log event vectors and the world's per-step event
    /// buffers, and the trace ring from the expected frame/command event
    /// volume (clamped to its bound). Optional — purely an allocation
    /// optimisation — but after calling it a steady-state
    /// capture→…→actuate step performs zero heap allocations (see the
    /// `alloc_regression` suite).
    pub fn preallocate(&mut self, duration: SimDuration) {
        let steps = duration.div_steps(Self::DT) as usize;
        let world = self.server.world();
        let movers = world
            .actors()
            .iter()
            .filter(|a| {
                Some(a.id()) != world.ego_id()
                    && a.kind() == ActorKind::Vehicle
                    && !a.is_stationary_behavior()
            })
            .count();
        self.log.reserve_samples(steps, steps * movers);
        // One collision and one lane invasion per simulated second: the
        // study's runs log under 0.05 lane invasions per second, and a
        // driver weaving under stress faults about 0.9.
        self.log
            .reserve_events(duration.as_micros().div_ceil(1_000_000) as usize);
        self.server.world_mut().reserve_step_events();
        let frames = (duration.as_secs_f64() * self.server.camera_config().max_fps.get()).ceil()
            as usize
            + 1;
        // Per frame: capture, encode, netem enqueue/deliver, decode,
        // display (+ duplicates); per step: command emit, enqueue,
        // deliver, actuate. Headroom of 2× covers duplication faults.
        self.tracer.preallocate(2 * (frames * 6 + steps * 4));
        // Delay-queue headroom: worst-case in-flight under the paper's
        // fault matrix is a few packets per direction; 64 makes heap
        // growth impossible at negligible cost (~4 KiB per direction).
        self.link.uplink.reserve(64);
        self.link.downlink.reserve(64);
        if let Some(tl) = self.timeline.as_mut() {
            tl.preallocate(duration.as_micros());
        }
    }

    /// Advances one tick by running the ten stages in their fixed order.
    ///
    /// With a live recorder attached, each stage's wall time is recorded
    /// into its own `session.stage.<name>_ns` histogram — one sample per
    /// stage per step. The clock is read once before the first stage and
    /// once after each, and a stage's sample runs from the previous
    /// boundary to its own; with the null recorder no clock is read.
    pub fn step(&mut self, operator: &mut dyn OperatorSubsystem) {
        self.obs.steps.inc();
        let mut boundary = self.obs.stage_ns.is_some().then(Instant::now);
        let (in_window, dropped_before) = self.fault_window();
        self.lap(&mut boundary, 0);
        let now = self.vehicle();
        self.lap(&mut boundary, 1);
        self.capture();
        self.lap(&mut boundary, 2);
        self.uplink(now, in_window);
        self.lap(&mut boundary, 3);
        self.display(operator, now, in_window);
        self.lap(&mut boundary, 4);
        let command = self.operator(operator, now, in_window);
        self.lap(&mut boundary, 5);
        self.downlink(command, now);
        self.lap(&mut boundary, 6);
        self.actuate(now, in_window, dropped_before);
        self.lap(&mut boundary, 7);
        self.safety(now);
        self.lap(&mut boundary, 8);
        self.logging(now);
        self.lap(&mut boundary, 9);
    }

    /// Runs for a duration (rounded down to whole steps).
    pub fn run(&mut self, operator: &mut dyn OperatorSubsystem, duration: SimDuration) {
        for _ in 0..duration.div_steps(Self::DT) {
            self.step(operator);
        }
    }

    /// Consumes the session, returning the completed run log.
    pub fn into_log(mut self) -> RunLog {
        self.sync_fault_events();
        self.log.set_faults(self.injector.log().to_vec());
        self.log
            .set_duration(self.time().saturating_since(SimTime::ZERO));
        // Surface flight-recorder accounting in the run's telemetry so
        // campaign reports can aggregate it next to `events_dropped`.
        if self.recorder.enabled() && self.tracer.enabled() {
            let overwritten = self.tracer.overwritten();
            self.recorder
                .counter("session.trace.recorded")
                .add(self.tracer.len() as u64 + overwritten);
            self.recorder
                .counter("session.trace.overwritten")
                .add(overwritten);
        }
        let incidents = std::mem::take(&mut self.incidents);
        self.log.set_incidents(incidents);
        self.log
    }

    /// Ends stage `stage`'s lap: records the wall time since the previous
    /// boundary into its [`STAGE_SPANS`] histogram and moves the boundary
    /// here. Without a live recorder there is no boundary to move.
    fn lap(&self, boundary: &mut Option<Instant>, stage: usize) {
        if let (Some(ns), Some(boundary)) = (&self.obs.stage_ns, boundary.as_mut()) {
            let now = Instant::now();
            ns[stage].record(now.duration_since(*boundary).as_nanos() as u64);
            *boundary = now;
        }
    }

    /// Stage 1 — fault clock: opens and closes scheduled fault windows on
    /// the pre-step clock and mirrors the transitions as recorder events
    /// and fault-edge incidents. Returns whether a fault rule is active
    /// and the links' drop total before any traffic is offered. The window
    /// state is constant for the rest of the step (rules only change here
    /// or between steps), so the one flag attributes the whole step's
    /// packet accounting.
    fn fault_window(&mut self) -> (bool, u64) {
        let t_pre = self.time();
        self.injector.advance(&mut self.link, t_pre);
        self.sync_fault_events();
        (
            self.injector.fault_active(),
            self.link.uplink.stats().dropped + self.link.downlink.stats().dropped,
        )
    }

    /// Stage 2 — vehicle physics: integrates the plant by one step under
    /// the active command and returns the post-physics clock, which every
    /// later stage stamps its events with.
    fn vehicle(&mut self) -> SimTime {
        self.server.advance_plant(Self::DT);
        self.time()
    }

    /// Stage 3 — sensing/capture: polls the camera sensor; any frames
    /// captured this step land in `frames` for the uplink.
    fn capture(&mut self) {
        self.server.capture_into(&mut self.frames);
    }

    /// Stage 4 — uplink (vehicle → operator): sequences every captured
    /// frame into a video packet of the frame's wire size (tracing capture
    /// and encode), offers the batch to the uplink NETEM direction and
    /// collects whatever the link delivers this step.
    fn uplink(&mut self, now: SimTime, in_window: bool) {
        for frame in self.frames.drain(..) {
            self.obs.frames_sent.inc();
            self.obs.window(in_window).0.inc();
            let seq = self.frame_seq;
            self.frame_seq += 1;
            let id = TraceId::frame(seq);
            let captured_us = frame.captured_at.as_micros();
            self.tracer
                .record(id, TraceStage::Capture, captured_us, frame.frame_id);
            self.tracer
                .record(id, TraceStage::Encode, captured_us, frame.wire_len as u64);
            self.packets.push(
                Packet::new(seq, PacketKind::Video, frame.payload).with_wire_len(frame.wire_len),
            );
        }
        self.link
            .uplink
            .transfer_into(&mut self.packets, now, &mut self.arrived_frames);
    }

    /// Stage 5 — station display: decodes every delivered frame (corrupted
    /// frames are rejected by checksum and surfaced as bad-frame
    /// notifications) and shows good frames to the operator.
    fn display(&mut self, operator: &mut dyn OperatorSubsystem, now: SimTime, in_window: bool) {
        for pkt in self.arrived_frames.drain(..) {
            let id = pkt.trace_id();
            // Decode into a recycled holder: the session's spare (kept from
            // a frame that failed to decode) first, else the operator's
            // previous frame if it hands one back — so the snapshot's actor
            // allocation is reused step after step, and a parked holder is
            // never overwritten and lost.
            let mut holder = self
                .spare_frame
                .take()
                .or_else(|| operator.recycle_frame())
                .unwrap_or_else(|| ReceivedFrame {
                    snapshot: WorldSnapshot::default(),
                    captured_at: SimTime::ZERO,
                    received_at: SimTime::ZERO,
                });
            let decoded = match &self.obs.decode_ns {
                Some(decode_ns) => {
                    let start = Instant::now();
                    let decoded = decode_frame_into(&pkt.payload, &mut holder.snapshot);
                    decode_ns.record(start.elapsed().as_nanos() as u64);
                    decoded
                }
                None => decode_frame_into(&pkt.payload, &mut holder.snapshot),
            };
            match decoded {
                Ok(()) => {
                    self.obs.frames_delivered.inc();
                    self.obs.window(in_window).1.inc();
                    self.tracer
                        .record(id, TraceStage::Decode, now.as_micros(), pkt.len() as u64);
                    let captured_at = holder.snapshot.time;
                    let age_us = now.saturating_since(captured_at).as_micros();
                    if let Some(h) = &self.obs.frame_age_us {
                        h.record(age_us);
                    }
                    if let Some(tl) = self.timeline.as_mut() {
                        // Exact glass-to-glass decomposition in integer µs:
                        // encode (capture → link send) + queue + propagation
                        // + display (release → delivering tick) == age.
                        let encode = pkt.sent_at.saturating_since(captured_at).as_micros();
                        let queue = pkt.queued.as_micros();
                        let prop = pkt.propagation.as_micros();
                        let display = age_us.saturating_sub(encode + queue + prop);
                        tl.window_mut(now.as_micros())
                            .record_frame(age_us, encode, queue, prop, display);
                    }
                    self.tracer
                        .record(id, TraceStage::Display, now.as_micros(), age_us);
                    self.last_displayed_frame = Some(pkt.seq);
                    holder.captured_at = captured_at;
                    holder.received_at = now;
                    operator.on_frame(holder);
                }
                Err(_) => {
                    self.obs.frames_corrupted.inc();
                    self.obs.window(in_window).3.inc();
                    self.tracer.record(
                        id,
                        TraceStage::DecodeFailed,
                        now.as_micros(),
                        pkt.len() as u64,
                    );
                    // Keep the holder for the next decode attempt.
                    self.spare_frame = Some(holder);
                    operator.on_bad_frame(now);
                }
            }
        }
    }

    /// Stage 6 — operator/driving: samples the operator's controls at the
    /// station's command rate, sequences the command and encodes it into a
    /// checksummed packet for the downlink. The command's emit event
    /// carries the sequence number of the last displayed frame — the frame
    /// → reaction → command causal link.
    fn operator(
        &mut self,
        operator: &mut dyn OperatorSubsystem,
        now: SimTime,
        in_window: bool,
    ) -> Packet {
        let control = operator.command(now);
        let seq = self.cmd_seq;
        self.cmd_seq += 1;
        self.obs.commands_sent.inc();
        self.obs.window(in_window).0.inc();
        self.tracer.record(
            TraceId::command(seq),
            TraceStage::CommandEmit,
            now.as_micros(),
            self.last_displayed_frame.unwrap_or(u64::MAX),
        );
        Packet::new(
            seq,
            PacketKind::Command,
            encode_command_pooled(seq, &control, &self.cmd_pool),
        )
    }

    /// Stage 7 — downlink (operator → vehicle): offers the step's command
    /// packet to the downlink NETEM direction and collects whatever the
    /// link delivers this step.
    fn downlink(&mut self, command: Packet, now: SimTime) {
        // `packets` was drained by the uplink; restage it with the step's
        // command instead of collecting a fresh one-element vec.
        self.packets.push(command);
        self.link
            .downlink
            .transfer_into(&mut self.packets, now, &mut self.arrived_cmds);
    }

    /// Stage 8 — command actuation: decodes every delivered command
    /// (rejecting corrupted ones by checksum), feeds the vehicle-side QoS
    /// estimate and applies the control to the plant. Also closes the
    /// step's fault-window drop accounting.
    fn actuate(&mut self, now: SimTime, in_window: bool, dropped_before: u64) {
        /// Deliveries and misses the vehicle-side loss estimate spans.
        const CMD_WINDOW: usize = 100;
        for pkt in self.arrived_cmds.drain(..) {
            let id = pkt.trace_id();
            match decode_command(&pkt.payload) {
                Ok((cmd_seq, ctrl)) => {
                    self.obs.commands_delivered.inc();
                    self.obs.window(in_window).1.inc();
                    let age_us = now.saturating_since(pkt.sent_at).as_micros();
                    if let Some(h) = &self.obs.command_age_us {
                        h.record(age_us);
                    }
                    if let Some(tl) = self.timeline.as_mut() {
                        let delayed = pkt.queued + pkt.propagation > SimDuration::ZERO;
                        tl.window_mut(now.as_micros())
                            .record_command(age_us, delayed);
                    }
                    self.tracer
                        .record(id, TraceStage::Actuate, now.as_micros(), age_us);
                    // Every sequence number skipped since the highest one
                    // delivered counts as a miss.
                    if let Some(prev) = self.highest_cmd_seq {
                        if cmd_seq > prev {
                            for _ in 0..(cmd_seq - prev - 1).min(CMD_WINDOW as u64) {
                                self.cmd_window.push_back(true);
                            }
                        }
                    }
                    self.cmd_window.push_back(false);
                    while self.cmd_window.len() > CMD_WINDOW {
                        self.cmd_window.pop_front();
                    }
                    self.highest_cmd_seq =
                        Some(self.highest_cmd_seq.map_or(cmd_seq, |p| p.max(cmd_seq)));
                    self.last_cmd_received_at = Some(now);
                    self.server.apply_command(ctrl);
                }
                Err(_) => {
                    self.obs.commands_corrupted.inc();
                    self.obs.window(in_window).3.inc();
                    self.tracer.record(
                        id,
                        TraceStage::DecodeFailed,
                        now.as_micros(),
                        pkt.len() as u64,
                    );
                }
            }
        }
        // Drops happen inside the links' enqueue, so the step's delta is
        // attributable to the window state latched by the fault stage.
        let dropped_after = self.link.uplink.stats().dropped + self.link.downlink.stats().dropped;
        self.obs
            .window(in_window)
            .2
            .add(dropped_after - dropped_before);
    }

    /// Stage 9 — safety stack: lets an installed vehicle-side safety stack
    /// override the active command based on the QoS estimate — every step,
    /// not only when a command arrives (watchdogs act precisely when
    /// nothing arrives). A no-op when no stack is installed, as in the
    /// paper's setup.
    fn safety(&mut self, now: SimTime) {
        if self.safety_stack.is_none() {
            return;
        }
        let qos = self.qos_estimate();
        let world = self.server.world();
        let speed = world
            .ego_id()
            .map(|id| world.actor(id).state().speed)
            .unwrap_or_default();
        let active = self.server.active_command();
        if let Some(stack) = self.safety_stack.as_mut() {
            let effective = stack.apply(now, &qos, active, speed);
            if effective != active {
                self.server.apply_command(effective);
            }
        }
    }

    /// Stage 10 — logging: appends the step's ego/other samples to the run
    /// log, runs the TTC breach-entry edge detector, folds the step into
    /// the timeline and drains collisions and lane invasions into incident
    /// marks.
    fn logging(&mut self, now: SimTime) {
        let world = self.server.world();
        let Some(ego_id) = world.ego_id() else { return };
        let ego = world.actor(ego_id);
        let control = ego.applied_control();
        let lead = world
            .ego_lead_gap(LEAD_LOG_HORIZON)
            .map(|(actor, gap, closing)| LeadObservation {
                actor,
                gap,
                closing_speed: closing,
            });
        let frame = world.frame_hint();
        self.log.push_ego(EgoSample {
            t: now,
            frame,
            position: ego.state().position(),
            velocity: ego.state().velocity(),
            speed: ego.state().speed,
            accel: ego.state().accel,
            throttle: control.throttle.get(),
            steer: control.steer,
            brake: control.brake.get(),
            lead,
        });
        let ego_pos = ego.state().position();
        // Pushed straight into the log — `world` (self.server) and
        // `self.log` are disjoint fields, so no intermediate collect.
        for a in world.actors() {
            if a.id() == ego_id || a.kind() != ActorKind::Vehicle || a.is_stationary_behavior() {
                continue;
            }
            self.log.push_other(OtherSample {
                actor: a.id(),
                t: now,
                frame,
                distance_from_ego: ego_pos.distance_m(a.state().position()),
                position: a.state().position(),
                speed: a.state().speed,
            });
        }
        // Copied out before the incident marker needs `&mut self` below.
        let tl_speed_mps = ego.state().speed.get();
        let tl_steer = control.steer;
        // TTC breach-entry detection, mirroring the offline TTC metric's
        // defaults (gate 100 m, min closing 1 m/s, threshold 6 s). Only the
        // entry edge marks an incident; the flag resets when TTC recovers.
        const TTC_MAX_GAP_M: f64 = 100.0;
        const TTC_MIN_CLOSING_MPS: f64 = 1.0;
        const TTC_THRESHOLD_S: f64 = 6.0;
        let ttc_s = lead.as_ref().and_then(|l| {
            let (gap, closing) = (l.gap.get(), l.closing_speed.get());
            (gap <= TTC_MAX_GAP_M && closing >= TTC_MIN_CLOSING_MPS).then(|| gap / closing)
        });
        let breached = ttc_s.is_some_and(|t| t < TTC_THRESHOLD_S);
        if breached && !self.ttc_breached {
            let ttc_us = (ttc_s.unwrap_or_default() * 1e6) as u64;
            self.mark_incident(IncidentKind::TtcBreach, now, TraceStage::Incident, ttc_us);
        }
        self.ttc_breached = breached;
        if self.timeline.is_some() {
            self.timeline_tick(now, tl_speed_mps, tl_steer, ttc_s);
        }
        // Drained straight into the run log, so the world keeps its event
        // buffers' capacity.
        self.log
            .extend_lane_invasions(self.server.world_mut().drain_lane_invasions());
        let logged = self.log.collisions().len();
        self.log
            .extend_collisions(self.server.world_mut().drain_collisions());
        for i in logged..self.log.collisions().len() {
            let c = self.log.collisions()[i];
            // Incident arg: impact severity as |relative speed| in mm/s.
            let severity = (c.relative_speed.get().abs() * 1_000.0) as u64;
            self.mark_incident(
                IncidentKind::Collision,
                c.time,
                TraceStage::Incident,
                severity,
            );
        }
    }

    fn mark_incident(&mut self, kind: IncidentKind, time: SimTime, stage: TraceStage, arg: u64) {
        let n = self.incident_seq;
        self.incident_seq += 1;
        self.tracer
            .record(TraceId::incident(n), stage, time.as_micros(), arg);
        self.incidents.push(IncidentMark { kind, time });
    }

    /// Mirrors injection-log entries not yet seen as structured recorder
    /// events (`session.fault`) and fault-edge incident marks, stamped
    /// with the transition's sim-time.
    fn sync_fault_events(&mut self) {
        let seen = self.fault_events_seen;
        self.fault_events_seen = self.injector.log().len();
        for i in seen..self.fault_events_seen {
            let ev = self.injector.log()[i];
            // Only a live recorder reads the note, so only it pays for one.
            if self.recorder.enabled() {
                let note = format!("{} {} {:?}", ev.action, ev.direction, ev.config);
                self.recorder
                    .event("session.fault", ev.time.as_micros(), note);
            }
            // Fault-window edges are trace incidents: arg 1 = rule added
            // (window opens), 0 = rule deleted (window closes).
            self.mark_incident(
                IncidentKind::FaultEdge,
                ev.time,
                TraceStage::FaultEdge,
                matches!(ev.action, InjectionAction::Added) as u64,
            );
        }
    }

    /// Folds this tick's link deltas, safety signals and fault bits into
    /// the timeline window containing `now`. Called once per step from the
    /// logging stage; a no-op unless the timeline is enabled.
    fn timeline_tick(&mut self, now: SimTime, speed_mps: f64, steer: f64, ttc_s: Option<f64>) {
        // Gather every link-side value first, then borrow the window once.
        let up_dropped = self.link.uplink.stats().dropped;
        let up_queue_dropped = self.link.uplink.queue_dropped();
        let up_duplicated = self.link.uplink.duplicated();
        let up_reordered = self.link.uplink.reordered();
        let down_dropped = self.link.downlink.stats().dropped;
        let down_queue_dropped = self.link.downlink.queue_dropped();
        let down_duplicated = self.link.downlink.duplicated();
        let down_reordered = self.link.downlink.reordered();
        let up_in_flight = self.link.uplink.in_flight() as u64;
        let down_in_flight = self.link.downlink.in_flight() as u64;
        let fault_bits = if self.injector.fault_active() {
            Timeline::FAULT_ACTIVE
                | netem_fault_bits(self.link.uplink.config())
                | netem_fault_bits(self.link.downlink.config())
        } else {
            0
        };
        let taps = &mut self.tl_taps;
        let reversals = taps.srr_step(steer);
        let d_up_dropped = up_dropped - taps.up_dropped;
        let d_up_queue_dropped = up_queue_dropped - taps.up_queue_dropped;
        let d_up_duplicated = up_duplicated - taps.up_duplicated;
        let d_up_reordered = up_reordered - taps.up_reordered;
        let d_down_dropped = down_dropped - taps.down_dropped;
        let d_down_queue_dropped = down_queue_dropped - taps.down_queue_dropped;
        let d_down_duplicated = down_duplicated - taps.down_duplicated;
        let d_down_reordered = down_reordered - taps.down_reordered;
        taps.up_dropped = up_dropped;
        taps.up_queue_dropped = up_queue_dropped;
        taps.up_duplicated = up_duplicated;
        taps.up_reordered = up_reordered;
        taps.down_dropped = down_dropped;
        taps.down_queue_dropped = down_queue_dropped;
        taps.down_duplicated = down_duplicated;
        taps.down_reordered = down_reordered;
        let Some(tl) = self.timeline.as_mut() else {
            return;
        };
        let w = tl.window_mut(now.as_micros());
        w.up_dropped += d_up_dropped;
        w.up_queue_dropped += d_up_queue_dropped;
        w.up_duplicated += d_up_duplicated;
        w.up_reordered += d_up_reordered;
        w.down_dropped += d_down_dropped;
        w.down_queue_dropped += d_down_queue_dropped;
        w.down_duplicated += d_down_duplicated;
        w.down_reordered += d_down_reordered;
        w.up_queue_max = w.up_queue_max.max(up_in_flight);
        w.down_queue_max = w.down_queue_max.max(down_in_flight);
        w.speed_sum_mmps += (speed_mps.max(0.0) * 1_000.0).round() as u64;
        w.speed_samples += 1;
        w.srr_reversals += reversals;
        w.fault_bits |= fault_bits;
        if let Some(t) = ttc_s {
            w.record_gated_ttc((t * 1e6).round() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PaperFault, ScriptedOperator};
    use rdsim_netem::InjectionWindow;
    use rdsim_roadnet::town05;
    use rdsim_simulator::Behavior;
    use rdsim_simulator::LaneFollowConfig;
    use rdsim_units::{Hertz, MetersPerSecond};
    use rdsim_vehicle::{ControlInput, VehicleSpec};

    fn session_with_lead(seed: u64) -> RdsSession {
        let mut world = World::new(town05());
        world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(8.0))),
            MetersPerSecond::new(8.0),
        );
        let config = RdsSessionConfig {
            camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
            ..RdsSessionConfig::default()
        };
        RdsSession::new(world, config, seed)
    }

    #[test]
    fn fault_free_session_runs_and_logs() {
        let mut s = session_with_lead(1);
        let mut op = ScriptedOperator::constant(ControlInput::new(0.5, 0.0, 0.0));
        s.run(&mut op, SimDuration::from_secs(10));
        let stats = s.stats();
        assert_eq!(stats.commands_sent, 500);
        assert_eq!(stats.commands_delivered, 500);
        assert_eq!(stats.frames_corrupted, 0);
        assert!(
            stats.frames_delivered >= 245,
            "≈250 frames in 10 s at 25 fps"
        );
        assert_eq!(stats.frames_delivered, stats.frames_sent);
        assert!(op.frames_seen() >= 245);

        let log = s.into_log();
        assert_eq!(log.ego_samples().len(), 500);
        assert!(!log.other_samples().is_empty(), "lead vehicle is logged");
        assert!(log.has_lead_data());
        assert_eq!(log.duration(), SimDuration::from_secs(10));
        // The ego actually moved under the operator's throttle.
        let last = log.ego_samples().last().unwrap();
        assert!(last.speed.get() > 5.0);
    }

    #[test]
    fn delay_fault_postpones_frames_and_commands() {
        let mut s = session_with_lead(2);
        s.schedule_fault(InjectionWindow::new(
            SimTime::ZERO,
            SimDuration::from_secs(3600),
            PaperFault::Delay50ms.config(),
        ))
        .unwrap();
        let mut op = ScriptedOperator::constant(ControlInput::new(0.5, 0.0, 0.0));
        // Step a few times: commands take 50 ms to arrive, so the first
        // few steps leave the plant coasting.
        for _ in 0..2 {
            s.step(&mut op);
        }
        assert_eq!(s.stats().commands_sent, 2);
        assert_eq!(s.stats().commands_delivered, 0, "50 ms not yet elapsed");
        for _ in 0..3 {
            s.step(&mut op);
        }
        assert!(s.stats().commands_delivered > 0, "after 100 ms they land");
        // Frame latency visible end to end.
        let log = s.into_log();
        assert_eq!(log.fault_events().len(), 1);
    }

    #[test]
    fn loss_fault_drops_traffic() {
        let mut s = session_with_lead(3);
        s.inject_now(NetemConfig::default().with_loss(rdsim_units::Ratio::from_percent(50.0)));
        let mut op = ScriptedOperator::constant(ControlInput::new(0.4, 0.0, 0.0));
        s.run(&mut op, SimDuration::from_secs(20));
        let stats = s.stats();
        assert!(stats.commands_delivered < stats.commands_sent * 7 / 10);
        assert!(stats.frames_delivered < stats.frames_sent * 7 / 10);
        assert!(stats.commands_delivered > stats.commands_sent * 3 / 10);
    }

    #[test]
    fn corruption_rejected_by_checksums() {
        let mut s = session_with_lead(4);
        s.inject_now(NetemConfig::default().with_corrupt(rdsim_units::Ratio::from_percent(50.0)));
        let mut op = ScriptedOperator::constant(ControlInput::new(0.4, 0.0, 0.0));
        s.run(&mut op, SimDuration::from_secs(10));
        let stats = s.stats();
        assert!(stats.frames_corrupted > 0 || stats.commands_corrupted > 0);
        // Commands were either applied intact or rejected — never mangled:
        // the throttle the plant saw is exactly the scripted 0.4.
        assert!((s.server().active_command().throttle.get() - 0.4).abs() < 1e-12);
        // Corrupted frames surfaced as bad-frame notifications.
        assert_eq!(stats.frames_corrupted, op.bad_frames());
    }

    #[test]
    fn adhoc_injection_logs_events() {
        let mut s = session_with_lead(5);
        let mut op = ScriptedOperator::constant(ControlInput::COAST);
        s.run(&mut op, SimDuration::from_secs(1));
        s.inject_now(PaperFault::Loss5Pct.config());
        s.run(&mut op, SimDuration::from_secs(1));
        s.clear_fault_now();
        s.run(&mut op, SimDuration::from_secs(1));
        let log = s.into_log();
        assert_eq!(log.fault_events().len(), 2);
        assert_eq!(
            PaperFault::from_config(&log.fault_events()[0].config),
            Some(PaperFault::Loss5Pct)
        );
    }

    #[test]
    fn scheduled_window_attributed_in_log() {
        let mut s = session_with_lead(6);
        s.schedule_fault(InjectionWindow::new(
            SimTime::from_secs(2),
            SimDuration::from_secs(3),
            PaperFault::Delay25ms.config(),
        ))
        .unwrap();
        let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
        s.run(&mut op, SimDuration::from_secs(8));
        let log = s.into_log();
        assert_eq!(log.fault_events().len(), 2, "added + deleted");
        assert_eq!(log.fault_events()[0].time, SimTime::from_secs(2));
        assert_eq!(log.fault_events()[1].time, SimTime::from_secs(5));
    }

    fn recorded_session_with_lead(seed: u64, recorder: Recorder) -> RdsSession {
        let mut world = World::new(town05());
        world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(8.0))),
            MetersPerSecond::new(8.0),
        );
        let config = RdsSessionConfig {
            camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
            recorder,
            ..RdsSessionConfig::default()
        };
        RdsSession::new(world, config, seed)
    }

    #[test]
    fn telemetry_mirrors_stats_and_measures_ages() {
        let registry = rdsim_obs::Registry::new();
        let mut s = recorded_session_with_lead(8, registry.recorder());
        s.inject_now(PaperFault::Delay50ms.config());
        let mut op = ScriptedOperator::constant(ControlInput::new(0.4, 0.0, 0.0));
        let started = Instant::now();
        s.run(&mut op, SimDuration::from_secs(4));
        let wall_ns = started.elapsed().as_nanos();
        let stats = s.stats();
        let t = registry.snapshot();

        // SessionStats is a read-out of the same counters the registry sees.
        assert_eq!(t.counter("session.frames_sent"), stats.frames_sent);
        assert_eq!(
            t.counter("session.frames_delivered"),
            stats.frames_delivered
        );
        assert_eq!(t.counter("session.commands_sent"), stats.commands_sent);
        assert_eq!(
            t.counter("session.commands_delivered"),
            stats.commands_delivered
        );
        assert_eq!(t.counter("session.steps"), 200, "4 s at 50 Hz");

        // Glass-to-glass ages reflect the 50 ms rule (plus capture→send
        // queueing for frames, which only raises the age).
        let fa = t.histogram("session.frame_age_us").expect("frame ages");
        assert_eq!(fa.count, stats.frames_delivered);
        assert!(fa.min >= 50_000, "frame age floor is the link delay");
        let ca = t.histogram("session.command_age_us").expect("command ages");
        assert_eq!(ca.count, stats.commands_delivered);
        assert!(ca.min >= 50_000 && ca.p50() >= 50_000);

        // The rule was active the whole run, so every packet is inside.
        assert_eq!(
            t.counter("session.fault_window.inside.sent"),
            stats.frames_sent + stats.commands_sent
        );
        assert_eq!(t.counter("session.fault_window.outside.sent"), 0);

        // The injection shows up as a structured event at sim-time zero.
        let faults: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.name == "session.fault")
            .collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].sim_us, 0);
        assert!(faults[0].note.starts_with("added both"));

        // Stage timings: every stage records exactly one sample per step
        // under its own histogram, and the laps tile the step without
        // overlap, so together they fit inside the wall time of `run`.
        let steps = t.counter("session.steps");
        let mut staged_ns = 0;
        for name in STAGE_SPANS {
            let h = t.histogram(name).expect(name);
            assert_eq!(h.count, steps, "{name}");
            staged_ns += h.sum;
        }
        assert!(
            staged_ns <= wall_ns,
            "stage samples sum to {staged_ns} ns, more than the {wall_ns} ns run"
        );

        // The codec hooks fired for every encode/decode.
        assert_eq!(
            t.histogram("codec.encode_ns").expect("encode").count,
            stats.frames_sent
        );
        assert_eq!(
            t.histogram("codec.decode_ns").expect("decode").count,
            stats.frames_delivered + stats.frames_corrupted
        );
    }

    #[test]
    fn recorder_event_stream_is_deterministic() {
        let run = |seed| {
            let registry = rdsim_obs::Registry::new();
            let mut s = recorded_session_with_lead(seed, registry.recorder());
            s.schedule_fault(InjectionWindow::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(2),
                PaperFault::Loss5Pct.config(),
            ))
            .unwrap();
            let mut op = ScriptedOperator::constant(ControlInput::new(0.5, 0.0, 0.01));
            s.run(&mut op, SimDuration::from_secs(5));
            drop(s);
            let t = registry.snapshot();
            let keys: Vec<_> = t.events.iter().map(|e| e.deterministic_key()).collect();
            (keys, t.counters.clone())
        };
        let (events_a, counters_a) = run(11);
        let (events_b, counters_b) = run(11);
        assert_eq!(events_a, events_b, "sim-time-stamped event streams");
        assert_eq!(counters_a, counters_b, "all counters, incl. fault-window");
        assert!(!events_a.is_empty(), "window open + close were mirrored");
    }

    #[test]
    fn tracer_records_complete_lineages() {
        use rdsim_obs::{ArtifactKind, TraceStage};
        let mut s = session_with_lead(13);
        assert!(s.tracer().enabled(), "flight recorder is on by default");
        let mut op = ScriptedOperator::constant(ControlInput::new(0.5, 0.0, 0.0));
        s.run(&mut op, SimDuration::from_secs(5));
        let stats = s.stats();
        let log = s.tracer().log();

        // Every delivered frame has a full capture → display lineage and
        // every applied command a full emit → actuate lineage.
        assert_eq!(
            log.complete_lineages(
                ArtifactKind::Frame,
                TraceStage::Capture,
                TraceStage::Display
            ),
            stats.frames_delivered
        );
        assert_eq!(
            log.complete_lineages(
                ArtifactKind::Command,
                TraceStage::CommandEmit,
                TraceStage::Actuate
            ),
            stats.commands_delivered
        );
        // A frame's lineage passes through the qdisc in causal order.
        let lineage = log.lineage(rdsim_obs::TraceId::frame(10));
        let stages: Vec<TraceStage> = lineage.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![
                TraceStage::Capture,
                TraceStage::Encode,
                TraceStage::NetemEnqueue,
                TraceStage::NetemDeliver,
                TraceStage::Decode,
                TraceStage::Display,
            ]
        );
        // Commands reference the frame the operator last saw.
        let emit = log
            .events
            .iter()
            .rfind(|e| e.stage == TraceStage::CommandEmit)
            .expect("commands were emitted");
        assert!(emit.arg < stats.frames_delivered, "a real frame seq");
    }

    #[test]
    fn fault_edges_become_incident_marks() {
        let mut s = session_with_lead(14);
        let mut op = ScriptedOperator::constant(ControlInput::COAST);
        s.run(&mut op, SimDuration::from_secs(1));
        s.inject_now(PaperFault::Loss5Pct.config());
        s.run(&mut op, SimDuration::from_secs(1));
        s.clear_fault_now();
        assert_eq!(s.incidents().len(), 2, "added + deleted edges");
        assert!(s
            .incidents()
            .iter()
            .all(|i| i.kind == crate::IncidentKind::FaultEdge));
        let edge_time = s.incidents()[0].time;
        let trace = s.tracer().log();
        let edges: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.stage == TraceStage::FaultEdge)
            .collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].arg, 1, "rule added");
        assert_eq!(edges[1].arg, 0, "rule deleted");
        let log = s.into_log();
        assert_eq!(log.incidents().len(), 2, "marks move into the run log");
        assert_eq!(log.incidents()[0].time, edge_time);
    }

    #[test]
    fn trace_stream_is_deterministic() {
        let run = |seed| {
            let mut s = session_with_lead(seed);
            s.schedule_fault(InjectionWindow::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(2),
                PaperFault::Loss5Pct.config(),
            ))
            .unwrap();
            let mut op = ScriptedOperator::constant(ControlInput::new(0.5, 0.0, 0.01));
            s.run(&mut op, SimDuration::from_secs(5));
            s.tracer().log()
        };
        let a = run(11);
        assert_eq!(a, run(11), "sim-time-only stamps replay identically");
        assert!(!a.events.is_empty());
        assert_ne!(a, run(12));
    }

    #[test]
    fn null_tracer_disables_tracing() {
        let mut world = World::new(town05());
        world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        let config = RdsSessionConfig {
            camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
            tracer: Tracer::null(),
            ..RdsSessionConfig::default()
        };
        let mut s = RdsSession::new(world, config, 15);
        let mut op = ScriptedOperator::constant(ControlInput::COAST);
        s.run(&mut op, SimDuration::from_secs(1));
        assert!(!s.tracer().enabled());
        assert!(s.tracer().log().is_empty());
    }

    #[test]
    fn null_recorder_session_still_counts() {
        let mut s = session_with_lead(12);
        assert!(!s.recorder().enabled());
        let mut op = ScriptedOperator::constant(ControlInput::new(0.3, 0.0, 0.0));
        s.run(&mut op, SimDuration::from_secs(1));
        // Stats flow through detached counters without a registry.
        assert_eq!(s.stats().commands_sent, 50);
        assert!(s.stats().frames_delivered > 0);
    }

    #[test]
    fn determinism_end_to_end() {
        let run = |seed| {
            let mut s = session_with_lead(seed);
            s.schedule_fault(InjectionWindow::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(2),
                PaperFault::Loss5Pct.config(),
            ))
            .unwrap();
            let mut op = ScriptedOperator::constant(ControlInput::new(0.5, 0.0, 0.01));
            s.run(&mut op, SimDuration::from_secs(6));
            let log = s.into_log();
            let last = log.ego_samples().last().copied().unwrap();
            (last.position.x, last.position.y, log.ego_samples().len())
        };
        assert_eq!(run(11), run(11));
    }
}

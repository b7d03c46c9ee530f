//! The session step as an explicit stage pipeline.
//!
//! The paper's remote-driving loop is an ordered chain of subsystems —
//! sense → encode → uplink (NETEM) → display → operator → command →
//! downlink (NETEM) → actuate — plus the fault clock, the optional
//! vehicle-side safety stack and the logger. This module makes that chain
//! explicit: each link of it is a [`Stage`], and
//! [`crate::RdsSession::step`] is nothing but "run the stage list in
//! order", timing each stage into its own `session.stage.<name>_ns`
//! histogram when a live recorder is attached.
//!
//! Stages communicate through a [`StageContext`]: shared session state
//! (world, links, telemetry, run log) plus the per-tick [`StepScratch`]
//! that carries frames and commands from one stage to the next. The
//! decomposition is behaviour-preserving bit for bit — the seed-matrix
//! golden suite pins the run-log digests across the refactor — so new
//! link, codec or operator variants can be slotted in (via
//! [`crate::RdsSession::replace_stage`] /
//! [`crate::RdsSession::insert_stage_after`]) without touching the core
//! loop.
//!
//! The default stage order ([`crate::RdsSession::default_stages`]):
//!
//! ```text
//! fault_window → vehicle → capture → uplink → display → operator
//!              → downlink → actuate → safety → logging
//! ```

use crate::session::SessionCore;
use crate::{
    decode_command, encode_command_pooled, IncidentKind, OperatorSubsystem, RdsSession,
    ReceivedFrame,
};
use rdsim_netem::{Packet, PacketKind};
use rdsim_obs::{Recorder, TraceId, TraceStage, Tracer};
use rdsim_simulator::{decode_frame_into, VideoFrame, World, WorldSnapshot};
use rdsim_units::{SimDuration, SimTime};
use std::time::Instant;

/// Per-tick scratch state handed from stage to stage.
///
/// Reset at the start of every step; the producing stage fills a field,
/// the consuming stage takes it. Custom stages inserted into the pipeline
/// may read or rewrite any of it (e.g. a codec stage transforming
/// `frames` before the uplink sees them).
#[derive(Debug, Default)]
pub struct StepScratch {
    /// Post-physics simulation time of this tick (set by the vehicle
    /// stage; every later stage stamps its events with it).
    pub now: SimTime,
    /// Whether a fault rule was active when this tick started — constant
    /// for the whole tick, attributing its packet accounting to the
    /// inside/outside fault-window counters.
    pub in_window: bool,
    /// Link drop totals sampled before any traffic was offered, so the
    /// actuate stage can attribute this tick's drop delta.
    pub dropped_before: u64,
    /// Frames captured this tick (capture stage → uplink stage).
    pub frames: Vec<VideoFrame>,
    /// Wire-packet staging buffer: the uplink stage fills it with this
    /// tick's video packets and drains it into the link; the downlink
    /// stage reuses the (then empty) buffer for the command packet.
    pub packets: Vec<Packet>,
    /// Frames the uplink delivered this tick (uplink → display stage).
    pub arrived_frames: Vec<Packet>,
    /// The encoded command emitted this tick (operator → downlink stage).
    pub command: Option<Packet>,
    /// Commands the downlink delivered this tick (downlink → actuate).
    pub arrived_cmds: Vec<Packet>,
    /// A reusable [`ReceivedFrame`] holder for the display stage, parked
    /// here by a frame that failed to decode; the next decode uses it
    /// before asking [`OperatorSubsystem::recycle_frame`]. Unlike the
    /// rest of the scratch it survives `reset`, so its actor allocation
    /// keeps being reused.
    pub spare_frame: Option<ReceivedFrame>,
}

impl StepScratch {
    /// Clears the per-tick state (the simulation clock stamp survives
    /// until the vehicle stage overwrites it, and the spare frame holder
    /// persists so its allocation keeps being reused).
    pub fn reset(&mut self) {
        self.in_window = false;
        self.dropped_before = 0;
        self.frames.clear();
        self.packets.clear();
        self.arrived_frames.clear();
        self.command = None;
        self.arrived_cmds.clear();
    }
}

/// Everything a stage may touch while advancing one tick.
///
/// Built-in stages reach into the session core directly (same crate);
/// external stages use the public accessors, which cover the world, the
/// clock, telemetry, tracing and incident marking.
pub struct StageContext<'a> {
    pub(crate) core: &'a mut SessionCore,
    /// The operator subsystem driving this session (the human-driver
    /// model, a scripted operator, a replay operator, …).
    pub operator: &'a mut dyn OperatorSubsystem,
    /// The tick's inter-stage scratch state.
    pub scratch: &'a mut StepScratch,
}

impl StageContext<'_> {
    /// Current simulation time (post-physics once the vehicle stage ran).
    pub fn time(&self) -> SimTime {
        self.core.time()
    }

    /// The fixed simulation step, [`RdsSession::DT`].
    pub fn dt(&self) -> SimDuration {
        RdsSession::DT
    }

    /// The simulated world (read access).
    pub fn world(&self) -> &World {
        self.core.server.world()
    }

    /// Mutable world access.
    pub fn world_mut(&mut self) -> &mut World {
        self.core.server.world_mut()
    }

    /// The session's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// The session's causal tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.core.tracer
    }

    /// Marks a safety incident at `time`, recording a trace event and an
    /// incident mark that moves into the run log on completion.
    pub fn mark_incident(
        &mut self,
        kind: IncidentKind,
        time: SimTime,
        stage: TraceStage,
        arg: u64,
    ) {
        self.core.mark_incident(kind, time, stage, arg);
    }
}

/// One stage of the session pipeline.
///
/// A stage advances exactly one tick's worth of its subsystem, reading
/// and writing the shared [`StageContext`]. Stages hold no per-tick state
/// of their own — everything flows through [`StepScratch`] — so a stage
/// list can be rearranged or extended without hidden coupling.
///
/// Implementors must keep `name` and `span_name` stable: `name` addresses
/// the stage in [`crate::RdsSession::replace_stage`] and
/// [`crate::RdsSession::insert_stage_after`]; `span_name` is the
/// telemetry histogram (`session.stage.<name>_ns` by convention) the
/// stage's wall time is recorded under, resolved once when the stage
/// joins the session.
pub trait Stage: std::fmt::Debug + Send {
    /// Short stable identifier (e.g. `"uplink"`).
    fn name(&self) -> &'static str;

    /// Telemetry histogram name for this stage's per-tick wall time.
    fn span_name(&self) -> &'static str;

    /// Advances this stage by one tick.
    fn advance(&mut self, ctx: &mut StageContext<'_>);
}

/// Declares a unit-struct stage with its stable name and span name.
macro_rules! stage_names {
    ($ty:ty, $name:literal) => {
        impl $ty {
            /// The stage's stable pipeline name.
            pub const NAME: &'static str = $name;
            /// The stage's telemetry span histogram.
            pub const SPAN: &'static str = concat!("session.stage.", $name, "_ns");
        }
    };
}

/// Stage 1 — fault clock: opens/closes scheduled fault windows on the
/// pre-step clock, mirrors the transitions as recorder events and
/// fault-edge incidents, and latches the tick's window attribution
/// ([`StepScratch::in_window`], [`StepScratch::dropped_before`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultWindowStage;
stage_names!(FaultWindowStage, "fault_window");

impl Stage for FaultWindowStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let core = &mut *ctx.core;
        let t_pre = core.time();
        core.injector.advance(&mut core.link, t_pre);
        core.sync_fault_events();
        // The window state is constant for the rest of the tick (rules
        // only change here or between ticks), so one flag attributes the
        // whole tick's packet accounting.
        ctx.scratch.in_window = core.injector.fault_active();
        ctx.scratch.dropped_before =
            core.link.uplink.stats().dropped + core.link.downlink.stats().dropped;
    }
}

/// Stage 2 — vehicle physics: integrates the plant by one `dt` under the
/// active (or fallback) command and stamps the tick's post-physics clock
/// into [`StepScratch::now`].
#[derive(Debug, Default, Clone, Copy)]
pub struct VehicleStage;
stage_names!(VehicleStage, "vehicle");

impl Stage for VehicleStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        ctx.core.server.advance_plant(RdsSession::DT);
        ctx.scratch.now = ctx.core.time();
    }
}

/// Stage 3 — sensing/capture: polls the camera sensor; any frames
/// captured this tick land in [`StepScratch::frames`] for the uplink.
#[derive(Debug, Default, Clone, Copy)]
pub struct CaptureStage;
stage_names!(CaptureStage, "capture");

impl Stage for CaptureStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        ctx.core.server.capture_into(&mut ctx.scratch.frames);
    }
}

/// Stage 4 — uplink (vehicle → operator): sequences every captured
/// frame into a video packet of the frame's wire size (tracing capture +
/// encode), offers the batch to the uplink NETEM direction and collects
/// whatever the link delivers this tick.
#[derive(Debug, Default, Clone, Copy)]
pub struct UplinkStage;
stage_names!(UplinkStage, "uplink");

impl Stage for UplinkStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let now = ctx.scratch.now;
        let in_window = ctx.scratch.in_window;
        let core = &mut *ctx.core;
        let StepScratch {
            frames,
            packets,
            arrived_frames,
            ..
        } = &mut *ctx.scratch;
        for frame in frames.drain(..) {
            core.obs.frames_sent.inc();
            core.obs.window(in_window).0.inc();
            let seq = core.frame_seq;
            core.frame_seq += 1;
            let id = TraceId::frame(seq);
            let captured_us = frame.captured_at.as_micros();
            core.tracer
                .record(id, TraceStage::Capture, captured_us, frame.frame_id);
            core.tracer
                .record(id, TraceStage::Encode, captured_us, frame.wire_len as u64);
            packets.push(
                Packet::new(seq, PacketKind::Video, frame.payload).with_wire_len(frame.wire_len),
            );
        }
        core.link.uplink.transfer_into(packets, now, arrived_frames);
    }
}

/// Stage 5 — station display: decodes every delivered frame (corrupted
/// frames are rejected by checksum and surfaced as bad-frame
/// notifications) and shows good frames to the operator.
#[derive(Debug, Default, Clone, Copy)]
pub struct DisplayStage;
stage_names!(DisplayStage, "display");

impl Stage for DisplayStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let now = ctx.scratch.now;
        let in_window = ctx.scratch.in_window;
        let StepScratch {
            arrived_frames,
            spare_frame,
            ..
        } = &mut *ctx.scratch;
        for pkt in arrived_frames.drain(..) {
            let core = &mut *ctx.core;
            let id = pkt.trace_id();
            // Decode into a recycled holder: the pipeline's spare (kept
            // from a frame that failed to decode) first, else the
            // operator's previous frame if it hands one back — so the
            // snapshot's actor allocation is reused tick after tick, and a
            // parked holder is never overwritten and lost.
            let mut holder = spare_frame
                .take()
                .or_else(|| ctx.operator.recycle_frame())
                .unwrap_or_else(|| ReceivedFrame {
                    snapshot: WorldSnapshot::default(),
                    captured_at: SimTime::ZERO,
                    received_at: SimTime::ZERO,
                });
            let decoded = match &core.obs.decode_ns {
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
                    core.obs.frames_delivered.inc();
                    core.obs.window(in_window).1.inc();
                    core.tracer
                        .record(id, TraceStage::Decode, now.as_micros(), pkt.len() as u64);
                    let captured_at = holder.snapshot.time;
                    let age_us = now.saturating_since(captured_at).as_micros();
                    if let Some(h) = &core.obs.frame_age_us {
                        h.record(age_us);
                    }
                    if let Some(tl) = core.timeline.as_mut() {
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
                    core.tracer
                        .record(id, TraceStage::Display, now.as_micros(), age_us);
                    core.last_displayed_frame = Some(pkt.seq);
                    holder.captured_at = captured_at;
                    holder.received_at = now;
                    ctx.operator.on_frame(holder);
                }
                Err(_) => {
                    core.obs.frames_corrupted.inc();
                    core.obs.window(in_window).3.inc();
                    core.tracer.record(
                        id,
                        TraceStage::DecodeFailed,
                        now.as_micros(),
                        pkt.len() as u64,
                    );
                    // Keep the holder for the next decode attempt.
                    *spare_frame = Some(holder);
                    ctx.operator.on_bad_frame(now);
                }
            }
        }
    }
}

/// Stage 6 — operator/driving: samples the operator's controls at the
/// station's command rate, sequences the command and encodes it into a
/// checksummed packet for the downlink. The command's emit event carries
/// the sequence number of the last displayed frame — the frame →
/// reaction → command causal link.
#[derive(Debug, Default, Clone, Copy)]
pub struct OperatorStage;
stage_names!(OperatorStage, "operator");

impl Stage for OperatorStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let now = ctx.scratch.now;
        let control = ctx.operator.command(now);
        let core = &mut *ctx.core;
        let seq = core.cmd_seq;
        core.cmd_seq += 1;
        core.obs.commands_sent.inc();
        core.obs.window(ctx.scratch.in_window).0.inc();
        core.tracer.record(
            TraceId::command(seq),
            TraceStage::CommandEmit,
            now.as_micros(),
            core.last_displayed_frame.unwrap_or(u64::MAX),
        );
        ctx.scratch.command = Some(Packet::new(
            seq,
            PacketKind::Command,
            encode_command_pooled(seq, &control, &core.cmd_pool),
        ));
    }
}

/// Stage 7 — downlink (operator → vehicle): offers the tick's command
/// packet to the downlink NETEM direction and collects whatever the link
/// delivers this tick.
#[derive(Debug, Default, Clone, Copy)]
pub struct DownlinkStage;
stage_names!(DownlinkStage, "downlink");

impl Stage for DownlinkStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let now = ctx.scratch.now;
        let StepScratch {
            command,
            packets,
            arrived_cmds,
            ..
        } = &mut *ctx.scratch;
        // `packets` was drained by the uplink stage; restage it with the
        // tick's command instead of collecting a fresh one-element vec.
        packets.extend(command.take());
        ctx.core
            .link
            .downlink
            .transfer_into(packets, now, arrived_cmds);
    }
}

/// Stage 8 — command actuation: decodes every delivered command
/// (rejecting corrupted ones by checksum), feeds the vehicle-side QoS
/// estimator and applies the control to the plant. Also closes the
/// tick's fault-window drop accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct ActuateStage;
stage_names!(ActuateStage, "actuate");

impl Stage for ActuateStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let now = ctx.scratch.now;
        let in_window = ctx.scratch.in_window;
        let dropped_before = ctx.scratch.dropped_before;
        let core = &mut *ctx.core;
        for pkt in ctx.scratch.arrived_cmds.drain(..) {
            let id = pkt.trace_id();
            match decode_command(&pkt.payload) {
                Ok((cmd_seq, ctrl)) => {
                    core.obs.commands_delivered.inc();
                    core.obs.window(in_window).1.inc();
                    let age_us = now.saturating_since(pkt.sent_at).as_micros();
                    if let Some(h) = &core.obs.command_age_us {
                        h.record(age_us);
                    }
                    if let Some(tl) = core.timeline.as_mut() {
                        let delayed = pkt.queued + pkt.propagation > SimDuration::ZERO;
                        tl.window_mut(now.as_micros())
                            .record_command(age_us, delayed);
                    }
                    core.tracer
                        .record(id, TraceStage::Actuate, now.as_micros(), age_us);
                    core.note_cmd_delivery(cmd_seq);
                    core.last_cmd_received_at = Some(now);
                    core.server.apply_command(ctrl);
                }
                Err(_) => {
                    core.obs.commands_corrupted.inc();
                    core.obs.window(in_window).3.inc();
                    core.tracer.record(
                        id,
                        TraceStage::DecodeFailed,
                        now.as_micros(),
                        pkt.len() as u64,
                    );
                }
            }
        }
        // Drops happen inside the links' enqueue, so the tick's delta is
        // attributable to the window state latched by the fault stage.
        let dropped_after = core.link.uplink.stats().dropped + core.link.downlink.stats().dropped;
        core.obs
            .window(in_window)
            .2
            .add(dropped_after - dropped_before);
    }
}

/// Stage 9 — safety stack: lets an installed vehicle-side safety stack
/// override the active command based on the QoS estimate — every tick,
/// not only when a command arrives (watchdogs act precisely when nothing
/// arrives). A no-op when no stack is installed, as in the paper's setup.
#[derive(Debug, Default, Clone, Copy)]
pub struct SafetyStage;
stage_names!(SafetyStage, "safety");

impl Stage for SafetyStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let now = ctx.scratch.now;
        let core = &mut *ctx.core;
        if core.safety.is_some() {
            let qos = core.qos_estimate();
            let speed = {
                let world = core.server.world();
                world
                    .ego_id()
                    .map(|id| world.actor(id).state().speed)
                    .unwrap_or_default()
            };
            let active = core.server.active_command();
            let Some(stack) = core.safety.as_mut() else {
                unreachable!("checked above")
            };
            let effective = stack.apply(now, &qos, active, speed);
            if effective != active {
                core.server.apply_command(effective);
            }
        }
    }
}

/// Stage 10 — logging: appends the tick's ego/other samples to the run
/// log, runs the TTC breach-entry edge detector and drains collisions
/// and lane invasions into incident marks.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoggingStage;
stage_names!(LoggingStage, "logging");

impl Stage for LoggingStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn span_name(&self) -> &'static str {
        Self::SPAN
    }

    fn advance(&mut self, ctx: &mut StageContext<'_>) {
        let now = ctx.scratch.now;
        ctx.core.sample(now);
    }
}

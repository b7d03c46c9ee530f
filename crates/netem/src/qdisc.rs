//! Queuing disciplines: FIFO and the NETEM fault-injecting qdisc.

use crate::{LossConfig, NetemConfig, Packet};
use rdsim_math::RngStream;
use rdsim_obs::{Counter, Recorder, TraceStage, Tracer};
use rdsim_units::{SimDuration, SimTime};
use std::collections::BinaryHeap;

/// A queuing discipline: packets go in at `enqueue` time and come out of
/// `dequeue` once their release time has passed.
///
/// This trait is object-safe so links can swap disciplines at runtime.
pub trait Qdisc: std::fmt::Debug + Send {
    /// Offers a packet to the discipline at simulation time `now`.
    ///
    /// Returns the number of queue entries created (0 if the packet was
    /// dropped by a loss fault, 2 if a duplication fault copied it).
    fn enqueue(&mut self, packet: Packet, now: SimTime) -> usize;

    /// Removes and returns every packet whose release time is `<= now`,
    /// in release order.
    ///
    /// Convenience wrapper over [`Qdisc::dequeue_into`]; the per-step
    /// datapath calls the `_into` variant with a reused buffer instead.
    fn dequeue(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        self.dequeue_into(now, &mut out);
        out
    }

    /// Appends every packet whose release time is `<= now` to `out`, in
    /// release order. Allocation-free when `out` has spare capacity.
    fn dequeue_into(&mut self, now: SimTime, out: &mut Vec<Packet>);

    /// Number of packets currently queued.
    fn len(&self) -> usize;

    /// `true` if no packets are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release time of the earliest queued packet, if any.
    fn next_release(&self) -> Option<SimTime>;

    /// Drops all queued packets (used when tearing a link down).
    fn clear(&mut self);
}

/// Telemetry handles for one qdisc, present only while a live recorder is
/// attached — the disabled path carries no handles and touches no atomics.
#[derive(Debug)]
struct QdiscObs {
    enqueued: Counter,
    dequeued: Counter,
    dropped: Counter,
    queue_dropped: Counter,
    duplicated: Counter,
    corrupted: Counter,
    reordered: Counter,
}

impl QdiscObs {
    fn attach(recorder: &Recorder, prefix: &str) -> Self {
        QdiscObs {
            enqueued: recorder.counter(&format!("{prefix}.enqueued")),
            dequeued: recorder.counter(&format!("{prefix}.dequeued")),
            dropped: recorder.counter(&format!("{prefix}.dropped")),
            queue_dropped: recorder.counter(&format!("{prefix}.queue_dropped")),
            duplicated: recorder.counter(&format!("{prefix}.duplicated")),
            corrupted: recorder.counter(&format!("{prefix}.corrupted")),
            reordered: recorder.counter(&format!("{prefix}.reordered")),
        }
    }
}

/// An entry in the delay queue, ordered by `(release, tiebreak)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueueEntry {
    release: SimTime,
    /// Monotone enqueue counter: makes the ordering total and stable.
    tiebreak: u64,
    packet: Packet,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (release, tiebreak).
        other
            .release
            .cmp(&self.release)
            .then(other.tiebreak.cmp(&self.tiebreak))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A plain FIFO discipline with zero delay: models the fault-free loopback
/// path of the paper's test rig.
#[derive(Debug, Default)]
pub struct FifoQdisc {
    queue: std::collections::VecDeque<Packet>,
}

impl FifoQdisc {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        FifoQdisc::default()
    }
}

impl Qdisc for FifoQdisc {
    fn enqueue(&mut self, packet: Packet, _now: SimTime) -> usize {
        self.queue.push_back(packet);
        1
    }

    fn dequeue_into(&mut self, _now: SimTime, out: &mut Vec<Packet>) {
        out.extend(self.queue.drain(..));
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn next_release(&self) -> Option<SimTime> {
        self.queue.front().map(|p| p.sent_at)
    }

    fn clear(&mut self) {
        self.queue.clear();
    }
}

/// The NETEM discipline: applies the active [`NetemConfig`] to every
/// enqueued packet.
///
/// Semantics follow `tc-netem(8)`:
///
/// * **loss** — the packet is discarded. `Random` loss supports first-order
///   correlation; `GilbertElliott` is a two-state Markov burst model.
/// * **duplicate** — the packet is queued twice (the copy marked
///   [`Packet::duplicate`]).
/// * **corrupt** — a single random bit of the packet's wire size is
///   flipped and the packet is marked [`Packet::corrupted`]. A bit past
///   the payload (in wire bytes the sender never built) flips nothing.
/// * **delay** — release time = enqueue time + base ± jitter. Correlated
///   jitter uses a first-order autoregressive mix, like netem. Note that
///   jitter may reorder packets relative to send order — exactly as real
///   NETEM behaves without the `reorder` option.
/// * **reorder** — with the configured probability a packet bypasses the
///   delay entirely (sent immediately), the classic `reorder 25% 50%`
///   behaviour.
/// * **rate** — packets acquire serialisation delay `len·8/rate`, with
///   `len` the wire size, and queue behind previously serialised packets.
#[derive(Debug)]
pub struct NetemQdisc {
    config: NetemConfig,
    rng: RngStream,
    heap: BinaryHeap<QueueEntry>,
    counter: u64,
    /// Previous correlated-jitter sample, in [-1, 1].
    prev_jitter: f64,
    /// Previous correlated-loss sample, in [0, 1).
    prev_loss: f64,
    /// Gilbert–Elliott state: `true` = bad.
    ge_bad: bool,
    /// Busy-until time of the rate limiter.
    rate_busy_until: SimTime,
    /// Reorder gap counter.
    reorder_count: u32,
    /// Queue capacity in packets, resolved from the active config
    /// ([`NetemConfig::effective_limit`]) so the enqueue hot path never
    /// recomputes the BDP. `None` = unbounded (the historical default).
    effective_limit: Option<u32>,
    /// Statistics: dropped packets.
    dropped: u64,
    /// Statistics: packets tail-dropped by the finite queue (congestion),
    /// counted separately from loss-model `dropped`.
    queue_dropped: u64,
    /// Statistics: duplicated packets.
    duplicated: u64,
    /// Statistics: corrupted packets.
    corrupted: u64,
    /// Statistics: packets that jumped the delay queue (reordered).
    reordered: u64,
    /// Telemetry handles (None unless a live recorder was attached).
    obs: Option<QdiscObs>,
    /// Per-packet decision tracer (null unless attached): annotates every
    /// enqueue/drop/corrupt/duplicate/reorder/deliver decision with the
    /// affected packet's [`Packet::trace_id`].
    tracer: Tracer,
}

impl NetemQdisc {
    /// Creates a passthrough qdisc with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        NetemQdisc::with_config(NetemConfig::passthrough(), seed)
    }

    /// Creates a qdisc with an initial configuration.
    pub fn with_config(config: NetemConfig, seed: u64) -> Self {
        NetemQdisc {
            config,
            rng: RngStream::from_seed(seed).substream("netem-qdisc"),
            heap: BinaryHeap::new(),
            counter: 0,
            prev_jitter: 0.0,
            prev_loss: 0.0,
            ge_bad: false,
            rate_busy_until: SimTime::ZERO,
            reorder_count: 0,
            effective_limit: config.effective_limit(),
            dropped: 0,
            queue_dropped: 0,
            duplicated: 0,
            corrupted: 0,
            reordered: 0,
            obs: None,
            tracer: Tracer::null(),
        }
    }

    /// Registers per-decision counters (`<prefix>.dropped`,
    /// `.duplicated`, `.corrupted`, `.reordered`, `.enqueued`,
    /// `.dequeued`) with a recorder. Attaching a null recorder detaches
    /// instead, so the hot path stays instrument-free when telemetry is
    /// off.
    pub fn attach_recorder(&mut self, recorder: &Recorder, prefix: &str) {
        self.obs = recorder
            .enabled()
            .then(|| QdiscObs::attach(recorder, prefix));
    }

    /// Attaches a causal tracer: every qdisc decision is then recorded
    /// against the affected packet's trace id, with the packet's metadata
    /// word ([`Packet::trace_arg`]) as the event detail. Attaching a null
    /// tracer detaches.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Reserves delay-queue capacity for at least `packets` in-flight
    /// packets, so steady-state enqueues never grow the heap. Called by
    /// session preallocation; a no-op once the capacity exists.
    pub fn reserve(&mut self, packets: usize) {
        self.heap.reserve(packets.saturating_sub(self.heap.len()));
    }

    /// The active configuration.
    pub fn config(&self) -> &NetemConfig {
        &self.config
    }

    /// Replaces the active configuration (equivalent to
    /// `tc qdisc change`). Queued packets keep their release times, like
    /// real netem. Removing the rate limiter also forgets its
    /// serialization backlog — as deleting a tbf would — so a later rule
    /// with a fresh rate starts from an idle link.
    pub fn set_config(&mut self, config: NetemConfig) {
        self.config = config;
        self.effective_limit = config.effective_limit();
        if config.rate.is_none() {
            self.rate_busy_until = SimTime::ZERO;
        }
    }

    /// Packets dropped by loss faults so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets tail-dropped by the finite queue (congestion) so far.
    /// Disjoint from [`NetemQdisc::dropped`], which counts loss-model
    /// decisions only.
    pub fn queue_dropped(&self) -> u64 {
        self.queue_dropped
    }

    /// Duplicate copies created so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Packets corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Packets that jumped the delay queue (reorder faults) so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    fn draw_loss(&mut self) -> bool {
        match self.config.loss {
            None => false,
            Some(LossConfig::Random {
                probability,
                correlation,
            }) => {
                // First-order autoregressive correlation, like netem.
                let fresh = self.rng.uniform();
                let value = correlation.get() * self.prev_loss + (1.0 - correlation.get()) * fresh;
                self.prev_loss = value;
                value < probability.get()
            }
            Some(LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad,
                loss_in_good,
            }) => {
                // Advance the Markov chain, then draw loss in-state.
                if self.ge_bad {
                    if self.rng.bernoulli(r.get()) {
                        self.ge_bad = false;
                    }
                } else if self.rng.bernoulli(p.get()) {
                    self.ge_bad = true;
                }
                let p_loss = if self.ge_bad {
                    loss_in_bad.get()
                } else {
                    loss_in_good.get()
                };
                self.rng.bernoulli(p_loss)
            }
        }
    }

    fn draw_delay(&mut self) -> SimDuration {
        match self.config.delay {
            None => SimDuration::ZERO,
            Some(d) => {
                let jitter_ms = if d.jitter.get() > 0.0 {
                    let fresh = self.rng.uniform_range(-1.0, 1.0);
                    let sample = d.correlation.get() * self.prev_jitter
                        + (1.0 - d.correlation.get()) * fresh;
                    self.prev_jitter = sample;
                    d.jitter.get() * sample
                } else {
                    0.0
                };
                let total_ms = (d.base.get() + jitter_ms).max(0.0);
                SimDuration::from_secs_f64(total_ms * 1e-3)
            }
        }
    }

    fn maybe_corrupt(&mut self, packet: &mut Packet, now: SimTime) {
        if let Some(p) = self.config.corrupt {
            if !packet.is_empty() && self.rng.bernoulli(p.get()) {
                // The byte is drawn over the wire size. One past the
                // payload lies in bytes the sender never built, so the
                // flip is a no-op, but the packet still counts and traces
                // as corrupted, with the same draws.
                let byte = self.rng.uniform_usize(packet.len());
                let bit = self.rng.uniform_usize(8);
                // Corruption runs before the duplicate clone is pushed,
                // so the payload is normally unshared and the bit flips
                // in place; a shared payload (clone held elsewhere)
                // falls back to one copy. The RNG draw order is
                // identical either way.
                if byte < packet.payload.len() {
                    if let Some(bytes) = packet.payload.try_mut_slice() {
                        bytes[byte] ^= 1 << bit;
                    } else {
                        let mut bytes = packet.payload.to_vec();
                        bytes[byte] ^= 1 << bit;
                        packet.payload = bytes.into();
                    }
                }
                packet.corrupted = true;
                self.corrupted += 1;
                if let Some(obs) = &self.obs {
                    obs.corrupted.inc();
                }
                self.tracer.record(
                    packet.trace_id(),
                    TraceStage::NetemCorrupt,
                    now.as_micros(),
                    packet.trace_arg(),
                );
            }
        }
    }

    fn push(&mut self, packet: Packet, release: SimTime) {
        self.counter += 1;
        self.heap.push(QueueEntry {
            release,
            tiebreak: self.counter,
            packet,
        });
    }
}

impl Qdisc for NetemQdisc {
    fn enqueue(&mut self, mut packet: Packet, now: SimTime) -> usize {
        if let Some(obs) = &self.obs {
            obs.enqueued.inc();
        }
        self.tracer.record(
            packet.trace_id(),
            TraceStage::NetemEnqueue,
            now.as_micros(),
            packet.trace_arg(),
        );
        if self.draw_loss() {
            self.dropped += 1;
            if let Some(obs) = &self.obs {
                obs.dropped.inc();
            }
            self.tracer.record(
                packet.trace_id(),
                TraceStage::NetemDrop,
                now.as_micros(),
                packet.trace_arg(),
            );
            return 0;
        }
        let mut duplicate = match self.config.duplicate {
            Some(p) => self.rng.bernoulli(p.get()),
            None => false,
        };
        self.maybe_corrupt(&mut packet, now);

        // Finite queue: tail-drop at capacity. Runs after the loss /
        // duplicate / corrupt draws (their RNG order is frozen by the
        // digest contract) and before the rate limiter, so a dropped
        // packet never occupies serialization time.
        if let Some(limit) = self.effective_limit {
            let free = (limit as usize).saturating_sub(self.heap.len());
            if free == 0 {
                self.queue_dropped += 1;
                if let Some(obs) = &self.obs {
                    obs.queue_dropped.inc();
                }
                self.tracer.record(
                    packet.trace_id(),
                    TraceStage::NetemQueueDrop,
                    now.as_micros(),
                    packet.trace_arg(),
                );
                return 0;
            }
            if duplicate && free < 2 {
                // Room for the original only: the copy is congestion-
                // dropped before it is created, like netem's duplicate
                // respecting `limit`. No trace event — the copy never
                // existed as an artifact.
                self.queue_dropped += 1;
                if let Some(obs) = &self.obs {
                    obs.queue_dropped.inc();
                }
                duplicate = false;
            }
        }

        // Rate limiting: serialisation occupies the link sequentially.
        let mut base_time = now;
        if let Some(rate) = self.config.rate {
            let start = now.max(self.rate_busy_until);
            let busy = start + rate.serialization_time(packet.len());
            self.rate_busy_until = busy;
            base_time = busy;
        }

        // Reorder: candidate packets (every `gap`-th) jump the delay queue.
        let mut jumped = false;
        if let Some(reorder) = self.config.reorder {
            self.reorder_count += 1;
            if self.reorder_count >= reorder.gap {
                self.reorder_count = 0;
                if self.rng.bernoulli(reorder.probability.get()) {
                    jumped = true;
                    self.reordered += 1;
                    if let Some(obs) = &self.obs {
                        obs.reordered.inc();
                    }
                    self.tracer.record(
                        packet.trace_id(),
                        TraceStage::NetemReorder,
                        now.as_micros(),
                        packet.trace_arg(),
                    );
                }
            }
        }

        let delay = if jumped {
            SimDuration::ZERO
        } else {
            self.draw_delay()
        };
        let release = base_time + delay;
        // Per-leg stamps for the timeline's glass-to-glass decomposition:
        // queue wait (rate-limiter serialization) and propagation (the
        // delay draw). A duplicate clone inherits both, since it shares
        // the original's release time.
        packet.queued = base_time.saturating_since(now);
        packet.propagation = delay;

        let mut entries = 1usize;
        if duplicate {
            let mut copy = packet.clone();
            copy.duplicate = true;
            self.duplicated += 1;
            if let Some(obs) = &self.obs {
                obs.duplicated.inc();
            }
            self.tracer.record(
                copy.trace_id(),
                TraceStage::NetemDuplicate,
                now.as_micros(),
                copy.trace_arg(),
            );
            // Netem sends the duplicate immediately after the original.
            self.push(copy, release);
            entries += 1;
        }
        self.push(packet, release);
        entries
    }

    fn dequeue_into(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let start = out.len();
        while let Some(top) = self.heap.peek() {
            if top.release > now {
                break;
            }
            out.push(self.heap.pop().expect("peeked").packet);
        }
        if let Some(obs) = &self.obs {
            obs.dequeued.add((out.len() - start) as u64);
        }
        if self.tracer.enabled() {
            for p in &out[start..] {
                self.tracer.record(
                    p.trace_id(),
                    TraceStage::NetemDeliver,
                    now.as_micros(),
                    p.latency_at(now).as_micros(),
                );
            }
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn next_release(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.release)
    }

    fn clear(&mut self) {
        self.heap.clear();
        // Tearing the link down idles the rate limiter too; leaving
        // `rate_busy_until` in the future would leak serialization
        // backlog into whatever rule is installed next.
        self.rate_busy_until = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketKind;
    use rdsim_units::{Millis, Ratio};

    fn pkt(seq: u64) -> Packet {
        Packet::new(seq, PacketKind::Command, vec![0u8; 64])
    }

    fn drain_all(q: &mut NetemQdisc) -> Vec<Packet> {
        q.dequeue(SimTime::from_secs(3600))
    }

    #[test]
    fn passthrough_delivers_immediately() {
        let mut q = NetemQdisc::new(1);
        let t = SimTime::from_millis(10);
        assert_eq!(q.enqueue(pkt(0), t), 1);
        let out = q.dequeue(t);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn fixed_delay_releases_on_time() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        q.enqueue(pkt(0), SimTime::ZERO);
        assert!(q.dequeue(SimTime::from_millis(49)).is_empty());
        assert_eq!(q.next_release(), Some(SimTime::from_millis(50)));
        let out = q.dequeue(SimTime::from_millis(50));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn delay_preserves_fifo_without_jitter() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(25.0)), 1);
        for seq in 0..20 {
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let out = drain_all(&mut q);
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn loss_rate_statistical() {
        let mut q = NetemQdisc::with_config(
            NetemConfig::default().with_loss(Ratio::from_percent(5.0)),
            42,
        );
        let n = 20_000u64;
        let mut delivered = 0u64;
        for seq in 0..n {
            delivered += q.enqueue(pkt(seq), SimTime::ZERO) as u64;
        }
        let loss_rate = 1.0 - delivered as f64 / n as f64;
        assert!((loss_rate - 0.05).abs() < 0.01, "measured loss {loss_rate}");
        assert_eq!(q.dropped(), n - delivered);
    }

    #[test]
    fn correlated_loss_produces_bursts() {
        let config = NetemConfig {
            loss: Some(LossConfig::Random {
                probability: Ratio::from_percent(20.0),
                correlation: Ratio::from_percent(90.0),
            }),
            ..NetemConfig::default()
        };
        let mut q = NetemQdisc::with_config(config, 3);
        let n = 50_000;
        let mut outcomes = Vec::with_capacity(n);
        for seq in 0..n {
            outcomes.push(q.enqueue(pkt(seq as u64), SimTime::ZERO) == 0);
        }
        // Mean burst length of consecutive losses must exceed the
        // independent-loss expectation (≈ 1 / (1 − p) = 1.25).
        let mut bursts = Vec::new();
        let mut run = 0usize;
        for &lost in &outcomes {
            if lost {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        if run > 0 {
            bursts.push(run);
        }
        let mean_burst: f64 = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
        assert!(
            mean_burst > 1.5,
            "correlated loss should burst; mean burst {mean_burst}"
        );
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let config = NetemConfig::default().with_gemodel_loss(
            Ratio::new(0.05),
            Ratio::new(0.05),
            Ratio::new(0.8),
            Ratio::ZERO,
        );
        let mut q = NetemQdisc::with_config(config, 9);
        let n = 100_000u64;
        let mut dropped = 0u64;
        for seq in 0..n {
            if q.enqueue(pkt(seq), SimTime::ZERO) == 0 {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        // Stationary: 0.5 * 0.8 = 0.4.
        assert!((rate - 0.4).abs() < 0.02, "measured {rate}");
    }

    #[test]
    fn duplication_creates_marked_copies() {
        let mut q = NetemQdisc::with_config(
            NetemConfig::default().with_duplicate(Ratio::from_percent(100.0)),
            5,
        );
        assert_eq!(q.enqueue(pkt(7), SimTime::ZERO), 2);
        let out = drain_all(&mut q);
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().filter(|p| p.duplicate).count(), 1);
        assert!(out.iter().all(|p| p.seq == 7));
        assert_eq!(q.duplicated(), 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_corrupt(Ratio::ONE), 5);
        let original = vec![0u8; 64];
        q.enqueue(
            Packet::new(0, PacketKind::Video, original.clone()),
            SimTime::ZERO,
        );
        let out = drain_all(&mut q);
        assert!(out[0].corrupted);
        let diff_bits: u32 = out[0]
            .payload
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
        assert_eq!(out[0].payload.len(), original.len());
        assert_eq!(q.corrupted(), 1);
    }

    #[test]
    fn corruption_mutates_pooled_payload_in_place() {
        let pool = crate::BufPool::new();
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_corrupt(Ratio::ONE), 5);
        let original = vec![0xA5u8; 64];
        let mut buf = pool.checkout();
        buf.buf().extend_from_slice(&original);
        q.enqueue(
            Packet::new(0, PacketKind::Video, buf.freeze()),
            SimTime::ZERO,
        );
        let out = drain_all(&mut q);
        assert!(out[0].corrupted);
        let diff_bits: u32 = out[0]
            .payload
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1, "exactly one bit flips");
        assert_eq!(out[0].payload.len(), original.len(), "length unchanged");
        // In place means the same pool slot carried through: dropping the
        // delivered packet recycles it instead of leaking a replacement.
        drop(out);
        assert_eq!(pool.available(), 1, "payload was corrupted in place");
    }

    #[test]
    fn corruption_of_shared_payload_falls_back_to_copy() {
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_corrupt(Ratio::ONE), 5);
        let payload = crate::Bytes::from(vec![0u8; 32]);
        let held = payload.clone(); // forces the copy-on-write fallback
        q.enqueue(Packet::new(0, PacketKind::Video, payload), SimTime::ZERO);
        let out = drain_all(&mut q);
        assert!(out[0].corrupted);
        let diff_bits: u32 = out[0]
            .payload
            .iter()
            .zip(held.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
        assert_eq!(out[0].payload.len(), held.len());
        assert_eq!(held, vec![0u8; 32], "the held clone is untouched");
    }

    #[test]
    fn corruption_skips_empty_payload() {
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_corrupt(Ratio::ONE), 5);
        q.enqueue(
            Packet::new(0, PacketKind::Qos, Vec::<u8>::new()),
            SimTime::ZERO,
        );
        let out = drain_all(&mut q);
        assert!(!out[0].corrupted);
    }

    #[test]
    fn jitter_stays_within_band() {
        let config = NetemConfig::default().with_jittered_delay(
            Millis::new(50.0),
            Millis::new(10.0),
            Ratio::ZERO,
        );
        let mut q = NetemQdisc::with_config(config, 11);
        for seq in 0..1000 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        while let Some(release) = q.next_release() {
            let ms = release.as_secs_f64() * 1e3;
            assert!(
                (40.0 - 1e-9..=60.0 + 1e-9).contains(&ms),
                "release {ms} ms outside 50±10"
            );
            q.dequeue(release);
        }
    }

    #[test]
    fn jitter_can_reorder_like_real_netem() {
        let config = NetemConfig::default().with_jittered_delay(
            Millis::new(20.0),
            Millis::new(15.0),
            Ratio::ZERO,
        );
        let mut q = NetemQdisc::with_config(config, 13);
        for seq in 0..200 {
            // 1 ms apart — jitter of ±15 ms will scramble them.
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let out = drain_all(&mut q);
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(seqs, sorted, "jitter should reorder");
    }

    #[test]
    fn reorder_option_sends_candidates_immediately() {
        let config = NetemConfig::default()
            .with_delay(Millis::new(100.0))
            .with_reorder(Ratio::ONE, 1);
        let mut q = NetemQdisc::with_config(config, 17);
        q.enqueue(pkt(0), SimTime::ZERO);
        // With probability 1 and gap 1, the packet bypasses the delay.
        let out = q.dequeue(SimTime::ZERO);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn reorder_gap_spares_non_candidates() {
        let config = NetemConfig::default()
            .with_delay(Millis::new(100.0))
            .with_reorder(Ratio::ONE, 5);
        let mut q = NetemQdisc::with_config(config, 17);
        for seq in 0..5 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        // Only every 5th packet is a candidate: exactly one jumps.
        let immediate = q.dequeue(SimTime::ZERO);
        assert_eq!(immediate.len(), 1);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn rate_limit_spaces_packets() {
        // 1 Mbit/s, 125-byte packets → 1 ms serialisation each.
        let config = NetemConfig::default().with_rate(1_000_000);
        let mut q = NetemQdisc::with_config(config, 19);
        for seq in 0..5 {
            q.enqueue(
                Packet::new(seq, PacketKind::Video, vec![0u8; 125]),
                SimTime::ZERO,
            );
        }
        let mut releases = Vec::new();
        while let Some(r) = q.next_release() {
            releases.push(r.as_secs_f64() * 1e3);
            q.dequeue(r);
        }
        let expected = [1.0, 2.0, 3.0, 4.0, 5.0];
        for (got, want) in releases.iter().zip(expected) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn rate_limiter_idles_down() {
        let config = NetemConfig::default().with_rate(1_000_000);
        let mut q = NetemQdisc::with_config(config, 19);
        q.enqueue(
            Packet::new(0, PacketKind::Video, vec![0u8; 125]),
            SimTime::ZERO,
        );
        drain_all(&mut q);
        // A packet arriving much later is not queued behind the stale
        // busy-until time.
        let late = SimTime::from_secs(10);
        q.enqueue(Packet::new(1, PacketKind::Video, vec![0u8; 125]), late);
        assert_eq!(q.next_release(), Some(late + SimDuration::from_millis(1)));
    }

    #[test]
    fn set_config_keeps_queued_packets() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        q.enqueue(pkt(0), SimTime::ZERO);
        q.set_config(NetemConfig::passthrough());
        assert_eq!(q.len(), 1);
        assert!(q.dequeue(SimTime::from_millis(49)).is_empty());
        assert_eq!(q.dequeue(SimTime::from_millis(50)).len(), 1);
    }

    #[test]
    fn clear_drops_everything() {
        let mut q =
            NetemQdisc::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        for seq in 0..10 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        q.clear();
        assert!(q.is_empty());
        assert!(drain_all(&mut q).is_empty());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let config = NetemConfig::default()
            .with_jittered_delay(Millis::new(30.0), Millis::new(10.0), Ratio::new(0.3))
            .with_loss(Ratio::from_percent(10.0));
        let run = |seed| {
            let mut q = NetemQdisc::with_config(config, seed);
            let mut log = Vec::new();
            for seq in 0..500 {
                q.enqueue(pkt(seq), SimTime::from_millis(seq));
            }
            while let Some(r) = q.next_release() {
                for p in q.dequeue(r) {
                    log.push((r.as_micros(), p.seq));
                }
            }
            log
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn recorder_counts_decisions() {
        let registry = rdsim_obs::Registry::new();
        let recorder = registry.recorder();
        let config = NetemConfig::default()
            .with_loss(Ratio::from_percent(30.0))
            .with_duplicate(Ratio::from_percent(30.0))
            .with_corrupt(Ratio::from_percent(30.0));
        let mut q = NetemQdisc::with_config(config, 21);
        q.attach_recorder(&recorder, "netem.test");
        let n = 2_000u64;
        for seq in 0..n {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        let delivered = drain_all(&mut q).len() as u64;
        let t = registry.snapshot();
        assert_eq!(t.counter("netem.test.enqueued"), n);
        assert_eq!(t.counter("netem.test.dequeued"), delivered);
        assert_eq!(t.counter("netem.test.dropped"), q.dropped());
        assert_eq!(t.counter("netem.test.duplicated"), q.duplicated());
        assert_eq!(t.counter("netem.test.corrupted"), q.corrupted());
        assert!(q.dropped() > 0 && q.duplicated() > 0 && q.corrupted() > 0);
    }

    #[test]
    fn tracer_annotates_decisions_with_packet_metadata() {
        use rdsim_obs::{ArtifactKind, TraceStage, Tracer};
        let tracer = Tracer::with_capacity(16_384);
        let config = NetemConfig::default()
            .with_delay(Millis::new(10.0))
            .with_loss(Ratio::from_percent(25.0))
            .with_duplicate(Ratio::from_percent(25.0))
            .with_corrupt(Ratio::from_percent(25.0));
        let mut q = NetemQdisc::with_config(config, 9);
        q.attach_tracer(&tracer);
        let n = 500u64;
        for seq in 0..n {
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let delivered = drain_all(&mut q);
        let log = tracer.log();
        let count =
            |stage: TraceStage| log.events.iter().filter(|e| e.stage == stage).count() as u64;
        assert_eq!(count(TraceStage::NetemEnqueue), n, "every packet enters");
        assert_eq!(count(TraceStage::NetemDrop), q.dropped());
        assert_eq!(count(TraceStage::NetemDuplicate), q.duplicated());
        assert_eq!(count(TraceStage::NetemCorrupt), q.corrupted());
        assert_eq!(count(TraceStage::NetemDeliver), delivered.len() as u64);
        assert!(q.dropped() > 0 && q.duplicated() > 0 && q.corrupted() > 0);
        // Annotations carry the packet's metadata word: duplicate deliveries
        // have bit 33 set, and every enqueue arg's low 32 bits are the
        // wire size of our fixed test packet.
        let dup_seq = delivered.iter().find(|p| p.duplicate).expect("dup").seq;
        assert!(log
            .lineage(rdsim_obs::TraceId::new(ArtifactKind::Command, dup_seq))
            .iter()
            .any(|e| e.stage == TraceStage::NetemDuplicate && (e.arg >> 33) & 1 == 1));
        let payload_len = pkt(0).len() as u64;
        assert!(log
            .events
            .iter()
            .filter(|e| e.stage == TraceStage::NetemEnqueue)
            .all(|e| e.arg & 0xFFFF_FFFF == payload_len));
        // Deliver args are the experienced latency in µs (≥ base delay).
        assert!(log
            .events
            .iter()
            .filter(|e| e.stage == TraceStage::NetemDeliver)
            .all(|e| e.arg >= 10_000));
    }

    #[test]
    fn null_recorder_detaches() {
        let registry = rdsim_obs::Registry::new();
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_loss(Ratio::ONE), 3);
        q.attach_recorder(&registry.recorder(), "netem.test");
        q.attach_recorder(&rdsim_obs::Recorder::null(), "netem.test");
        q.enqueue(pkt(0), SimTime::ZERO);
        assert_eq!(registry.snapshot().counter("netem.test.dropped"), 0);
        assert_eq!(q.dropped(), 1, "internal stats still track");
    }

    #[test]
    fn fifo_qdisc_is_transparent() {
        let mut q = FifoQdisc::new();
        assert!(q.is_empty());
        q.enqueue(pkt(1), SimTime::ZERO);
        q.enqueue(pkt(2), SimTime::ZERO);
        assert_eq!(q.len(), 2);
        let out = q.dequeue(SimTime::ZERO);
        assert_eq!(out.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![1, 2]);
        q.enqueue(pkt(3), SimTime::ZERO);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_rate_limiter_backlog() {
        // 64 kbit/s ⇒ a 64-byte packet serializes in 8 ms.
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_rate(64_000), 9);
        for seq in 0..10 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        // Backlog: the 10th packet releases at 80 ms.
        assert_eq!(q.next_release(), Some(SimTime::from_millis(8)));
        q.clear();
        assert!(q.is_empty());
        // Regression: a fresh packet after clear() must serialize from an
        // idle link, not behind the pre-teardown backlog.
        q.enqueue(pkt(99), SimTime::ZERO);
        assert_eq!(q.next_release(), Some(SimTime::from_millis(8)));
    }

    #[test]
    fn removing_the_rate_forgets_the_backlog() {
        let mut q = NetemQdisc::with_config(NetemConfig::default().with_rate(64_000), 9);
        for seq in 0..10 {
            q.enqueue(pkt(seq), SimTime::ZERO);
        }
        // Fault teardown swaps in passthrough; a later rate rule starts
        // from an idle link.
        q.set_config(NetemConfig::passthrough());
        drain_all(&mut q);
        q.set_config(NetemConfig::default().with_rate(64_000));
        q.enqueue(pkt(99), SimTime::from_millis(1));
        assert_eq!(q.next_release(), Some(SimTime::from_millis(9)));
    }

    #[test]
    fn tail_drop_caps_queue_and_is_deterministic() {
        let config = NetemConfig::default().with_rate(64_000).with_limit(4);
        let run = || {
            let mut q = NetemQdisc::with_config(config, 21);
            let mut peak = 0usize;
            for seq in 0..20 {
                q.enqueue(pkt(seq), SimTime::ZERO);
                peak = peak.max(q.len());
            }
            let survivors: Vec<u64> = drain_all(&mut q).iter().map(|p| p.seq).collect();
            (peak, q.queue_dropped(), survivors)
        };
        let (peak, dropped, survivors) = run();
        assert!(peak <= 4, "queue length never exceeds the limit");
        assert_eq!(dropped, 16);
        assert_eq!(survivors, vec![0, 1, 2, 3], "tail drop keeps the head");
        // Loss-model drops stay zero: congestion is a separate ledger.
        assert_eq!(run().1, dropped, "deterministic under a fixed seed");
        assert_eq!(run().2, survivors);
    }

    #[test]
    fn bdp_limit_applies_without_explicit_limit() {
        // 1 Mbit/s × 50 ms ⇒ 2×BDP / 1500 B = ⌈8.3⌉, floored to 16.
        let config = NetemConfig::default()
            .with_delay(Millis::new(50.0))
            .with_rate(1_000_000);
        let limit = config.effective_limit().expect("rate implies a limit") as usize;
        let mut q = NetemQdisc::with_config(config, 5);
        for seq in 0..3 * limit as u64 {
            q.enqueue(pkt(seq), SimTime::ZERO);
            assert!(q.len() <= limit);
        }
        assert_eq!(q.len(), limit);
        assert_eq!(q.queue_dropped(), 2 * limit as u64);
        assert_eq!(q.dropped(), 0, "no loss-model drops involved");
    }

    #[test]
    fn duplicate_copy_respects_the_limit() {
        // duplicate 100%: each packet wants 2 slots. limit 3 ⇒ the second
        // packet's copy is congestion-dropped, the third packet entirely.
        let config = NetemConfig::default()
            .with_duplicate(Ratio::ONE)
            .with_limit(3);
        let mut q = NetemQdisc::with_config(config, 7);
        assert_eq!(q.enqueue(pkt(0), SimTime::ZERO), 2);
        assert_eq!(q.enqueue(pkt(1), SimTime::ZERO), 1, "copy suppressed");
        assert_eq!(q.enqueue(pkt(2), SimTime::ZERO), 0, "queue full");
        assert_eq!(q.len(), 3);
        assert_eq!(q.queue_dropped(), 2);
        assert_eq!(q.duplicated(), 1, "only the stored copy counts");
    }

    /// Wilson score interval for `k` successes in `n` trials at ~99.9%
    /// confidence (z = 3.29).
    fn wilson_ci(k: u64, n: u64) -> (f64, f64) {
        let z = 3.29f64;
        let n = n as f64;
        let p = k as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (centre - half, centre + half)
    }

    #[test]
    fn gilbert_elliott_stationary_rate_matches_closed_form() {
        // Stationary bad-state occupancy is p/(p+r); with loss 1 in bad
        // and 0 in good the stationary loss rate is exactly that.
        let p = Ratio::new(0.05);
        let r = Ratio::new(0.20);
        let config: NetemConfig = "loss gemodel 5% 20% 100% 0%".parse().unwrap();
        assert_eq!(
            config.loss,
            Some(LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad: Ratio::ONE,
                loss_in_good: Ratio::ZERO,
            })
        );
        let predicted = config.loss.unwrap().average_rate().get();
        assert!((predicted - 0.05 / 0.25).abs() < 1e-12);
        let n = 200_000u64;
        let mut q = NetemQdisc::with_config(config, 1234);
        for seq in 0..n {
            q.enqueue(pkt(seq), SimTime::from_millis(seq));
        }
        let (lo, hi) = wilson_ci(q.dropped(), n);
        assert!(
            (lo..=hi).contains(&predicted),
            "closed-form {predicted} outside Wilson CI [{lo}, {hi}] \
             (empirical {})",
            q.dropped() as f64 / n as f64
        );
    }
}

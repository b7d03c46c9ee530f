//! Emulated links: unidirectional and duplex.

use crate::{NetemConfig, NetemQdisc, Packet};
use rdsim_obs::{Histogram, Recorder, Tracer};
use rdsim_units::{SimDuration, SimTime};
use std::sync::Arc;

/// Delivery statistics of one link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub sent: u64,
    /// Packets delivered to the receiver.
    pub delivered: u64,
    /// Packets dropped by loss faults.
    pub dropped: u64,
    /// Packets tail-dropped by a full finite queue (congestion) —
    /// disjoint from the loss-model `dropped` ledger.
    pub queue_dropped: u64,
    /// Duplicate copies delivered.
    pub duplicates: u64,
    /// Corrupted packets delivered.
    pub corrupted: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Sum of delivery latencies (for the mean).
    pub total_latency: SimDuration,
    /// Worst delivery latency observed.
    pub max_latency: SimDuration,
}

impl LinkStats {
    /// Mean delivery latency, or zero when nothing was delivered.
    pub fn mean_latency(&self) -> SimDuration {
        if self.delivered == 0 {
            SimDuration::ZERO
        } else {
            self.total_latency / self.delivered
        }
    }

    /// Fraction of offered packets that were dropped.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.dropped as f64 / self.sent as f64
        }
    }
}

/// One direction of an emulated network path: an egress NETEM qdisc, as in
/// the paper's loopback setup where outgoing traffic of each endpoint
/// traverses the fault rules.
#[derive(Debug)]
pub struct Link {
    qdisc: NetemQdisc,
    stats: LinkStats,
    /// Per-delivery latency histogram (µs), present only while a live
    /// recorder is attached.
    latency_hist: Option<Arc<Histogram>>,
}

impl Link {
    /// Creates a passthrough link with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Link {
            qdisc: NetemQdisc::new(seed),
            stats: LinkStats::default(),
            latency_hist: None,
        }
    }

    /// Creates a link with an initial fault configuration.
    pub fn with_config(config: NetemConfig, seed: u64) -> Self {
        Link {
            qdisc: NetemQdisc::with_config(config, seed),
            stats: LinkStats::default(),
            latency_hist: None,
        }
    }

    /// Registers this link's instruments under `prefix` (e.g.
    /// `netem.uplink`): a `<prefix>.latency_us` delivery-latency histogram
    /// plus the qdisc decision counters. Attaching a null recorder
    /// detaches.
    pub fn attach_recorder(&mut self, recorder: &Recorder, prefix: &str) {
        self.qdisc.attach_recorder(recorder, prefix);
        self.latency_hist = recorder
            .enabled()
            .then(|| recorder.histogram(&format!("{prefix}.latency_us")));
    }

    /// Attaches a causal tracer to the underlying qdisc, annotating every
    /// per-packet decision with the packet's trace id. Attaching a null
    /// tracer detaches.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.qdisc.attach_tracer(tracer);
    }

    /// The active fault configuration.
    pub fn config(&self) -> &NetemConfig {
        self.qdisc.config()
    }

    /// Replaces the fault configuration (like `tc qdisc change`).
    pub fn set_config(&mut self, config: NetemConfig) {
        self.qdisc.set_config(config);
    }

    /// Reserves qdisc capacity for at least `packets` in-flight packets
    /// (see [`NetemQdisc::reserve`]).
    pub fn reserve(&mut self, packets: usize) {
        self.qdisc.reserve(packets);
    }

    /// Sends a packet into the link at time `now`, stamping `sent_at`.
    pub fn send(&mut self, mut packet: Packet, now: SimTime) {
        packet.sent_at = now;
        self.stats.sent += 1;
        let before_drops = self.qdisc.dropped();
        let before_queue_drops = self.qdisc.queue_dropped();
        self.qdisc.enqueue(packet, now);
        self.stats.dropped += self.qdisc.dropped() - before_drops;
        self.stats.queue_dropped += self.qdisc.queue_dropped() - before_queue_drops;
    }

    /// Receives every packet whose delivery time has arrived.
    ///
    /// Convenience wrapper over [`receive_into`](Self::receive_into); the
    /// per-step datapath reuses a scratch buffer instead.
    pub fn receive(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        self.receive_into(now, &mut out);
        out
    }

    /// Appends every packet whose delivery time has arrived to `out`,
    /// updating delivery statistics. Allocation-free when `out` has
    /// spare capacity.
    pub fn receive_into(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let start = out.len();
        self.qdisc.dequeue_into(now, out);
        for p in &out[start..] {
            self.stats.delivered += 1;
            self.stats.bytes_delivered += p.len() as u64;
            if p.duplicate {
                self.stats.duplicates += 1;
            }
            if p.corrupted {
                self.stats.corrupted += 1;
            }
            let lat = p.latency_at(now);
            self.stats.total_latency += lat;
            if lat > self.stats.max_latency {
                self.stats.max_latency = lat;
            }
            if let Some(hist) = &self.latency_hist {
                hist.record(lat.as_micros());
            }
        }
    }

    /// Runs one pipeline-stage worth of traffic: offers `packets` to the
    /// link in order, then drains everything whose delivery time has
    /// arrived. Exactly equivalent to [`send`](Self::send)ing each packet
    /// followed by one [`receive`](Self::receive) — the link direction as
    /// a single stage of the session pipeline.
    pub fn transfer(&mut self, packets: Vec<Packet>, now: SimTime) -> Vec<Packet> {
        for packet in packets {
            self.send(packet, now);
        }
        self.receive(now)
    }

    /// [`transfer`](Self::transfer) with caller-owned buffers: drains
    /// `packets` into the link and appends the arrivals to `out`,
    /// leaving both vectors' capacity in place for the next step.
    pub fn transfer_into(
        &mut self,
        packets: &mut Vec<Packet>,
        now: SimTime,
        out: &mut Vec<Packet>,
    ) {
        for packet in packets.drain(..) {
            self.send(packet, now);
        }
        self.receive_into(now, out);
    }

    /// Time of the next pending delivery, if any.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.qdisc.next_release()
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.qdisc.len()
    }

    /// Delivery statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Duplicate copies created by the qdisc so far (counted at enqueue;
    /// [`LinkStats::duplicates`] counts copies *delivered*).
    pub fn duplicated(&self) -> u64 {
        self.qdisc.duplicated()
    }

    /// Packets tail-dropped by the finite queue (congestion) so far.
    pub fn queue_dropped(&self) -> u64 {
        self.qdisc.queue_dropped()
    }

    /// Packets that jumped the delay queue (reorder faults) so far.
    pub fn reordered(&self) -> u64 {
        self.qdisc.reordered()
    }

    /// Drops all in-flight packets and resets statistics.
    pub fn reset(&mut self) {
        self.qdisc.clear();
        self.stats = LinkStats::default();
    }
}

/// A bidirectional path built from two independent [`Link`]s.
///
/// In the paper both directions run over the same loopback interface, so a
/// single NETEM rule affects both the video feed (vehicle → operator) and
/// the command stream (operator → vehicle). [`DuplexLink::set_both`]
/// mirrors that bidirectional behaviour; per-direction configs are also
/// available for the unidirectional experiments of related work.
#[derive(Debug)]
pub struct DuplexLink {
    /// Vehicle → operator direction (video, QoS).
    pub uplink: Link,
    /// Operator → vehicle direction (commands, meta-commands).
    pub downlink: Link,
}

impl DuplexLink {
    /// Creates a passthrough duplex link; the two directions draw from
    /// independent RNG substreams of `seed`.
    pub fn new(seed: u64) -> Self {
        DuplexLink {
            uplink: Link::new(seed.wrapping_mul(2).wrapping_add(1)),
            downlink: Link::new(seed.wrapping_mul(2).wrapping_add(2)),
        }
    }

    /// Applies the same fault configuration to both directions — the
    /// paper's loopback semantics.
    pub fn set_both(&mut self, config: NetemConfig) {
        self.uplink.set_config(config);
        self.downlink.set_config(config);
    }

    /// Registers both directions with a recorder, under `netem.uplink`
    /// and `netem.downlink`.
    pub fn attach_recorder(&mut self, recorder: &Recorder) {
        self.uplink.attach_recorder(recorder, "netem.uplink");
        self.downlink.attach_recorder(recorder, "netem.downlink");
    }

    /// Attaches a causal tracer to both directions.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.uplink.attach_tracer(tracer);
        self.downlink.attach_tracer(tracer);
    }

    /// Resets both directions.
    pub fn reset(&mut self) {
        self.uplink.reset();
        self.downlink.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketKind;
    use rdsim_units::{Millis, Ratio};

    fn video(seq: u64) -> Packet {
        Packet::new(seq, PacketKind::Video, vec![0u8; 1000])
    }

    #[test]
    fn send_receive_roundtrip() {
        let mut link = Link::new(1);
        link.send(video(1), SimTime::from_millis(5));
        let out = link.receive(SimTime::from_millis(5));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sent_at, SimTime::from_millis(5));
        assert_eq!(link.stats().sent, 1);
        assert_eq!(link.stats().delivered, 1);
        assert_eq!(link.stats().bytes_delivered, 1000);
    }

    #[test]
    fn the_wire_size_is_what_the_link_carries_and_corrupts() {
        // 1 Mbit/s: a 125-byte wire size serialises in 1 ms, whatever the
        // payload, so a packet sent every 1 ms arrives 1 ms later. Half of
        // it is payload, so about half the corruption draws flip a payload
        // bit and the rest fall past the payload.
        let tracer = rdsim_obs::Tracer::with_capacity(4_096);
        let config = NetemConfig::default()
            .with_rate(1_000_000)
            .with_corrupt(Ratio::ONE);
        let mut link = Link::with_config(config, 23);
        link.attach_tracer(&tracer);
        let original = vec![0x3Cu8; 62];
        let n = 200u64;
        let mut delivered = Vec::new();
        for seq in 0..n {
            let packet = Packet::new(seq, PacketKind::Video, original.clone()).with_wire_len(125);
            link.send(packet, SimTime::from_millis(seq));
            let due = SimTime::from_millis(seq + 1);
            assert_eq!(
                link.next_delivery(),
                Some(due),
                "serialised by the wire size"
            );
            delivered.extend(link.receive(due));
        }
        assert_eq!(link.stats().bytes_delivered, 125 * n);
        assert_eq!(link.stats().corrupted, n, "every draw counts");
        let mut flipped = 0;
        for p in &delivered {
            assert!(p.corrupted);
            assert_eq!(p.len(), 125);
            assert_eq!(p.payload.len(), original.len());
            let diff_bits: u32 = p
                .payload
                .iter()
                .zip(&original)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert!(diff_bits <= 1);
            flipped += u64::from(diff_bits);
        }
        assert!(
            (1..n).contains(&flipped),
            "{flipped} of {n} flips landed in the payload"
        );
        let log = tracer.log();
        let args = |stage| {
            log.events
                .iter()
                .filter(move |e| e.stage == stage)
                .map(|e| e.arg & 0xFFFF_FFFF)
        };
        assert_eq!(
            args(rdsim_obs::TraceStage::NetemCorrupt).count() as u64,
            n,
            "a flip past the payload still traces"
        );
        assert!(args(rdsim_obs::TraceStage::NetemCorrupt).all(|len| len == 125));
        assert!(args(rdsim_obs::TraceStage::NetemEnqueue).all(|len| len == 125));
    }

    #[test]
    fn stats_track_latency() {
        let mut link = Link::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        link.send(video(1), SimTime::ZERO);
        link.send(video(2), SimTime::ZERO);
        assert_eq!(link.in_flight(), 2);
        let out = link.receive(SimTime::from_millis(50));
        assert_eq!(out.len(), 2);
        assert_eq!(link.stats().mean_latency(), SimDuration::from_millis(50));
        assert_eq!(link.stats().max_latency, SimDuration::from_millis(50));
    }

    #[test]
    fn loss_reflected_in_stats() {
        let mut link = Link::with_config(NetemConfig::default().with_loss(Ratio::ONE), 1);
        for seq in 0..10 {
            link.send(video(seq), SimTime::ZERO);
        }
        assert!(link.receive(SimTime::from_secs(1)).is_empty());
        assert_eq!(link.stats().dropped, 10);
        assert_eq!(link.stats().loss_rate(), 1.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LinkStats::default();
        assert_eq!(s.mean_latency(), SimDuration::ZERO);
        assert_eq!(s.loss_rate(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut link = Link::with_config(NetemConfig::default().with_delay(Millis::new(50.0)), 1);
        link.send(video(1), SimTime::ZERO);
        link.reset();
        assert_eq!(link.in_flight(), 0);
        assert_eq!(link.stats().sent, 0);
        assert!(link.receive(SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn duplex_bidirectional_faults() {
        let mut duplex = DuplexLink::new(9);
        duplex.set_both(NetemConfig::default().with_delay(Millis::new(25.0)));
        duplex.uplink.send(video(1), SimTime::ZERO);
        duplex.downlink.send(
            Packet::new(1, PacketKind::Command, vec![1u8]),
            SimTime::ZERO,
        );
        // Both directions experience the delay.
        assert!(duplex.uplink.receive(SimTime::from_millis(20)).is_empty());
        assert!(duplex.downlink.receive(SimTime::from_millis(20)).is_empty());
        assert_eq!(duplex.uplink.receive(SimTime::from_millis(25)).len(), 1);
        assert_eq!(duplex.downlink.receive(SimTime::from_millis(25)).len(), 1);
        duplex.reset();
        assert_eq!(duplex.uplink.stats().sent, 0);
    }

    #[test]
    fn duplex_directions_use_independent_randomness() {
        let mut duplex = DuplexLink::new(9);
        duplex.set_both(NetemConfig::default().with_loss(Ratio::from_percent(50.0)));
        let n = 2000;
        for seq in 0..n {
            duplex.uplink.send(video(seq), SimTime::ZERO);
            duplex.downlink.send(
                Packet::new(seq, PacketKind::Command, vec![0u8; 8]),
                SimTime::ZERO,
            );
        }
        let up = duplex.uplink.receive(SimTime::from_secs(1));
        let down = duplex.downlink.receive(SimTime::from_secs(1));
        // Same loss probability, but different realisations.
        let up_set: Vec<u64> = up.iter().map(|p| p.seq).collect();
        let down_set: Vec<u64> = down.iter().map(|p| p.seq).collect();
        assert_ne!(up_set, down_set);
    }

    #[test]
    fn recorder_captures_delivery_latency() {
        let registry = rdsim_obs::Registry::new();
        let mut duplex = DuplexLink::new(4);
        duplex.attach_recorder(&registry.recorder());
        duplex.set_both(NetemConfig::default().with_delay(Millis::new(50.0)));
        duplex.uplink.send(video(1), SimTime::ZERO);
        duplex.uplink.receive(SimTime::from_millis(50));
        let t = registry.snapshot();
        let h = t.histogram("netem.uplink.latency_us").expect("registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 50_000, "50 ms in µs");
        assert_eq!(t.counter("netem.uplink.enqueued"), 1);
        assert!(
            t.histogram("netem.downlink.latency_us").unwrap().is_empty(),
            "nothing sent downlink"
        );
    }

    #[test]
    fn transfer_equals_send_then_receive() {
        // Same seed, same offered traffic: the stage-shaped API must make
        // identical per-packet decisions as the two-call form.
        let cfg = NetemConfig::default()
            .with_delay(Millis::new(10.0))
            .with_loss(Ratio::from_percent(30.0));
        let mut a = Link::with_config(cfg, 77);
        let mut b = Link::with_config(cfg, 77);
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for step in 0..200u64 {
            let now = SimTime::from_millis(step * 20);
            got_a.extend(a.transfer(vec![video(step)], now));
            b.send(video(step), now);
            got_b.extend(b.receive(now));
        }
        let seqs = |v: &[Packet]| v.iter().map(|p| p.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&got_a), seqs(&got_b));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn per_leg_stamps_decompose_delivery_latency() {
        // delay 50 ms + 8 Mbit/s rate: 1000 B serializes in 1 ms, so the
        // second packet queues behind the first. For every delivery,
        // queued + propagation must equal release − sent_at exactly.
        let cfg = NetemConfig::default()
            .with_delay(Millis::new(50.0))
            .with_rate(8_000_000);
        let mut link = Link::with_config(cfg, 3);
        link.send(video(1), SimTime::ZERO);
        link.send(video(2), SimTime::ZERO);
        let out = link.receive(SimTime::from_secs(1));
        assert_eq!(out.len(), 2);
        for p in &out {
            assert!(p.queued > SimDuration::ZERO, "rate limiter queues");
            assert_eq!(p.propagation, SimDuration::from_millis(50));
        }
        assert_eq!(out[0].queued, SimDuration::from_millis(1));
        assert_eq!(out[1].queued, SimDuration::from_millis(2));

        // Passthrough link: both legs zero.
        let mut plain = Link::new(5);
        plain.send(video(3), SimTime::from_millis(7));
        let got = plain.receive(SimTime::from_millis(7));
        assert_eq!(got[0].queued, SimDuration::ZERO);
        assert_eq!(got[0].propagation, SimDuration::ZERO);
    }

    #[test]
    fn reorder_and_duplicate_tallies_surface_on_link() {
        let cfg = NetemConfig::default()
            .with_delay(Millis::new(40.0))
            .with_reorder(Ratio::ONE, 1);
        let mut link = Link::with_config(cfg, 11);
        assert_eq!(link.reordered(), 0);
        link.send(video(1), SimTime::ZERO);
        assert_eq!(link.reordered(), 1, "gap-1 p=1 reorders every packet");
        let out = link.receive(SimTime::ZERO);
        assert_eq!(out.len(), 1, "reordered packet jumped the delay");
        assert_eq!(
            out[0].propagation,
            SimDuration::ZERO,
            "jump bypasses the delay draw"
        );

        let mut dup = Link::with_config(NetemConfig::default().with_duplicate(Ratio::ONE), 12);
        dup.send(video(1), SimTime::ZERO);
        assert_eq!(dup.duplicated(), 1);
    }

    #[test]
    fn next_delivery_reports_pending() {
        let mut link = Link::with_config(NetemConfig::default().with_delay(Millis::new(10.0)), 2);
        assert_eq!(link.next_delivery(), None);
        link.send(video(1), SimTime::from_millis(100));
        assert_eq!(link.next_delivery(), Some(SimTime::from_millis(110)));
    }
}

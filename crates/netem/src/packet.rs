//! Packets carried across emulated links.

use bytes::Bytes;
use rdsim_units::{SimDuration, SimTime};
use std::fmt;

/// What a packet carries, mirroring the paper's RDS traffic classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A video frame from the vehicle subsystem to the operator station.
    Video,
    /// A driving command (steer/throttle/brake) from operator to vehicle.
    Command,
    /// A meta-command (weather, spawn, sensor config) — CARLA's second
    /// client-to-server stream.
    Meta,
    /// Quality-of-service telemetry.
    Qos,
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketKind::Video => "video",
            PacketKind::Command => "command",
            PacketKind::Meta => "meta",
            PacketKind::Qos => "qos",
        };
        f.write_str(s)
    }
}

/// A packet in flight on an emulated link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sender-assigned sequence number (unique per stream).
    pub seq: u64,
    /// Traffic class.
    pub kind: PacketKind,
    /// Payload bytes (for video frames this is the encoded frame).
    pub payload: Bytes,
    /// Size on the wire declared by a sender that models a larger packet
    /// than it builds (a video frame's compressed size around its encoded
    /// scene); 0 when none was declared. See [`Packet::len`].
    wire_len: usize,
    /// When the packet entered the link; set by [`crate::Link::send`].
    pub sent_at: SimTime,
    /// `true` if a corruption fault flipped bits in the payload.
    pub corrupted: bool,
    /// `true` if this packet is a duplicate created by a duplication fault.
    pub duplicate: bool,
    /// Time spent waiting behind the rate limiter (serialization queue),
    /// stamped by the qdisc on enqueue. Zero without a rate limit.
    pub queued: SimDuration,
    /// Propagation latency drawn by the delay model, stamped by the qdisc
    /// on enqueue. Zero without a delay rule (or when a reorder jump
    /// bypassed the delay draw).
    pub propagation: SimDuration,
}

impl Packet {
    /// Creates a packet. `sent_at` is stamped by the link on send.
    pub fn new(seq: u64, kind: PacketKind, payload: impl Into<Bytes>) -> Self {
        Packet {
            seq,
            kind,
            payload: payload.into(),
            wire_len: 0,
            sent_at: SimTime::ZERO,
            corrupted: false,
            duplicate: false,
            queued: SimDuration::ZERO,
            propagation: SimDuration::ZERO,
        }
    }

    /// Declares the packet's size on the wire. The bytes past the
    /// payload are never built.
    pub fn with_wire_len(mut self, wire_len: usize) -> Self {
        self.wire_len = wire_len;
        self
    }

    /// Size on the wire in bytes: the declared wire size or the payload's
    /// length, whichever is larger. It is what the rate limiter
    /// serialises, what a corruption draws its byte over, and what link
    /// statistics count.
    pub fn len(&self) -> usize {
        self.wire_len.max(self.payload.len())
    }

    /// `true` for a packet of no bytes on the wire.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latency experienced by the packet if delivered at `now`.
    pub fn latency_at(&self, now: SimTime) -> rdsim_units::SimDuration {
        now.saturating_since(self.sent_at)
    }

    /// The tracing identity of this packet: its traffic class mapped to
    /// an [`ArtifactKind`](rdsim_obs::ArtifactKind) plus the sender
    /// sequence number — minted at origin, so the same id stitches the
    /// qdisc's decisions to the endpoints' capture/display/actuate events.
    pub fn trace_id(&self) -> rdsim_obs::TraceId {
        let kind = match self.kind {
            PacketKind::Video => rdsim_obs::ArtifactKind::Frame,
            PacketKind::Command => rdsim_obs::ArtifactKind::Command,
            PacketKind::Meta => rdsim_obs::ArtifactKind::Meta,
            PacketKind::Qos => rdsim_obs::ArtifactKind::Qos,
        };
        rdsim_obs::TraceId::new(kind, self.seq)
    }

    /// The packet's metadata packed into the trace-annotation word:
    /// wire size in the low 32 bits, the `corrupted` flag in bit 32,
    /// the `duplicate` flag in bit 33, and the send time (whole ms,
    /// saturating) in bits 34..=63.
    pub fn trace_arg(&self) -> u64 {
        let sent_ms = (self.sent_at.as_micros() / 1_000).min((1 << 30) - 1);
        (self.len() as u64 & 0xFFFF_FFFF)
            | ((self.corrupted as u64) << 32)
            | ((self.duplicate as u64) << 33)
            | (sent_ms << 34)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} ({} B{}{})",
            self.kind,
            self.seq,
            self.len(),
            if self.corrupted { ", corrupted" } else { "" },
            if self.duplicate { ", dup" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_units::SimDuration;

    #[test]
    fn construction_and_accessors() {
        let p = Packet::new(7, PacketKind::Video, vec![1u8, 2, 3]);
        assert_eq!(p.seq, 7);
        assert_eq!(p.kind, PacketKind::Video);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(!p.corrupted);
        assert!(!p.duplicate);
    }

    #[test]
    fn wire_len_is_the_declared_size_and_never_below_the_payload() {
        let p = Packet::new(1, PacketKind::Video, vec![7u8; 40]).with_wire_len(20_000);
        assert_eq!(p.len(), 20_000);
        assert_eq!(p.payload.len(), 40, "the padding is never built");
        assert_eq!(p.trace_arg() & 0xFFFF_FFFF, 20_000);
        assert_eq!(format!("{p}"), "video#1 (20000 B)");
        let q = Packet::new(2, PacketKind::Video, vec![7u8; 40]).with_wire_len(10);
        assert_eq!(q.len(), 40);
    }

    #[test]
    fn empty_packet() {
        let p = Packet::new(0, PacketKind::Qos, Vec::<u8>::new());
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn latency() {
        let mut p = Packet::new(1, PacketKind::Command, vec![0u8]);
        p.sent_at = SimTime::from_millis(100);
        assert_eq!(
            p.latency_at(SimTime::from_millis(150)),
            SimDuration::from_millis(50)
        );
        // Before send time: saturates.
        assert_eq!(p.latency_at(SimTime::from_millis(50)), SimDuration::ZERO);
    }

    #[test]
    fn trace_id_follows_kind_and_seq() {
        use rdsim_obs::ArtifactKind;
        let cases = [
            (PacketKind::Video, ArtifactKind::Frame),
            (PacketKind::Command, ArtifactKind::Command),
            (PacketKind::Meta, ArtifactKind::Meta),
            (PacketKind::Qos, ArtifactKind::Qos),
        ];
        for (pk, ak) in cases {
            let p = Packet::new(42, pk, vec![0u8; 4]);
            assert_eq!(p.trace_id().kind(), ak);
            assert_eq!(p.trace_id().seq(), 42);
        }
    }

    #[test]
    fn trace_arg_packs_metadata_fields() {
        let mut p = Packet::new(1, PacketKind::Video, vec![0u8; 300]);
        p.sent_at = SimTime::from_millis(250);
        assert_eq!(p.trace_arg() & 0xFFFF_FFFF, 300, "payload length");
        assert_eq!((p.trace_arg() >> 32) & 1, 0);
        assert_eq!((p.trace_arg() >> 33) & 1, 0);
        assert_eq!(p.trace_arg() >> 34, 250, "send time in ms");
        p.corrupted = true;
        p.duplicate = true;
        assert_eq!((p.trace_arg() >> 32) & 1, 1, "corrupted flag");
        assert_eq!((p.trace_arg() >> 33) & 1, 1, "duplicate flag");
    }

    #[test]
    fn display_forms() {
        let p = Packet::new(3, PacketKind::Meta, vec![0u8; 10]);
        assert_eq!(format!("{p}"), "meta#3 (10 B)");
        assert_eq!(format!("{}", PacketKind::Video), "video");
        assert_eq!(format!("{}", PacketKind::Qos), "qos");
    }
}

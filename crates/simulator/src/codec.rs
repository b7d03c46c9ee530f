//! Binary codec for video frames.
//!
//! Real teleoperation stacks ship compressed video; a flipped bit either
//! slips through as visual noise or is caught by the container checksum.
//! This codec gives the reproduction the same property: a frame carries the
//! scene as a compact binary body behind a [`wire_checksum`], and decoding
//! a corrupted frame fails loudly, which the operator subsystem treats as a
//! dropped frame.
//!
//! The payload is the body only. The size of the compressed video frame it
//! stands in for ([`CameraConfig::frame_bytes`](crate::CameraConfig)) travels
//! beside it as the packet's wire size, which is what the network emulator
//! queues, rate-limits and draws its corruption over. A bit flip drawn past
//! the body changes nothing, as a flip in a video's pixels would not
//! invalidate the scene.
//!
//! Layout (little-endian; a payload is exactly [`frame_len`]`(n)` bytes):
//!
//! ```text
//! offset  size
//!  0      4 B     magic "RDSF"
//!  4      1 B     version
//!  5      4 B     check: wire_checksum over every byte after this field
//!  9      8 B     frame id
//! 17      8 B     capture time (µs)
//! 25      2 B     actor count n (ego first if present)
//! 27      1 B     has_ego
//! 28      n × 53 B actors: id u32, kind u8, then x, y, heading, speed,
//!                 length and width as f64 bits
//! ```
//!
//! The decoder checks the length against `n` once and then reads every
//! field at a fixed offset.

use crate::{ActorId, ActorKind, ActorSnapshot, WorldSnapshot};
use bytes::{BufPool, Bytes};
use rdsim_math::{Pose2, Vec2};
use rdsim_units::{Meters, MetersPerSecond, Radians, SimTime};
use std::fmt;

const MAGIC: &[u8; 4] = b"RDSF";
const VERSION: u8 = 2;
/// The checksum field; the checksummed body starts where it ends.
const CHECK: std::ops::Range<usize> = 5..9;
const HEADER_LEN: usize = 4 + 1 + 4 + 8 + 8 + 2 + 1;
const ACTOR_LEN: usize = 4 + 1 + 6 * 8;

/// Rotation between checksum words. Any amount works for single-bit
/// detection; an odd one spreads adjacent words' bits apart.
const CHECKSUM_ROTATION: u32 = 23;

/// Error from [`decode_frame_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is smaller than a valid frame header.
    Truncated,
    /// The magic bytes or version are wrong.
    BadHeader,
    /// The payload's length is not the one its actor count implies.
    LengthMismatch,
    /// The checksum does not match: the payload was corrupted in flight.
    ChecksumMismatch,
    /// An actor record encodes an unknown kind tag.
    BadActorKind(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("frame truncated"),
            CodecError::BadHeader => f.write_str("bad frame header"),
            CodecError::LengthMismatch => f.write_str("frame length does not match actor count"),
            CodecError::ChecksumMismatch => f.write_str("frame checksum mismatch"),
            CodecError::BadActorKind(k) => write!(f, "unknown actor kind tag {k}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The checksum of both wire codecs: frames here, driving commands in
/// `rdsim-core`.
///
/// The bytes are read as little-endian `u64` words, the last one
/// zero-extended, and folded as `h = h.rotate_left(23) ^ word`; the two
/// halves of `h` are then XORed into 32 bits. Every step moves each bit to
/// exactly one place: a rotation permutes the bits of `h`, XOR adds the
/// word bit for bit, and the fold sends bit `i` of `h` to bit `i mod 32` of
/// the result. So flipping one input bit flips exactly one result bit, and
/// every single-bit error in a range of known length is detected, which is
/// the only error netem's corruption makes. Errors of several bits can
/// cancel.
pub fn wire_checksum(bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    let mut h = 0u64;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = h.rotate_left(CHECKSUM_ROTATION) ^ word;
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = h.rotate_left(CHECKSUM_ROTATION) ^ u64::from_le_bytes(last);
    }
    (h ^ (h >> 32)) as u32
}

/// Length of the payload of a frame showing `actors` actors (ego
/// included).
pub const fn frame_len(actors: usize) -> usize {
    HEADER_LEN + actors * ACTOR_LEN
}

fn kind_tag(kind: ActorKind) -> u8 {
    match kind {
        ActorKind::Ego => 0,
        ActorKind::Vehicle => 1,
        ActorKind::Cyclist => 2,
        ActorKind::Prop => 3,
    }
}

fn tag_kind(tag: u8) -> Result<ActorKind, CodecError> {
    Ok(match tag {
        0 => ActorKind::Ego,
        1 => ActorKind::Vehicle,
        2 => ActorKind::Cyclist,
        3 => ActorKind::Prop,
        other => return Err(CodecError::BadActorKind(other)),
    })
}

fn actor_record(a: &ActorSnapshot) -> [u8; ACTOR_LEN] {
    let mut r = [0u8; ACTOR_LEN];
    r[..4].copy_from_slice(&a.id.0.to_le_bytes());
    r[4] = kind_tag(a.kind);
    let fields = [
        a.pose.position.x,
        a.pose.position.y,
        a.pose.heading.get(),
        a.speed.get(),
        a.length.get(),
        a.width.get(),
    ];
    for (slot, v) in r[5..].chunks_exact_mut(8).zip(fields) {
        slot.copy_from_slice(&v.to_bits().to_le_bytes());
    }
    r
}

fn read_actor(r: &[u8; ACTOR_LEN]) -> Result<ActorSnapshot, CodecError> {
    let f = |at: usize| {
        f64::from_bits(u64::from_le_bytes(
            r[at..at + 8].try_into().expect("8-byte field"),
        ))
    };
    Ok(ActorSnapshot {
        id: ActorId(u32::from_le_bytes([r[0], r[1], r[2], r[3]])),
        kind: tag_kind(r[4])?,
        pose: Pose2::new(Vec2::new(f(5), f(13)), Radians::new(f(21))),
        speed: MetersPerSecond::new(f(29)),
        length: Meters::new(f(37)),
        width: Meters::new(f(45)),
    })
}

/// Encodes a snapshot into `out` (cleared first). Allocation-free when
/// `out` has [`frame_len`] of capacity: the body is written once with a
/// checksum placeholder that is patched afterwards.
pub fn encode_frame_into(snapshot: &WorldSnapshot, out: &mut Vec<u8>) {
    let n = snapshot.actor_count();
    out.clear();
    out.reserve(frame_len(n));
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0u8; 4]); // check, patched below
    out.extend_from_slice(&snapshot.frame_id.to_le_bytes());
    out.extend_from_slice(&snapshot.time.as_micros().to_le_bytes());
    let count = u16::try_from(n).expect("a frame shows at most 65535 actors");
    out.extend_from_slice(&count.to_le_bytes());
    out.push(u8::from(snapshot.ego.is_some()));
    for a in snapshot.ego.iter().chain(&snapshot.others) {
        out.extend_from_slice(&actor_record(a));
    }
    let check = wire_checksum(&out[CHECK.end..]);
    out[CHECK].copy_from_slice(&check.to_le_bytes());
}

/// [`encode_frame_into`] a buffer checked out of `pool`, frozen into a
/// [`Bytes`] payload. Steady state (the pool warm, slots sized for the
/// frame) this performs zero heap allocations.
pub fn encode_frame_pooled(snapshot: &WorldSnapshot, pool: &BufPool) -> Bytes {
    let mut buf = pool.checkout();
    encode_frame_into(snapshot, buf.buf());
    buf.freeze()
}

/// Decodes a frame payload into `snapshot`, reusing its `others`
/// allocation. Allocation-free once the vector has capacity.
///
/// On error the snapshot's contents are unspecified (the caller is
/// expected to treat it as scratch and refill it on the next frame).
///
/// # Errors
///
/// Returns [`CodecError`] if the payload is truncated, malformed, or fails
/// its checksum (i.e. a corruption fault hit it in transit).
pub fn decode_frame_into(payload: &[u8], snapshot: &mut WorldSnapshot) -> Result<(), CodecError> {
    let header: &[u8; HEADER_LEN] = payload.first_chunk().ok_or(CodecError::Truncated)?;
    if header[..4] != MAGIC[..] || header[4] != VERSION {
        return Err(CodecError::BadHeader);
    }
    let n = usize::from(u16::from_le_bytes([header[25], header[26]]));
    if payload.len() != frame_len(n) {
        return Err(CodecError::LengthMismatch);
    }
    let check = u32::from_le_bytes(header[CHECK].try_into().expect("4-byte field"));
    if wire_checksum(&payload[CHECK.end..]) != check {
        return Err(CodecError::ChecksumMismatch);
    }
    let has_ego = header[27] != 0;
    if has_ego && n == 0 {
        return Err(CodecError::BadHeader);
    }
    let (records, _) = payload[HEADER_LEN..].as_chunks::<ACTOR_LEN>();
    let (ego, others) = records.split_at(usize::from(has_ego));
    snapshot.ego = match ego.first() {
        Some(r) => Some(read_actor(r)?),
        None => None,
    };
    snapshot.others.clear();
    for r in others {
        snapshot.others.push(read_actor(r)?);
    }
    snapshot.frame_id = u64::from_le_bytes(header[9..17].try_into().expect("8-byte field"));
    snapshot.time = SimTime::from_micros(u64::from_le_bytes(
        header[17..25].try_into().expect("8-byte field"),
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_snapshot() -> WorldSnapshot {
        let mk = |id: u32, kind, x: f64| ActorSnapshot {
            id: ActorId(id),
            kind,
            pose: Pose2::new(Vec2::new(x, -2.5), Radians::new(0.7)),
            speed: MetersPerSecond::new(13.9),
            length: Meters::new(4.6),
            width: Meters::new(1.85),
        };
        WorldSnapshot {
            time: SimTime::from_millis(12_345),
            frame_id: 678,
            ego: Some(mk(0, ActorKind::Ego, 10.0)),
            others: vec![
                mk(1, ActorKind::Vehicle, 50.0),
                mk(2, ActorKind::Cyclist, 80.0),
            ],
        }
    }

    fn encode(snapshot: &WorldSnapshot) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(snapshot, &mut out);
        out
    }

    fn decode(payload: &[u8]) -> Result<WorldSnapshot, CodecError> {
        let mut snapshot = WorldSnapshot::default();
        decode_frame_into(payload, &mut snapshot)?;
        Ok(snapshot)
    }

    #[test]
    fn roundtrip() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        assert_eq!(bytes.len(), frame_len(3));
        assert_eq!(decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn roundtrip_no_ego_no_actors() {
        let snap = WorldSnapshot::default();
        let bytes = encode(&snap);
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn detects_bit_flip_anywhere_in_body() {
        let mut bytes = encode(&sample_snapshot());
        // Flip a bit in an actor record (position field of actor 1).
        bytes[HEADER_LEN + ACTOR_LEN + 10] ^= 0x04;
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::ChecksumMismatch);
    }

    #[test]
    fn checksum_flips_one_result_bit_per_input_bit() {
        // Exhaustive over short inputs of every length class mod 8.
        for len in 0..=24usize {
            let bytes: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
            let base = wire_checksum(&bytes);
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    (wire_checksum(&flipped) ^ base).count_ones(),
                    1,
                    "len {len}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn checksum_is_pinned() {
        // The wire format: a change here is a format change (bump VERSION).
        assert_eq!(wire_checksum(&[]), 0);
        assert_eq!(wire_checksum(&[1]), 1);
        assert_eq!(wire_checksum(&1u64.to_le_bytes()), 1);
        let two_words: Vec<u8> = [1u64, 0].iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(wire_checksum(&two_words), 1 << 23);
        let nine: Vec<u8> = (1..=9).collect();
        let h = 0x0807_0605_0403_0201u64.rotate_left(23) ^ 9;
        assert_eq!(wire_checksum(&nine), (h ^ (h >> 32)) as u32);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(&[]).unwrap_err(), CodecError::Truncated);
        assert_eq!(
            decode(&[0u8; HEADER_LEN - 1]).unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(decode(&[0u8; 64]).unwrap_err(), CodecError::BadHeader);
        let mut bad_version = encode(&sample_snapshot());
        bad_version[4] = 1;
        assert_eq!(decode(&bad_version).unwrap_err(), CodecError::BadHeader);
    }

    #[test]
    fn rejects_a_length_other_than_the_actor_count_implies() {
        let bytes = encode(&sample_snapshot());
        let cut = &bytes[..bytes.len() - 10];
        assert_eq!(decode(cut).unwrap_err(), CodecError::LengthMismatch);
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode(&padded).unwrap_err(), CodecError::LengthMismatch);
    }

    #[test]
    fn rejects_an_unknown_actor_kind_behind_a_valid_checksum() {
        let mut bytes = encode(&sample_snapshot());
        bytes[HEADER_LEN + 4] = 9;
        let check = wire_checksum(&bytes[CHECK.end..]);
        bytes[CHECK].copy_from_slice(&check.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadActorKind(9));
    }

    #[test]
    fn error_display() {
        assert!(!CodecError::Truncated.to_string().is_empty());
        assert!(!CodecError::LengthMismatch.to_string().is_empty());
        assert!(CodecError::BadActorKind(9).to_string().contains('9'));
    }

    proptest! {
        #[test]
        fn roundtrip_random_scenes(
            n in 0usize..20,
            seed_x in -1e4f64..1e4,
            frame in 0u64..u64::MAX / 2,
        ) {
            let others: Vec<ActorSnapshot> = (0..n)
                .map(|i| ActorSnapshot {
                    id: ActorId(i as u32 + 1),
                    kind: if i % 2 == 0 { ActorKind::Vehicle } else { ActorKind::Prop },
                    pose: Pose2::new(Vec2::new(seed_x + i as f64, i as f64), Radians::new(0.1 * i as f64)),
                    speed: MetersPerSecond::new(i as f64),
                    length: Meters::new(4.0),
                    width: Meters::new(2.0),
                })
                .collect();
            let snap = WorldSnapshot {
                time: SimTime::from_micros(frame),
                frame_id: frame,
                ego: None,
                others,
            };
            prop_assert_eq!(decode(&encode(&snap)).unwrap(), snap);
        }

        #[test]
        fn decode_never_panics_on_fuzz(data in proptest::collection::vec(proptest::num::u8::ANY, 0..300)) {
            let _ = decode(&data);
        }
    }
}

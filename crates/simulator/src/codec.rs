//! Binary codec for video frames.
//!
//! Real teleoperation stacks ship compressed video; a flipped bit either
//! slips through as visual noise or is caught by the container checksum.
//! This codec gives the reproduction the same property: frames serialise
//! to a compact binary layout with an FNV-1a checksum, padded with filler
//! bytes to the configured frame size so the network emulator sees
//! realistically sized packets. Decoding a corrupted frame fails loudly,
//! and the operator subsystem treats it as a dropped frame.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   4 B  "RDSF"
//! version 1 B
//! check   4 B  FNV-1a over everything after this field
//! frame   8 B  frame id
//! time    8 B  capture time (µs)
//! n       2 B  actor count (ego first if present)
//! has_ego 1 B
//! actors  n × 46 B (id u32, kind u8, x f64, y f64, heading f64,
//!                   speed f64, length f64, width f64 — f64s as bits)
//! padding to the requested frame size (zeros)
//! ```

use crate::{ActorId, ActorKind, ActorSnapshot, WorldSnapshot};
use bytes::{BufPool, Bytes};
use rdsim_math::{Pose2, Vec2};
use rdsim_units::{Meters, MetersPerSecond, Radians, SimTime};
use std::fmt;

const MAGIC: &[u8; 4] = b"RDSF";
const VERSION: u8 = 1;
const HEADER_LEN: usize = 4 + 1 + 4 + 8 + 8 + 2 + 1;
const ACTOR_LEN: usize = 4 + 1 + 6 * 8;

/// Error from [`decode_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is smaller than a valid frame header.
    Truncated,
    /// The magic bytes or version are wrong.
    BadHeader,
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
            CodecError::ChecksumMismatch => f.write_str("frame checksum mismatch"),
            CodecError::BadActorKind(k) => write!(f, "unknown actor kind tag {k}"),
        }
    }
}

impl std::error::Error for CodecError {}

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

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn write_actor(buf: &mut Vec<u8>, a: &ActorSnapshot) {
    buf.extend_from_slice(&a.id.0.to_le_bytes());
    buf.push(kind_tag(a.kind));
    put_f64(buf, a.pose.position.x);
    put_f64(buf, a.pose.position.y);
    put_f64(buf, a.pose.heading.get());
    put_f64(buf, a.speed.get());
    put_f64(buf, a.length.get());
    put_f64(buf, a.width.get());
}

/// Encodes a snapshot into a frame payload of at least `min_size` bytes
/// (padded with zeros to emulate the size of a compressed video frame).
pub fn encode_frame(snapshot: &WorldSnapshot, min_size: usize) -> Bytes {
    let total = (HEADER_LEN + snapshot.actor_count() * ACTOR_LEN).max(min_size);
    let mut out = Vec::with_capacity(total);
    encode_frame_into(snapshot, min_size, &mut out);
    Bytes::from(out)
}

/// Encodes a snapshot directly into `out` (cleared first), producing
/// byte-for-byte the payload of [`encode_frame`]. Allocation-free when
/// `out` has enough capacity — the body is written once with a
/// checksum placeholder that is patched afterwards, instead of staging
/// the body in a second buffer.
pub fn encode_frame_into(snapshot: &WorldSnapshot, min_size: usize, out: &mut Vec<u8>) {
    let n = snapshot.actor_count();
    out.clear();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0u8; 4]); // checksum, patched below
    let body_start = out.len();
    out.extend_from_slice(&snapshot.frame_id.to_le_bytes());
    out.extend_from_slice(&snapshot.time.as_micros().to_le_bytes());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.push(u8::from(snapshot.ego.is_some()));
    if let Some(ego) = &snapshot.ego {
        write_actor(out, ego);
    }
    for a in &snapshot.others {
        write_actor(out, a);
    }
    let check = fnv1a(&out[body_start..]);
    out[body_start - 4..body_start].copy_from_slice(&check.to_le_bytes());
    let total = (HEADER_LEN + n * ACTOR_LEN).max(min_size);
    out.resize(total, 0);
}

/// [`encode_frame_into`] a buffer checked out of `pool`, frozen into a
/// [`Bytes`] payload. Steady state (the pool warm, slots sized for the
/// frame) this performs zero heap allocations.
pub fn encode_frame_pooled(snapshot: &WorldSnapshot, min_size: usize, pool: &BufPool) -> Bytes {
    let mut buf = pool.checkout();
    encode_frame_into(snapshot, min_size, buf.buf());
    buf.freeze()
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn read_actor(r: &mut Reader<'_>) -> Result<ActorSnapshot, CodecError> {
    let id = ActorId(r.u32()?);
    let kind = tag_kind(r.u8()?)?;
    let x = r.f64()?;
    let y = r.f64()?;
    let heading = r.f64()?;
    let speed = r.f64()?;
    let length = r.f64()?;
    let width = r.f64()?;
    Ok(ActorSnapshot {
        id,
        kind,
        pose: Pose2::new(Vec2::new(x, y), Radians::new(heading)),
        speed: MetersPerSecond::new(speed),
        length: Meters::new(length),
        width: Meters::new(width),
    })
}

/// Decodes a frame payload back into a snapshot.
///
/// # Errors
///
/// Returns [`CodecError`] if the payload is truncated, malformed, or fails
/// its checksum (i.e. a corruption fault hit it in transit).
pub fn decode_frame(payload: &[u8]) -> Result<WorldSnapshot, CodecError> {
    let mut snapshot = WorldSnapshot {
        time: SimTime::ZERO,
        frame_id: 0,
        ego: None,
        others: Vec::new(),
    };
    decode_frame_into(payload, &mut snapshot)?;
    Ok(snapshot)
}

/// Decodes a frame payload into an existing snapshot, reusing its
/// `others` allocation. Allocation-free once the vector has capacity.
///
/// On error the snapshot's contents are unspecified (the caller is
/// expected to treat it as scratch and refill it on the next frame).
///
/// # Errors
///
/// Same conditions as [`decode_frame`].
pub fn decode_frame_into(payload: &[u8], snapshot: &mut WorldSnapshot) -> Result<(), CodecError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadHeader);
    }
    if r.u8()? != VERSION {
        return Err(CodecError::BadHeader);
    }
    let check = r.u32()?;
    let body_start = r.pos;

    let frame_id = r.u64()?;
    let time_us = r.u64()?;
    let n = r.u16()? as usize;
    let has_ego = r.u8()? != 0;
    let body_len = 8 + 8 + 2 + 1 + n * ACTOR_LEN;
    if payload.len() < body_start + body_len {
        return Err(CodecError::Truncated);
    }
    if fnv1a(&payload[body_start..body_start + body_len]) != check {
        return Err(CodecError::ChecksumMismatch);
    }

    snapshot.ego = if has_ego {
        if n == 0 {
            return Err(CodecError::BadHeader);
        }
        Some(read_actor(&mut r)?)
    } else {
        None
    };
    let n_others = n - usize::from(has_ego);
    snapshot.others.clear();
    for _ in 0..n_others {
        snapshot.others.push(read_actor(&mut r)?);
    }
    snapshot.time = SimTime::from_micros(time_us);
    snapshot.frame_id = frame_id;
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

    #[test]
    fn roundtrip() {
        let snap = sample_snapshot();
        let bytes = encode_frame(&snap, 0);
        let back = decode_frame(&bytes).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn roundtrip_with_padding() {
        let snap = sample_snapshot();
        let bytes = encode_frame(&snap, 20_000);
        assert_eq!(bytes.len(), 20_000);
        assert_eq!(decode_frame(&bytes).unwrap(), snap);
    }

    #[test]
    fn roundtrip_no_ego_no_actors() {
        let snap = WorldSnapshot {
            time: SimTime::ZERO,
            frame_id: 0,
            ego: None,
            others: Vec::new(),
        };
        let bytes = encode_frame(&snap, 0);
        assert_eq!(decode_frame(&bytes).unwrap(), snap);
    }

    #[test]
    fn detects_bit_flip_anywhere_in_body() {
        let snap = sample_snapshot();
        let bytes = encode_frame(&snap, 1000);
        let mut owned = bytes.to_vec();
        // Flip a bit in an actor record (position field of actor 1).
        owned[HEADER_LEN + ACTOR_LEN + 10] ^= 0x04;
        assert_eq!(
            decode_frame(&owned).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    #[test]
    fn padding_corruption_is_harmless() {
        // A bit flip in the padding does not invalidate the snapshot —
        // matching real video where most corrupt bits only distort pixels.
        let snap = sample_snapshot();
        let bytes = encode_frame(&snap, 10_000);
        let mut owned = bytes.to_vec();
        owned[9_999] ^= 0x80;
        assert_eq!(decode_frame(&owned).unwrap(), snap);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode_frame(&[]).unwrap_err(), CodecError::Truncated);
        assert_eq!(decode_frame(&[0u8; 64]).unwrap_err(), CodecError::BadHeader);
        let mut bad_version = encode_frame(&sample_snapshot(), 0).to_vec();
        bad_version[4] = 99;
        assert_eq!(
            decode_frame(&bad_version).unwrap_err(),
            CodecError::BadHeader
        );
    }

    #[test]
    fn rejects_truncated_actor_list() {
        let bytes = encode_frame(&sample_snapshot(), 0);
        let cut = &bytes[..bytes.len() - 10];
        assert_eq!(decode_frame(cut).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn error_display() {
        assert!(!CodecError::Truncated.to_string().is_empty());
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
            let bytes = encode_frame(&snap, 0);
            prop_assert_eq!(decode_frame(&bytes).unwrap(), snap);
        }

        #[test]
        fn decode_never_panics_on_fuzz(data in proptest::collection::vec(proptest::num::u8::ANY, 0..300)) {
            let _ = decode_frame(&data);
        }
    }
}

//! Property suite for the frame codec.
//!
//! Whatever buffer strategy encodes or decodes a frame, the bytes on the
//! wire and the snapshot on the other side must be identical: the pooled
//! encoder is pinned to the in-place one, and a decode into a reused
//! snapshot to a decode into a fresh one. Every single-bit error in a
//! frame's header or body must be rejected, as netem's corruption makes
//! exactly such errors.

use bytes::BufPool;
use proptest::prelude::*;
use rdsim_math::{Pose2, RngStream, Vec2};
use rdsim_simulator::{
    decode_frame_into, encode_frame_into, encode_frame_pooled, frame_len, ActorId, ActorKind,
    ActorSnapshot, CodecError, WorldSnapshot,
};
use rdsim_units::{Meters, MetersPerSecond, Radians, SimTime};

/// Builds a deterministic pseudo-random scene from a handful of drawn
/// scalars — enough variety to cover actor counts, kinds, ego presence
/// and awkward float values without a bespoke strategy type.
fn scene(n: usize, has_ego: bool, x0: f64, t_us: u64, frame: u64) -> WorldSnapshot {
    let mk = |i: u32, kind: ActorKind| ActorSnapshot {
        id: ActorId(i),
        kind,
        pose: Pose2::new(
            Vec2::new(x0 + f64::from(i) * 3.7, -0.5 * f64::from(i)),
            Radians::new(0.31 * f64::from(i)),
        ),
        speed: MetersPerSecond::new(f64::from(i) * 1.37),
        length: Meters::new(4.0 + f64::from(i % 3)),
        width: Meters::new(1.8),
    };
    WorldSnapshot {
        time: SimTime::from_micros(t_us),
        frame_id: frame,
        ego: has_ego.then(|| mk(0, ActorKind::Ego)),
        others: (0..n)
            .map(|i| {
                let kind = match i % 3 {
                    0 => ActorKind::Vehicle,
                    1 => ActorKind::Cyclist,
                    _ => ActorKind::Prop,
                };
                mk(i as u32 + 1, kind)
            })
            .collect(),
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

/// FNV-1a, the checksum frames carried before `wire_checksum`, kept to
/// show that both reject the same flips.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811C_9DC5, |h: u32, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// A scene with every field drawn at random, floats as arbitrary bit
/// patterns (NaNs and infinities included).
fn random_scene(rng: &mut RngStream) -> WorldSnapshot {
    fn actor(rng: &mut RngStream, kind: ActorKind) -> ActorSnapshot {
        ActorSnapshot {
            id: ActorId(rng.next_u64() as u32),
            kind,
            pose: Pose2::new(
                Vec2::new(f64::from_bits(rng.next_u64()), rng.uniform_range(-1e4, 1e4)),
                Radians::new(f64::from_bits(rng.next_u64())),
            ),
            speed: MetersPerSecond::new(rng.uniform_range(0.0, 40.0)),
            length: Meters::new(f64::from_bits(rng.next_u64())),
            width: Meters::new(rng.uniform_range(0.5, 3.0)),
        }
    }
    let kinds = [
        ActorKind::Vehicle,
        ActorKind::Cyclist,
        ActorKind::Prop,
        ActorKind::Ego,
    ];
    let ego = rng.bernoulli(0.8).then(|| actor(rng, ActorKind::Ego));
    let n = rng.uniform_usize(9);
    let others = (0..n)
        .map(|_| {
            let kind = kinds[rng.uniform_usize(kinds.len())];
            actor(rng, kind)
        })
        .collect();
    WorldSnapshot {
        time: SimTime::from_micros(rng.next_u64()),
        frame_id: rng.next_u64(),
        ego,
        others,
    }
}

/// Flips every bit of the header and body of 256 random frames, one at a
/// time, including the actor count: the decoder rejects each flip, and
/// FNV-1a over the range it used to check changes for each body flip.
#[test]
fn every_header_and_body_bit_flip_is_rejected() {
    let mut rng = RngStream::from_seed(0xF1_1B).substream("frame-flips");
    for _ in 0..256 {
        let snap = random_scene(&mut rng);
        let mut bytes = encode(&snap);
        assert_eq!(bytes.len(), frame_len(snap.actor_count()));
        assert!(decode(&bytes).is_ok());
        let body_fnv = fnv1a(&bytes[9..]);
        for bit in 0..bytes.len() * 8 {
            let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
            bytes[byte] ^= mask;
            let expected = match byte {
                0..=4 => CodecError::BadHeader,        // magic, version
                25 | 26 => CodecError::LengthMismatch, // actor count
                _ => CodecError::ChecksumMismatch,     // check field, body
            };
            assert_eq!(decode(&bytes), Err(expected), "byte {byte}, bit {bit}");
            if byte >= 9 {
                assert_ne!(fnv1a(&bytes[9..]), body_fnv, "byte {byte}, bit {bit}");
            }
            bytes[byte] ^= mask;
        }
    }
}

proptest! {
    /// The pooled encoder and the in-place encoder emit identical bytes.
    #[test]
    fn pooled_encoder_is_byte_identical(
        n in 0usize..12,
        has_ego in proptest::bool::ANY,
        x0 in -5e3f64..5e3,
        t_us in 0u64..u64::MAX / 4,
        frame in 0u64..u64::MAX / 4,
    ) {
        let snap = scene(n, has_ego, x0, t_us, frame);
        let pool = BufPool::new();
        let in_place = encode(&snap);
        let pooled = encode_frame_pooled(&snap, &pool);
        prop_assert_eq!(&in_place[..], &pooled[..]);
        // And again with a warm (recycled) slot, in case a dirty buffer
        // could leak stale bytes into the payload.
        drop(pooled);
        let warm = encode_frame_pooled(&snap, &pool);
        prop_assert_eq!(&in_place[..], &warm[..]);
    }

    /// `encode_frame_into` a reused scratch vec matches a fresh encode
    /// byte for byte, even when the scratch held a previous (larger or
    /// smaller) frame.
    #[test]
    fn encode_into_reused_scratch_matches(
        n_prev in 0usize..12,
        n in 0usize..12,
    ) {
        let prev = scene(n_prev, true, 100.0, 5, 5);
        let snap = scene(n, false, -42.0, 9, 9);
        let mut scratch = Vec::new();
        encode_frame_into(&prev, &mut scratch);
        encode_frame_into(&snap, &mut scratch);
        prop_assert_eq!(encode(&snap), scratch);
    }

    /// `decode_frame_into` a reused snapshot (with leftover actors from a
    /// previous decode) produces exactly what a decode into a fresh one
    /// does, and both round-trip the scene.
    #[test]
    fn decode_into_reused_snapshot_matches(
        n_prev in 0usize..12,
        n in 0usize..12,
        has_ego in proptest::bool::ANY,
    ) {
        let prev = scene(n_prev, !has_ego, 3.0, 1, 2);
        let snap = scene(n, has_ego, -8.0, 3, 4);
        let pool = BufPool::new();
        let bytes = encode_frame_pooled(&snap, &pool);
        let mut reused = decode(&encode(&prev)).unwrap();
        decode_frame_into(&bytes, &mut reused).unwrap();
        prop_assert_eq!(&reused, &decode(&bytes).unwrap());
        prop_assert_eq!(&reused, &snap);
    }
}

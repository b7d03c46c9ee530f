//! Wire format for driving commands (operator → vehicle).
//!
//! Commands are small fixed-size packets, checksummed with the video
//! frames' [`wire_checksum`] so corruption faults are detected rather than
//! silently steering the car — mirroring how any sane teleoperation
//! protocol CRCs its control channel.
//!
//! Layout (little-endian), zero-padded to [`COMMAND_PACKET_BYTES`]:
//!
//! ```text
//! offset  size
//!  0      4 B  magic "RDSC"
//!  4      1 B  version
//!  5      4 B  check: wire_checksum over the 34 bytes after this field
//!  9      8 B  sequence number
//! 17      8 B  throttle (f64 bits)
//! 25      8 B  brake (f64 bits)
//! 33      8 B  steer (f64 bits)
//! 41      1 B  reverse
//! 42      1 B  handbrake
//! ```

use bytes::Bytes;
use rdsim_simulator::wire_checksum;
use rdsim_vehicle::ControlInput;
use std::fmt;

/// Size of an encoded command packet on the wire. Real remote-driving
/// command packets are tens of bytes (CRC, sequence, timestamps, axes).
pub const COMMAND_PACKET_BYTES: usize = 64;

const MAGIC: &[u8; 4] = b"RDSC";
const VERSION: u8 = 2;
const HEADER_LEN: usize = 9;
const BODY_LEN: usize = 8 + 8 + 8 + 8 + 1 + 1;

/// Error from [`decode_command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandCodecError {
    /// Buffer too small.
    Truncated,
    /// Wrong magic/version.
    BadHeader,
    /// Checksum failure — corrupted in flight.
    ChecksumMismatch,
}

impl fmt::Display for CommandCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandCodecError::Truncated => f.write_str("command truncated"),
            CommandCodecError::BadHeader => f.write_str("bad command header"),
            CommandCodecError::ChecksumMismatch => f.write_str("command checksum mismatch"),
        }
    }
}

impl std::error::Error for CommandCodecError {}

/// Encodes a command with its sequence number into `out` (cleared
/// first), a packet of [`COMMAND_PACKET_BYTES`]. Allocation-free when
/// `out` has that capacity — the body is written once with a checksum
/// placeholder that is patched afterwards.
pub fn encode_command_into(seq: u64, control: &ControlInput, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0u8; 4]); // checksum, patched below
    let body_start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&control.throttle.get().to_bits().to_le_bytes());
    out.extend_from_slice(&control.brake.get().to_bits().to_le_bytes());
    out.extend_from_slice(&control.steer.to_bits().to_le_bytes());
    out.push(u8::from(control.reverse));
    out.push(u8::from(control.handbrake));
    let check = wire_checksum(&out[body_start..]);
    out[body_start - 4..body_start].copy_from_slice(&check.to_le_bytes());
    out.resize(COMMAND_PACKET_BYTES, 0);
}

/// [`encode_command_into`] a buffer checked out of `pool`, frozen into a
/// [`Bytes`] payload. Steady state this performs zero heap allocations.
pub fn encode_command_pooled(seq: u64, control: &ControlInput, pool: &bytes::BufPool) -> Bytes {
    let mut buf = pool.checkout();
    encode_command_into(seq, control, buf.buf());
    buf.freeze()
}

/// Decodes a command packet.
///
/// # Errors
///
/// Returns [`CommandCodecError`] for truncated, malformed or corrupted
/// packets. The decoded control is sanitised (clamped into valid ranges).
pub fn decode_command(payload: &[u8]) -> Result<(u64, ControlInput), CommandCodecError> {
    if payload.len() < HEADER_LEN + BODY_LEN {
        return Err(CommandCodecError::Truncated);
    }
    if &payload[0..4] != MAGIC || payload[4] != VERSION {
        return Err(CommandCodecError::BadHeader);
    }
    let check = u32::from_le_bytes(payload[5..9].try_into().expect("len 4"));
    let body = &payload[HEADER_LEN..HEADER_LEN + BODY_LEN];
    if wire_checksum(body) != check {
        return Err(CommandCodecError::ChecksumMismatch);
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().expect("len 8"));
    let f = |range: std::ops::Range<usize>| {
        f64::from_bits(u64::from_le_bytes(body[range].try_into().expect("len 8")))
    };
    let control = ControlInput {
        throttle: rdsim_units::Ratio::new(f(8..16)),
        brake: rdsim_units::Ratio::new(f(16..24)),
        steer: f(24..32),
        reverse: body[32] != 0,
        handbrake: body[33] != 0,
    }
    .sanitized();
    Ok((seq, control))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdsim_math::RngStream;

    fn encode_command(seq: u64, control: &ControlInput) -> Vec<u8> {
        let mut out = Vec::new();
        encode_command_into(seq, control, &mut out);
        out
    }

    /// FNV-1a, the checksum the command codec carried before
    /// [`wire_checksum`], kept to show both reject the same flips.
    fn fnv1a(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0x811C_9DC5, |h: u32, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        })
    }

    #[test]
    fn pooled_encoder_matches_the_in_place_one() {
        let pool = bytes::BufPool::with_slot_capacity(COMMAND_PACKET_BYTES);
        let c = ControlInput::new(0.25, 0.5, 0.75).with_handbrake(true);
        let pooled = encode_command_pooled(9, &c, &pool);
        assert_eq!(&pooled[..], &encode_command(9, &c)[..]);
        drop(pooled);
        // A recycled slot carries no stale bytes.
        let warm = encode_command_pooled(3, &ControlInput::COAST, &pool);
        assert_eq!(&warm[..], &encode_command(3, &ControlInput::COAST)[..]);
    }

    #[test]
    fn every_header_and_body_bit_flip_is_rejected() {
        let mut rng = RngStream::from_seed(0xC0DE).substream("command-flips");
        for _ in 0..300 {
            let control = ControlInput {
                throttle: rdsim_units::Ratio::new(f64::from_bits(rng.next_u64())),
                brake: rdsim_units::Ratio::new(rng.uniform()),
                steer: f64::from_bits(rng.next_u64()),
                reverse: rng.bernoulli(0.5),
                handbrake: rng.bernoulli(0.5),
            };
            let packet = encode_command(rng.next_u64(), &control);
            assert!(decode_command(&packet).is_ok());
            let old_range = HEADER_LEN..HEADER_LEN + BODY_LEN;
            for bit in 0..old_range.end * 8 {
                let mut flipped = packet.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let err = decode_command(&flipped).expect_err("flip accepted");
                if bit < 5 * 8 {
                    assert_eq!(err, CommandCodecError::BadHeader, "bit {bit}");
                } else {
                    assert_eq!(err, CommandCodecError::ChecksumMismatch, "bit {bit}");
                }
                if bit >= HEADER_LEN * 8 {
                    assert_ne!(
                        fnv1a(&flipped[old_range.clone()]),
                        fnv1a(&packet[old_range.clone()]),
                        "bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip() {
        let c = ControlInput::new(0.7, 0.1, -0.35).with_reverse(false);
        let bytes = encode_command(42, &c);
        assert_eq!(bytes.len(), COMMAND_PACKET_BYTES);
        let (seq, back) = decode_command(&bytes).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_flags() {
        let c = ControlInput::new(0.0, 0.0, 0.0)
            .with_reverse(true)
            .with_handbrake(true);
        let (_, back) = decode_command(&encode_command(7, &c)).unwrap();
        assert!(back.reverse && back.handbrake);
    }

    #[test]
    fn detects_corruption() {
        let bytes = encode_command(1, &ControlInput::full_throttle());
        let mut owned = bytes.to_vec();
        owned[20] ^= 0x01; // flip a bit in the throttle field
        assert_eq!(
            decode_command(&owned).unwrap_err(),
            CommandCodecError::ChecksumMismatch
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            decode_command(&[]).unwrap_err(),
            CommandCodecError::Truncated
        );
        assert_eq!(
            decode_command(&[0u8; COMMAND_PACKET_BYTES]).unwrap_err(),
            CommandCodecError::BadHeader
        );
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!CommandCodecError::Truncated.to_string().is_empty());
        assert!(!CommandCodecError::BadHeader.to_string().is_empty());
        assert!(!CommandCodecError::ChecksumMismatch.to_string().is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_random(t in 0.0f64..1.0, b in 0.0f64..1.0, s in -1.0f64..1.0, seq in 0u64..u64::MAX) {
            let c = ControlInput::new(t, b, s);
            let (seq2, back) = decode_command(&encode_command(seq, &c)).unwrap();
            prop_assert_eq!(seq2, seq);
            prop_assert_eq!(back, c);
        }

        #[test]
        fn decode_never_panics(data in proptest::collection::vec(proptest::num::u8::ANY, 0..128)) {
            let _ = decode_command(&data);
        }
    }
}

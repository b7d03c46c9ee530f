//! A stable, platform-independent digest for determinism checks.
//!
//! [`StableHasher`] is the primitive behind `run_digest()`: a 64-bit
//! FNV-1a stream mixed through a SplitMix64 finalizer. Unlike
//! `std::hash::Hasher` implementations, its output is **specified** — it
//! depends only on the byte sequence written, never on platform,
//! architecture, pointer width, or standard-library version — so digests
//! can be checked into golden files and compared across machines.
//!
//! All multi-byte integers are written little-endian; floats are written
//! as their IEEE-754 bit patterns (so `-0.0` and `0.0` digest differently,
//! and any NaN digests as its exact payload); strings and byte slices are
//! length-prefixed so adjacent fields cannot alias each other.

use crate::SplitMix64;

/// Incremental stable hasher (FNV-1a 64 core, SplitMix64 finalizer).
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Writes raw bytes (no length prefix — use [`StableHasher::write_bytes`]
    /// for variable-length data).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Writes a length-prefixed byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Writes a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to 64 bits, so 32- and 64-bit builds agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_raw(&[u8::from(v)]);
    }

    /// Writes another digest (for hierarchical digests: hash the parts,
    /// then hash the part-digests).
    pub fn write_digest(&mut self, digest: u64) {
        self.write_u64(digest);
    }

    /// Finalizes without consuming: the FNV state diffused through one
    /// SplitMix64 round, so short inputs still spread over all 64 bits.
    pub fn finish(&self) -> u64 {
        SplitMix64::new(self.state).next_u64()
    }
}

/// One-shot convenience: digest a byte slice.
pub fn stable_digest(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_raw(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_are_pinned() {
        // Pinned outputs: these must never change — golden digest files
        // checked into the repo depend on them.
        assert_eq!(stable_digest(b""), 0xc381_7c01_6ba4_ff30);
        assert_eq!(stable_digest(b"rdsim"), 0xeabb_0253_eb0f_4cd8);
        let mut h = StableHasher::new();
        h.write_u64(42);
        h.write_f64(1.5);
        h.write_str("abc");
        assert_eq!(h.finish(), 0xdf58_2d78_1887_9789);
    }

    #[test]
    fn field_framing_prevents_aliasing() {
        let a = {
            let mut h = StableHasher::new();
            h.write_str("ab");
            h.write_str("c");
            h.finish()
        };
        let b = {
            let mut h = StableHasher::new();
            h.write_str("a");
            h.write_str("bc");
            h.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn float_bit_patterns_distinguish_zero_signs() {
        let pos = {
            let mut h = StableHasher::new();
            h.write_f64(0.0);
            h.finish()
        };
        let neg = {
            let mut h = StableHasher::new();
            h.write_f64(-0.0);
            h.finish()
        };
        assert_ne!(pos, neg);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = StableHasher::new();
        h.write_raw(b"hello ");
        h.write_raw(b"world");
        assert_eq!(h.finish(), stable_digest(b"hello world"));
    }
}

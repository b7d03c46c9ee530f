//! Deterministic, stream-splittable randomness.
//!
//! Every stochastic decision in `rdsim` — fault schedules, operator noise,
//! traffic behaviour, packet-loss draws — must be reproducible from a single
//! campaign seed. [`RngStream`] provides named substreams so that adding a
//! new consumer of randomness never perturbs the draws of existing ones.
//!
//! # Determinism audit
//!
//! The campaign digests (`rdsim-experiments`) and the golden seed-matrix
//! file under `tests/golden/` pin the outputs of this module, so its
//! stability guarantees are spelled out:
//!
//! * **Bit-stable everywhere:** the integer pipeline (SplitMix64,
//!   xoshiro256**, substream label hashing) is pure wrapping integer
//!   arithmetic; [`RngStream::uniform`] uses one multiply of an exactly
//!   representable 53-bit integer, and `uniform_range` / `uniform_usize` /
//!   `bernoulli` / `choose` / `shuffle` build on it with IEEE-exact
//!   operations only. These produce identical bits on every platform.
//! * **Per-target-stable only:** [`RngStream::standard_normal`] and
//!   [`RngStream::exponential`] call `ln`/`sqrt`/`sin`/`cos`, whose last
//!   ULP may differ between libm implementations. On any one
//!   platform+toolchain they are deterministic (which is what the
//!   equivalence harness asserts); golden digests are therefore
//!   per-platform artifacts, regenerated with `RDSIM_BLESS=1`.
//! * **Frozen constants:** the substream-derivation mixers (the
//!   `0xA076_1D64_78BD_642F` label salt, the FNV-style fold, and the
//!   `substream_index` scramble) are load-bearing for every recorded
//!   digest — changing them is a breaking change to all golden files.

/// SplitMix64: a tiny, high-quality 64-bit PRNG used here mainly for seeding
/// and hashing stream labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the generator by expanding `seed` through SplitMix64 (the
    /// procedure recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid; SplitMix64 cannot emit four zeros for
        // any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A named, splittable random stream.
///
/// `RngStream` wraps [`Xoshiro256StarStar`] and adds:
///
/// * **substreams** — [`RngStream::substream`] derives an independent child
///   generator from a string label, so `campaign.substream("subject-T5")`
///   always yields the same draws regardless of what other streams exist;
/// * convenience samplers (uniform, normal, bernoulli, ranges).
///
/// # Examples
///
/// ```
/// use rdsim_math::RngStream;
///
/// let root = RngStream::from_seed(7);
/// let mut a = root.substream("faults");
/// let mut b = root.substream("faults");
/// assert_eq!(a.next_u64(), b.next_u64()); // same label ⇒ same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngStream {
    seed: u64,
    gen: Xoshiro256StarStar,
    /// Cached second normal deviate from the Box–Muller transform.
    spare_normal: Option<u64>, // bit pattern of f64, kept as u64 to stay Eq
}

impl RngStream {
    /// Creates the root stream of a run from a seed.
    pub fn from_seed(seed: u64) -> Self {
        RngStream {
            seed,
            gen: Xoshiro256StarStar::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream from a label.
    ///
    /// The derivation hashes the label into the parent's *seed* (not its
    /// current state), so substreams are stable no matter how many values
    /// have been drawn from the parent.
    pub fn substream(&self, label: &str) -> RngStream {
        let mut h = SplitMix64::new(self.seed ^ 0xA076_1D64_78BD_642F);
        for byte in label.as_bytes() {
            let mixed = h.next_u64() ^ u64::from(*byte);
            h = SplitMix64::new(mixed.wrapping_mul(0x100_0000_01B3));
        }
        RngStream::from_seed(h.next_u64())
    }

    /// Derives an independent child stream from an integer index.
    pub fn substream_index(&self, index: u64) -> RngStream {
        let mut h = SplitMix64::new(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h.next_u64();
        RngStream::from_seed(h.next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.gen.next_u64()
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "n must be non-zero");
        // Rejection-free Lemire-style reduction is overkill here; modulo
        // bias is < 2^-53 for the n values used in this workspace.
        (self.uniform() * n as f64) as usize % n
    }

    /// Bernoulli draw with probability `p` (clamped into `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard-normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(bits) = self.spare_normal.take() {
            return f64::from_bits(bits);
        }
        // Draw until u1 is non-zero to avoid ln(0).
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some((r * theta.sin()).to_bits());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Chooses one element of a non-empty slice uniformly.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.uniform_usize(items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Exponential sample with the given rate (λ).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        -u.ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 1234567 from the public-domain
        // SplitMix64 reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same sequence.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn substreams_are_stable_and_independent() {
        let root = RngStream::from_seed(42);
        let mut s1 = root.substream("faults");
        let mut s1_again = root.substream("faults");
        let mut s2 = root.substream("traffic");
        let v1: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        let v1b: Vec<u64> = (0..8).map(|_| s1_again.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        assert_eq!(v1, v1b);
        assert_ne!(v1, v2);
    }

    #[test]
    fn substream_unaffected_by_parent_draws() {
        let mut root = RngStream::from_seed(42);
        let before = root.substream("x").next_u64();
        for _ in 0..100 {
            root.next_u64();
        }
        let after = root.substream("x").next_u64();
        assert_eq!(before, after);
    }

    #[test]
    fn substream_index_distinct() {
        let root = RngStream::from_seed(7);
        let a = root.substream_index(0).next_u64();
        let b = root.substream_index(1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = RngStream::from_seed(5);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = RngStream::from_seed(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = RngStream::from_seed(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = RngStream::from_seed(13);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.05)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate = {rate}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = RngStream::from_seed(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = RngStream::from_seed(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>()); // astronomically unlikely
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = RngStream::from_seed(29);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[*rng.choose(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn choose_empty_panics() {
        let mut rng = RngStream::from_seed(1);
        let empty: [u8; 0] = [];
        let _ = rng.choose(&empty);
    }

    proptest! {
        #[test]
        fn uniform_range_respects_bounds(lo in -100.0f64..100.0, width in 0.0f64..50.0, seed in 0u64..1000) {
            let mut rng = RngStream::from_seed(seed);
            let hi = lo + width;
            let v = rng.uniform_range(lo, hi);
            prop_assert!(v >= lo && (v < hi || width == 0.0));
        }

        #[test]
        fn uniform_usize_in_bounds(n in 1usize..1000, seed in 0u64..1000) {
            let mut rng = RngStream::from_seed(seed);
            prop_assert!(rng.uniform_usize(n) < n);
        }
    }
}

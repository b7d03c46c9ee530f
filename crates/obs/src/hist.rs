//! Fixed-bucket base-2 logarithmic histogram.
//!
//! Bucket 0 holds exactly the value `0`; bucket `i` (for `i >= 1`) holds
//! values in `[2^(i-1), 2^i - 1]`. With 65 buckets the full `u64` range is
//! covered, recording is a single shift + two relaxed atomic
//! read-modify-writes (plus one more for a new extreme or a carry), and the
//! memory footprint per histogram is constant (~1 KiB). Relative
//! quantile error is bounded by the bucket width (a factor of 2), and the
//! snapshot additionally tracks exact `min`/`max`/`sum` so the reported
//! percentiles are clamped to the observed range and [`HistogramSnapshot::mean`]
//! is **exact** (never bucket-midpoint-approximated). The sum is 128-bit —
//! a campaign merging billions of `u64` samples cannot overflow it — and
//! [`HistogramSnapshot::merge`] stays commutative and associative, which is
//! what lets the campaign store fold runs in completion order.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per power of two up to `2^63`.
pub const BUCKETS: usize = 65;

/// Maps a value to its bucket index.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `index`.
///
/// # Panics
/// Panics if `index >= BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (index - 1);
        let hi = if index == 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        };
        (lo, hi)
    }
}

/// Shared, thread-safe histogram cell. Obtain handles via
/// [`crate::Recorder::histogram`]; read via [`Histogram::snapshot`].
/// There is no count word: the count is the sum of the buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Low 64 bits of the 128-bit running sum.
    sum_lo: AtomicU64,
    /// Carries out of `sum_lo` (the high 64 bits of the running sum).
    sum_hi: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_lo: AtomicU64::new(0),
            sum_hi: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. All atomics are relaxed: per-instrument totals
    /// are exact, and snapshots are only taken after the run quiesces
    /// (which also makes the two-word sum read consistent).
    ///
    /// `min` only falls and `max` only rises, so a load, however stale,
    /// that already shows `value` inside them proves the extreme needs no
    /// update; only a sample that looks like a new extreme pays for the
    /// locked `fetch_min`/`fetch_max`, which stays exact under concurrent
    /// writers.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        let prev = self.sum_lo.fetch_add(value, Ordering::Relaxed);
        if u128::from(prev) + u128::from(value) > u128::from(u64::MAX) {
            self.sum_hi.fetch_add(1, Ordering::Relaxed);
        }
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Copies the current state into an owned, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: (u128::from(self.sum_hi.load(Ordering::Relaxed)) << 64)
                | u128::from(self.sum_lo.load(Ordering::Relaxed)),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Owned point-in-time view of a [`Histogram`]. Keeps the full bucket
/// array so snapshots from independent runs can be merged without losing
/// quantile fidelity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Total number of samples.
    pub count: u64,
    /// Exact sum of all samples (128-bit: even a campaign of 2⁶⁴ maximal
    /// samples cannot overflow it, so [`mean`](Self::mean) is exact).
    pub sum: u128,
    /// Smallest sample observed (0 when empty).
    pub min: u64,
    /// Largest sample observed (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean of all samples (0.0 when empty): the exact
    /// 128-bit sum over the count, not a bucket-midpoint approximation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the bucket containing the rank-`ceil(q * count)` sample,
    /// clamped to the exact observed `[min, max]`. The estimate always
    /// falls inside the same base-2 bucket as the true order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                let pos = rank - seen; // 1-based position within this bucket
                let frac = if n > 1 {
                    (pos - 1) as f64 / (n - 1) as f64
                } else {
                    0.5
                };
                let est = lo as f64 + frac * (hi - lo) as f64;
                // First clamp to the bucket (f64 rounding can overshoot `hi`
                // for buckets wider than 2^53), then to the observed range.
                return (est.round() as u64).clamp(lo, hi).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot into this one (used when aggregating
    /// per-run telemetry into campaign totals).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_bounds(0), (0, 0));
        for i in 1..64usize {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, 1u64 << (i - 1));
            assert_eq!(hi, (1u64 << i) - 1);
            // Boundary values land in the right bucket on both sides.
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            assert_eq!(bucket_index(lo - 1), i - 1, "below lo of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!((s.min, s.max, s.sum), (0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(1500);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50(), 1500);
        assert_eq!(s.p99(), 1500);
        assert_eq!(s.max, 1500);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 1000, 65_535] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 9, 512, 70_000] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn concurrent_writers_match_the_serial_fold() {
        use std::sync::Barrier;
        // Every writer keeps producing new minima and maxima, so the
        // extremes race between threads, and the sum carries out of its
        // low word.
        let values = |w: u64| -> Vec<u64> {
            (0..20_000u64)
                .map(|i| {
                    // From 80,000 + w down to 4 + w; every other value
                    // lies strictly between the two extremes' series.
                    let falling = (20_000 - i) * 4 + w;
                    match i % 4 {
                        0 => falling,
                        1 => u64::MAX - falling,
                        2 => 1u64 << (17 + (i + w) % 47),
                        _ => 100_000 + i * 7 + w,
                    }
                })
                .collect()
        };
        let shared = Histogram::new();
        let serial = Histogram::new();
        for w in 0..4 {
            values(w).into_iter().for_each(|v| serial.record(v));
        }
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for w in 0..4 {
                let (shared, start) = (&shared, &start);
                s.spawn(move || {
                    let values = values(w);
                    start.wait();
                    values.into_iter().for_each(|v| shared.record(v));
                });
            }
        });
        let got = shared.snapshot();
        assert_eq!(got, serial.snapshot());
        assert_eq!(got.count, 80_000);
        assert!(got.sum > u128::from(u64::MAX), "the sum carried");
    }

    #[test]
    fn merge_into_empty_copies() {
        let b = Histogram::new();
        b.record(42);
        let mut merged = HistogramSnapshot::default();
        merged.merge(&b.snapshot());
        assert_eq!(merged, b.snapshot());
        assert_eq!(merged.min, 42);
    }
}

//! Streaming and batch statistics for the metric tables.

use std::fmt;

/// Welford-style streaming statistics: count, mean, variance, min, max.
///
/// # Examples
///
/// ```
/// use rdsim_math::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample. Non-finite samples are ignored (and counted nowhere);
    /// metric windows in the paper simply skip unrecorded values.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (Bessel-corrected) variance; 0 when fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
                self.count,
                self.mean,
                self.std_dev(),
                self.min,
                self.max
            )
        }
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// A batch summary with percentiles, produced by [`summary`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of finite samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// Computes a batch [`Summary`] of the finite values in `values`.
///
/// Returns `None` if no finite values are present.
pub fn summary(values: &[f64]) -> Option<Summary> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let stats: RunningStats = v.iter().copied().collect();
    Some(Summary {
        count: v.len(),
        mean: stats.mean(),
        std_dev: stats.std_dev(),
        min: v[0],
        max: v[v.len() - 1],
        median: percentile_sorted(&v, 50.0),
        p5: percentile_sorted(&v, 5.0),
        p95: percentile_sorted(&v, 95.0),
    })
}

/// Linear-interpolated percentile of a **sorted** slice (the same
/// `rank = pct/100 · (n−1)` convention [`summary`] uses for its median
/// and p5/p95). Public so downstream layers can cross-check their
/// approximate quantile sketches against the exact order statistics.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats() {
        let s = RunningStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(format!("{s}"), "n=0");
    }

    #[test]
    fn known_values() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn non_finite_ignored() {
        let s: RunningStats = [1.0, f64::NAN, 3.0, f64::INFINITY].into_iter().collect();
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let sequential: RunningStats = data.iter().copied().collect();
        let mut left: RunningStats = data[..37].iter().copied().collect();
        let right: RunningStats = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), sequential.count());
        assert!((left.mean() - sequential.mean()).abs() < 1e-9);
        assert!((left.variance() - sequential.variance()).abs() < 1e-9);
        assert_eq!(left.min(), sequential.min());
        assert_eq!(left.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = RunningStats::new();
        let b: RunningStats = [1.0, 2.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let mut c: RunningStats = [3.0].into_iter().collect();
        c.merge(&RunningStats::new());
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn summary_of_known_data() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_empty_and_nan() {
        assert_eq!(summary(&[]), None);
        assert_eq!(summary(&[f64::NAN]), None);
        let s = summary(&[f64::NAN, 7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = summary(&[0.0, 10.0]).unwrap();
        assert_eq!(s.median, 5.0);
        assert!((s.p5 - 0.5).abs() < 1e-12);
        assert!((s.p95 - 9.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn mean_within_min_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s: RunningStats = values.iter().copied().collect();
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        }

        #[test]
        fn variance_nonnegative(values in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let s: RunningStats = values.iter().copied().collect();
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn merge_commutes(
            a in proptest::collection::vec(-1e3f64..1e3, 0..50),
            b in proptest::collection::vec(-1e3f64..1e3, 0..50),
        ) {
            let sa: RunningStats = a.iter().copied().collect();
            let sb: RunningStats = b.iter().copied().collect();
            let mut ab = sa;
            ab.merge(&sb);
            let mut ba = sb;
            ba.merge(&sa);
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
            prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
        }

        #[test]
        fn summary_percentiles_ordered(values in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
            let s = summary(&values).unwrap();
            prop_assert!(s.min <= s.p5 + 1e-12);
            prop_assert!(s.p5 <= s.median + 1e-12);
            prop_assert!(s.median <= s.p95 + 1e-12);
            prop_assert!(s.p95 <= s.max + 1e-12);
        }
    }
}

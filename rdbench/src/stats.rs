//! Order statistics of repeated measurements.

/// Median, quartiles and range of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Summarises `values`; `None` when there are none.
    ///
    /// Quartiles use the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, the rule the spread gate
    /// applies to whole runs, so a run's own spread reads the same way.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (min, max) = (*v.first()?, *v.last()?);
        let (q1, q3) = if n < 2 {
            (min, max)
        } else {
            (quantile_exclusive(&v, 1), quantile_exclusive(&v, 3))
        };
        Some(Spread {
            n,
            min,
            q1,
            median: median_sorted(&v),
            q3,
            max,
        })
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `i`-th of the three quartile cut points of sorted `v` (`v.len() >= 2`).
fn quantile_exclusive(v: &[f64], i: usize) -> f64 {
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 3.0, 3));
    }

    #[test]
    fn single_and_empty_samples() {
        let s = Spread::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(Spread::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }
}

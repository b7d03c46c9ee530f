//! Interpolation and signal resampling helpers.

use rdsim_units::Seconds;

/// A timestamped scalar sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sample {
    /// Sample time in seconds from run start.
    pub t: f64,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Creates a sample.
    pub const fn new(t: f64, value: f64) -> Self {
        Sample { t, value }
    }
}

/// Linear interpolation between `a` and `b` at parameter `t` (unclamped).
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Inverse lerp: the parameter at which `v` sits between `a` and `b`.
///
/// Returns 0 when `a == b`.
#[inline]
pub fn unlerp(a: f64, b: f64, v: f64) -> f64 {
    if (b - a).abs() < 1e-300 {
        0.0
    } else {
        (v - a) / (b - a)
    }
}

/// Resamples an irregular time series onto a uniform grid with period `dt`,
/// using linear interpolation between neighbouring samples.
///
/// Input samples must be sorted by time (verified with `debug_assert`).
/// Output covers `[first.t, last.t]` inclusive of the start; samples outside
/// the span are not extrapolated.
///
/// Returns an empty vector for fewer than two input samples or a
/// non-positive `dt`.
pub fn resample_uniform(samples: &[Sample], dt: Seconds) -> Vec<Sample> {
    if samples.len() < 2 || dt.get() <= 0.0 {
        return Vec::new();
    }
    debug_assert!(
        samples.windows(2).all(|w| w[0].t <= w[1].t),
        "samples must be time-sorted"
    );
    let t0 = samples[0].t;
    let t_end = samples[samples.len() - 1].t;
    let step = dt.get();
    let n = ((t_end - t0) / step).floor() as usize + 1;
    let mut out = Vec::with_capacity(n);
    let mut idx = 0usize;
    for k in 0..n {
        let t = t0 + k as f64 * step;
        while idx + 1 < samples.len() - 1 && samples[idx + 1].t < t {
            idx += 1;
        }
        let a = samples[idx];
        let b = samples[idx + 1];
        let u = unlerp(a.t, b.t, t).clamp(0.0, 1.0);
        out.push(Sample::new(t, lerp(a.value, b.value, u)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 10.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 10.0, 1.0), 10.0);
        assert_eq!(lerp(2.0, 10.0, 0.5), 6.0);
    }

    #[test]
    fn unlerp_inverts_lerp() {
        let v = lerp(3.0, 7.0, 0.25);
        assert!((unlerp(3.0, 7.0, v) - 0.25).abs() < 1e-12);
        assert_eq!(unlerp(5.0, 5.0, 9.0), 0.0);
    }

    #[test]
    fn resample_linear_ramp() {
        let samples = vec![Sample::new(0.0, 0.0), Sample::new(1.0, 10.0)];
        let out = resample_uniform(&samples, Seconds::new(0.25));
        assert_eq!(out.len(), 5);
        for (k, s) in out.iter().enumerate() {
            assert!((s.t - 0.25 * k as f64).abs() < 1e-12);
            assert!((s.value - 2.5 * k as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn resample_multisegment() {
        let samples = vec![
            Sample::new(0.0, 0.0),
            Sample::new(1.0, 2.0),
            Sample::new(3.0, 0.0),
        ];
        let out = resample_uniform(&samples, Seconds::new(0.5));
        assert_eq!(out.len(), 7);
        assert!((out[2].value - 2.0).abs() < 1e-12); // t = 1.0
        assert!((out[4].value - 1.0).abs() < 1e-12); // t = 2.0 on downslope
    }

    #[test]
    fn resample_degenerate_inputs() {
        assert!(resample_uniform(&[], Seconds::new(0.1)).is_empty());
        assert!(resample_uniform(&[Sample::new(0.0, 1.0)], Seconds::new(0.1)).is_empty());
        let two = vec![Sample::new(0.0, 1.0), Sample::new(1.0, 2.0)];
        assert!(resample_uniform(&two, Seconds::new(0.0)).is_empty());
        assert!(resample_uniform(&two, Seconds::new(-1.0)).is_empty());
    }

    proptest! {
        #[test]
        fn resampled_values_within_input_range(
            values in proptest::collection::vec(-100.0f64..100.0, 2..40),
        ) {
            let samples: Vec<Sample> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample::new(i as f64 * 0.3, v))
                .collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for s in resample_uniform(&samples, Seconds::new(0.07)) {
                prop_assert!(s.value >= lo - 1e-9 && s.value <= hi + 1e-9);
            }
        }

        #[test]
        fn resampled_grid_is_uniform(n in 2usize..30, dt in 0.01f64..0.5) {
            let samples: Vec<Sample> = (0..n).map(|i| Sample::new(i as f64, i as f64)).collect();
            let out = resample_uniform(&samples, Seconds::new(dt));
            for w in out.windows(2) {
                prop_assert!(((w[1].t - w[0].t) - dt).abs() < 1e-9);
            }
        }
    }
}

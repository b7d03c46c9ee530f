//! Steering Reversal Rate per SAE J2944.

use rdsim_math::{ButterworthLowPass, Sample};
use rdsim_units::{Hertz, Seconds};

/// SRR computation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrrConfig {
    /// Low-pass cut-off applied before locating stationary points
    /// (SAE J2944 recommends ~0.6 Hz for reversal counting).
    pub cutoff: Hertz,
    /// Minimum reversal amplitude in normalised steering units. The ±1
    /// range maps to full lock (≈35° road wheel ≈ 520° steering wheel),
    /// so the default 0.05 counts reversals larger than ≈1.75° at the
    /// road wheel — the "moderate reversal" regime of the J2944 family,
    /// which filters the lane-keeping micro-corrections and calibrates
    /// the golden-run rates to the single-digit reversals/minute the
    /// paper's Table IV reports.
    pub theta_min: f64,
}

impl Default for SrrConfig {
    fn default() -> Self {
        SrrConfig {
            cutoff: Hertz::new(0.6),
            theta_min: 0.05,
        }
    }
}

/// The result of a reversal count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrrResult {
    /// Number of reversals counted.
    pub reversals: usize,
    /// Analysed signal duration.
    pub duration: Seconds,
    /// Reversals per minute — the tables' unit.
    pub rate_per_min: f64,
}

/// Computes the steering-reversal rate of a steering time series.
///
/// The J2944-style algorithm: (1) low-pass filter the signal to remove
/// measurement noise, (2) locate stationary points of the filtered
/// signal, (3) count a reversal whenever the signal moved by at least
/// `theta_min` in one direction between consecutive stationary points,
/// after moving at least `theta_min` in the opposite direction before.
///
/// Returns `None` if the signal is too short (fewer than three samples or
/// under one second), is not uniformly sampled enough to filter, or
/// contains non-finite values (redacted recordings).
pub fn steering_reversal_rate(signal: &[Sample], config: &SrrConfig) -> Option<SrrResult> {
    if signal.len() < 3 {
        return None;
    }
    if signal.iter().any(|s| !s.value.is_finite()) {
        return None;
    }
    let duration = signal[signal.len() - 1].t - signal[0].t;
    if duration < 1.0 {
        return None;
    }
    let dt = duration / (signal.len() - 1) as f64;
    if dt <= 0.0 {
        return None;
    }
    // Guard the filter against a cut-off at/above Nyquist for coarse logs.
    let nyquist = 0.5 / dt;
    let cutoff = if config.cutoff.get() >= nyquist {
        Hertz::new(nyquist * 0.45)
    } else {
        config.cutoff
    };
    let raw: Vec<f64> = signal.iter().map(|s| s.value).collect();
    let filtered = ButterworthLowPass::filter_signal(cutoff, Seconds::new(dt), &raw);

    // Stationary points: local extrema of the filtered signal.
    let mut extrema: Vec<f64> = Vec::new();
    extrema.push(filtered[0]);
    for w in filtered.windows(3) {
        let rising_then_falling = w[1] >= w[0] && w[1] > w[2];
        let falling_then_rising = w[1] <= w[0] && w[1] < w[2];
        if rising_then_falling || falling_then_rising {
            extrema.push(w[1]);
        }
    }
    extrema.push(filtered[filtered.len() - 1]);

    // Hysteresis-based turning-point counting: a reversal is a direction
    // change whose excursion reaches `theta_min`. The anchor follows the
    // running extreme of the current excursion, so slow drifts made of
    // sub-threshold steps still register once their total crosses the
    // threshold.
    let theta = config.theta_min;
    let mut reversals = 0usize;
    let mut dir: Option<bool> = None; // Some(true) = currently rising
    let mut anchor = extrema[0];
    let mut lo = extrema[0];
    let mut hi = extrema[0];
    for &e in &extrema[1..] {
        match dir {
            None => {
                hi = hi.max(e);
                lo = lo.min(e);
                if hi - e >= theta {
                    dir = Some(false);
                    anchor = e;
                } else if e - lo >= theta {
                    dir = Some(true);
                    anchor = e;
                }
            }
            Some(true) => {
                if e > anchor {
                    anchor = e;
                } else if anchor - e >= theta {
                    reversals += 1;
                    dir = Some(false);
                    anchor = e;
                }
            }
            Some(false) => {
                if e < anchor {
                    anchor = e;
                } else if e - anchor >= theta {
                    reversals += 1;
                    dir = Some(true);
                    anchor = e;
                }
            }
        }
    }

    Some(SrrResult {
        reversals,
        duration: Seconds::new(duration),
        rate_per_min: reversals as f64 / duration * 60.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_signal(values: impl IntoIterator<Item = f64>, dt: f64) -> Vec<Sample> {
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| Sample::new(i as f64 * dt, v))
            .collect()
    }

    #[test]
    fn constant_signal_has_zero_rate() {
        let signal = uniform_signal(std::iter::repeat_n(0.1, 500), 0.02);
        let r = steering_reversal_rate(&signal, &SrrConfig::default()).unwrap();
        assert_eq!(r.reversals, 0);
        assert_eq!(r.rate_per_min, 0.0);
    }

    #[test]
    fn slow_sine_counts_two_reversals_per_period() {
        // 0.1 Hz sine, amplitude 0.05, 60 s: 6 periods ⇒ ~12 reversals,
        // i.e. ~12/min. (Each period has two extrema; each swing between
        // them alternates direction.)
        let dt = 0.02;
        let n = 3000;
        let signal = uniform_signal(
            (0..n).map(|i| 0.05 * (2.0 * std::f64::consts::PI * 0.1 * i as f64 * dt).sin()),
            dt,
        );
        let r = steering_reversal_rate(&signal, &SrrConfig::default()).unwrap();
        assert!(
            (10..=13).contains(&r.reversals),
            "expected ≈12 reversals, got {}",
            r.reversals
        );
        assert!((r.rate_per_min - r.reversals as f64).abs() < 0.5);
    }

    #[test]
    fn tiny_oscillation_below_threshold_ignored() {
        let dt = 0.02;
        let signal = uniform_signal(
            (0..3000).map(|i| 0.001 * (2.0 * std::f64::consts::PI * 0.1 * i as f64 * dt).sin()),
            dt,
        );
        let r = steering_reversal_rate(&signal, &SrrConfig::default()).unwrap();
        assert_eq!(r.reversals, 0);
    }

    #[test]
    fn high_frequency_noise_filtered_out() {
        // 8 Hz dither on a constant: the 0.6 Hz filter removes it.
        let dt = 0.02;
        let signal = uniform_signal(
            (0..3000).map(|i| 0.02 * (2.0 * std::f64::consts::PI * 8.0 * i as f64 * dt).sin()),
            dt,
        );
        let r = steering_reversal_rate(&signal, &SrrConfig::default()).unwrap();
        assert!(
            r.reversals <= 1,
            "8 Hz dither should be filtered, got {} reversals",
            r.reversals
        );
    }

    #[test]
    fn noisier_driving_scores_higher() {
        // Same base manoeuvre, one with superimposed 0.3 Hz corrections.
        let dt = 0.02;
        let n = 3000;
        let base: Vec<Sample> = uniform_signal(
            (0..n).map(|i| 0.1 * (2.0 * std::f64::consts::PI * 0.05 * i as f64 * dt).sin()),
            dt,
        );
        // Corrections larger than the reversal threshold (θ = 0.05).
        let noisy: Vec<Sample> = uniform_signal(
            (0..n).map(|i| {
                let t = i as f64 * dt;
                0.1 * (2.0 * std::f64::consts::PI * 0.05 * t).sin()
                    + 0.06 * (2.0 * std::f64::consts::PI * 0.3 * t).sin()
            }),
            dt,
        );
        let cfg = SrrConfig::default();
        let r_base = steering_reversal_rate(&base, &cfg).unwrap();
        let r_noisy = steering_reversal_rate(&noisy, &cfg).unwrap();
        assert!(
            r_noisy.rate_per_min > r_base.rate_per_min + 5.0,
            "noisy {} vs base {}",
            r_noisy.rate_per_min,
            r_base.rate_per_min
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let cfg = SrrConfig::default();
        assert!(steering_reversal_rate(&[], &cfg).is_none());
        assert!(steering_reversal_rate(&[Sample::new(0.0, 0.0)], &cfg).is_none());
        // Too short in time.
        let short = uniform_signal([0.0, 0.1, 0.0], 0.02);
        assert!(steering_reversal_rate(&short, &cfg).is_none());
        // Redacted (NaN) signal.
        let redacted = uniform_signal((0..200).map(|_| f64::NAN), 0.02);
        assert!(steering_reversal_rate(&redacted, &cfg).is_none());
    }

    #[test]
    fn coarse_sampling_still_works() {
        // 2 Hz sampling: cutoff auto-clamped below the 1 Hz Nyquist.
        let signal = uniform_signal(
            (0..240).map(|i| 0.05 * (2.0 * std::f64::consts::PI * 0.1 * i as f64 * 0.5).sin()),
            0.5,
        );
        let r = steering_reversal_rate(&signal, &SrrConfig::default()).unwrap();
        assert!(r.reversals > 5);
    }
}

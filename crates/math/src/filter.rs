//! Signal filters used by the metrics pipeline and actuator models.

use rdsim_units::{Hertz, Seconds};

/// A second-order (biquad) Butterworth low-pass filter.
///
/// SAE J2944's steering-reversal-rate algorithm prescribes low-pass
/// filtering the steering-angle signal (typically with a ~0.6 Hz cut-off)
/// before locating stationary points. This implementation uses the standard
/// bilinear-transform discretisation of the analogue 2nd-order Butterworth
/// prototype.
///
/// # Examples
///
/// ```
/// use rdsim_math::ButterworthLowPass;
/// use rdsim_units::{Hertz, Seconds};
///
/// let mut f = ButterworthLowPass::new(Hertz::new(0.6), Seconds::new(0.02));
/// // A constant input converges to itself.
/// let mut y = 0.0;
/// for _ in 0..2000 {
///     y = f.apply(1.0);
/// }
/// assert!((y - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ButterworthLowPass {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
    primed: bool,
}

impl ButterworthLowPass {
    /// Creates a filter with the given cut-off frequency at sample period
    /// `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` or `dt` is non-positive, or if the cut-off is at
    /// or above the Nyquist frequency.
    pub fn new(cutoff: Hertz, dt: Seconds) -> Self {
        assert!(cutoff.get() > 0.0, "cutoff must be positive");
        assert!(dt.get() > 0.0, "sample period must be positive");
        let nyquist = 0.5 / dt.get();
        assert!(
            cutoff.get() < nyquist,
            "cutoff {} Hz must be below Nyquist {} Hz",
            cutoff.get(),
            nyquist
        );
        // Bilinear transform with pre-warping.
        let omega = (std::f64::consts::PI * cutoff.get() * dt.get()).tan();
        let sqrt2 = std::f64::consts::SQRT_2;
        let norm = 1.0 / (1.0 + sqrt2 * omega + omega * omega);
        let b0 = omega * omega * norm;
        ButterworthLowPass {
            b0,
            b1: 2.0 * b0,
            b2: b0,
            a1: 2.0 * (omega * omega - 1.0) * norm,
            a2: (1.0 - sqrt2 * omega + omega * omega) * norm,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
            primed: false,
        }
    }

    /// Feeds one sample through the filter and returns the filtered value.
    ///
    /// The first sample primes the state so the filter starts from the
    /// signal value rather than from zero (avoids a start-up transient that
    /// would register as a spurious steering reversal).
    pub fn apply(&mut self, x: f64) -> f64 {
        if !self.primed {
            self.x1 = x;
            self.x2 = x;
            self.y1 = x;
            self.y2 = x;
            self.primed = true;
        }
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Filters an entire signal, returning the filtered copy.
    pub fn filter_signal(cutoff: Hertz, dt: Seconds, signal: &[f64]) -> Vec<f64> {
        let mut f = ButterworthLowPass::new(cutoff, dt);
        signal.iter().map(|&x| f.apply(x)).collect()
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
        self.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DT: Seconds = Seconds::new(0.02);

    #[test]
    fn dc_gain_is_unity() {
        let mut f = ButterworthLowPass::new(Hertz::new(0.6), DT);
        let mut y = 0.0;
        for _ in 0..5000 {
            y = f.apply(2.5);
        }
        assert!((y - 2.5).abs() < 1e-9);
    }

    #[test]
    fn attenuates_high_frequency() {
        // 10 Hz sine through a 0.6 Hz filter should be strongly attenuated.
        let dt = 0.02;
        let mut f = ButterworthLowPass::new(Hertz::new(0.6), DT);
        let mut max_out: f64 = 0.0;
        for i in 0..2000 {
            let t = i as f64 * dt;
            let x = (2.0 * std::f64::consts::PI * 10.0 * t).sin();
            let y = f.apply(x);
            if i > 500 {
                max_out = max_out.max(y.abs());
            }
        }
        assert!(max_out < 0.05, "high-frequency gain too large: {max_out}");
    }

    #[test]
    fn passes_low_frequency() {
        // 0.05 Hz sine through a 0.6 Hz filter should pass nearly unchanged.
        let dt = 0.02;
        let mut f = ButterworthLowPass::new(Hertz::new(0.6), DT);
        let mut max_out: f64 = 0.0;
        for i in 0..20000 {
            let t = i as f64 * dt;
            let x = (2.0 * std::f64::consts::PI * 0.05 * t).sin();
            let y = f.apply(x);
            if i > 5000 {
                max_out = max_out.max(y.abs());
            }
        }
        assert!(max_out > 0.95, "low-frequency gain too small: {max_out}");
    }

    #[test]
    fn priming_avoids_startup_transient() {
        let mut f = ButterworthLowPass::new(Hertz::new(0.6), DT);
        let first = f.apply(10.0);
        assert!((first - 10.0).abs() < 1e-9);
    }

    #[test]
    fn filter_signal_matches_incremental() {
        let signal: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let batch = ButterworthLowPass::filter_signal(Hertz::new(1.0), DT, &signal);
        let mut f = ButterworthLowPass::new(Hertz::new(1.0), DT);
        let inc: Vec<f64> = signal.iter().map(|&x| f.apply(x)).collect();
        assert_eq!(batch, inc);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = ButterworthLowPass::new(Hertz::new(1.0), DT);
        for _ in 0..10 {
            f.apply(5.0);
        }
        f.reset();
        assert!((f.apply(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn cutoff_above_nyquist_panics() {
        let _ = ButterworthLowPass::new(Hertz::new(100.0), DT);
    }

    proptest! {
        #[test]
        fn filtered_bounded_signal_stays_bounded(signal in proptest::collection::vec(-1.0f64..1.0, 10..300)) {
            let out = ButterworthLowPass::filter_signal(Hertz::new(0.6), DT, &signal);
            for y in out {
                // A Butterworth LPF has small overshoot; 2x bound is generous.
                prop_assert!(y.abs() < 2.0);
            }
        }
    }
}

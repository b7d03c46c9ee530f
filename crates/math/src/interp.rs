//! Timestamped samples and linear interpolation.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 10.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 10.0, 1.0), 10.0);
        assert_eq!(lerp(2.0, 10.0, 0.5), 6.0);
    }
}

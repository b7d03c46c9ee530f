//! CARLA-style normalised control inputs.

use rdsim_units::Ratio;
use std::fmt;

/// A normalised driving command, mirroring CARLA's `VehicleControl`:
/// throttle and brake in `[0, 1]`, steering in `[-1, 1]` (negative = left
/// in CARLA; here **positive = left** to match the CCW-positive heading
/// convention of the math crate), plus reverse and handbrake flags.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControlInput {
    /// Accelerator position, `0..=1`.
    pub throttle: Ratio,
    /// Brake position, `0..=1`.
    pub brake: Ratio,
    /// Steering position, `-1..=1`; positive steers left.
    pub steer: f64,
    /// Reverse gear engaged.
    pub reverse: bool,
    /// Handbrake engaged.
    pub handbrake: bool,
}

impl ControlInput {
    /// A coasting command (all inputs released).
    pub const COAST: ControlInput = ControlInput {
        throttle: Ratio::ZERO,
        brake: Ratio::ZERO,
        steer: 0.0,
        reverse: false,
        handbrake: false,
    };

    /// Creates a command, clamping each channel into its valid range.
    pub fn new(throttle: f64, brake: f64, steer: f64) -> Self {
        ControlInput {
            throttle: Ratio::clamped(throttle),
            brake: Ratio::clamped(brake),
            steer: steer.clamp(-1.0, 1.0),
            reverse: false,
            handbrake: false,
        }
    }

    /// Full throttle, no steering.
    pub fn full_throttle() -> Self {
        ControlInput::new(1.0, 0.0, 0.0)
    }

    /// Full brake, no steering.
    pub fn full_brake() -> Self {
        ControlInput::new(0.0, 1.0, 0.0)
    }

    /// Returns a copy with the handbrake set.
    pub fn with_handbrake(mut self, on: bool) -> Self {
        self.handbrake = on;
        self
    }

    /// Returns a copy with reverse gear set.
    pub fn with_reverse(mut self, on: bool) -> Self {
        self.reverse = on;
        self
    }

    /// `true` if every channel is released.
    pub fn is_coasting(&self) -> bool {
        self.throttle == Ratio::ZERO
            && self.brake == Ratio::ZERO
            && self.steer == 0.0
            && !self.handbrake
    }

    /// Validates the invariants (used when commands arrive over the
    /// network, where corruption faults may have mangled the payload).
    pub fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.throttle.get())
            && (0.0..=1.0).contains(&self.brake.get())
            && (-1.0..=1.0).contains(&self.steer)
            && self.throttle.get().is_finite()
            && self.brake.get().is_finite()
            && self.steer.is_finite()
    }

    /// Returns a sanitised copy with every channel clamped into range and
    /// non-finite values zeroed.
    pub fn sanitized(&self) -> ControlInput {
        let fix = |v: f64| if v.is_finite() { v } else { 0.0 };
        ControlInput {
            throttle: Ratio::clamped(fix(self.throttle.get())),
            brake: Ratio::clamped(fix(self.brake.get())),
            steer: fix(self.steer).clamp(-1.0, 1.0),
            reverse: self.reverse,
            handbrake: self.handbrake,
        }
    }
}

impl fmt::Display for ControlInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thr={:.2} brk={:.2} steer={:+.2}{}{}",
            self.throttle.get(),
            self.brake.get(),
            self.steer,
            if self.reverse { " R" } else { "" },
            if self.handbrake { " HB" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_clamps() {
        let c = ControlInput::new(1.5, -0.2, -3.0);
        assert_eq!(c.throttle, Ratio::ONE);
        assert_eq!(c.brake, Ratio::ZERO);
        assert_eq!(c.steer, -1.0);
        assert!(c.is_valid());
    }

    #[test]
    fn coast_detection() {
        assert!(ControlInput::COAST.is_coasting());
        assert!(!ControlInput::full_throttle().is_coasting());
        assert!(!ControlInput::COAST.with_handbrake(true).is_coasting());
    }

    #[test]
    fn flags() {
        let c = ControlInput::COAST.with_reverse(true).with_handbrake(true);
        assert!(c.reverse && c.handbrake);
        assert!(format!("{c}").contains("R"));
        assert!(format!("{c}").contains("HB"));
    }

    #[test]
    fn sanitize_mangled_payload() {
        let mangled = ControlInput {
            throttle: Ratio::new(f64::NAN),
            brake: Ratio::new(7.0),
            steer: f64::INFINITY,
            reverse: false,
            handbrake: false,
        };
        assert!(!mangled.is_valid());
        let fixed = mangled.sanitized();
        assert!(fixed.is_valid());
        assert_eq!(fixed.throttle, Ratio::ZERO);
        assert_eq!(fixed.brake, Ratio::ONE);
        assert_eq!(fixed.steer, 0.0);
    }

    proptest! {
        #[test]
        fn new_always_valid(t in -5.0f64..5.0, b in -5.0f64..5.0, s in -5.0f64..5.0) {
            prop_assert!(ControlInput::new(t, b, s).is_valid());
        }

        #[test]
        fn sanitized_always_valid(t in proptest::num::f64::ANY, s in proptest::num::f64::ANY) {
            let c = ControlInput {
                throttle: Ratio::new(t),
                brake: Ratio::new(-t),
                steer: s,
                reverse: false,
                handbrake: false,
            };
            prop_assert!(c.sanitized().is_valid());
        }
    }
}

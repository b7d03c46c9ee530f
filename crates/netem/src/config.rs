//! NETEM fault configuration.

use rdsim_units::{Millis, Ratio, SimDuration};
use std::fmt;

/// Delay parameters: fixed base delay, optional jitter with correlation —
/// the `tc qdisc ... netem delay <base> [<jitter> [<correlation>]]` triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayConfig {
    /// Base one-way delay.
    pub base: Millis,
    /// Uniform jitter amplitude (delay varies in `base ± jitter`).
    pub jitter: Millis,
    /// Correlation of successive jitter samples, `0..=1`.
    pub correlation: Ratio,
}

impl DelayConfig {
    /// A fixed delay without jitter.
    pub fn fixed(base: Millis) -> Self {
        DelayConfig {
            base,
            jitter: Millis::ZERO,
            correlation: Ratio::ZERO,
        }
    }

    /// Delay with uniform jitter.
    pub fn jittered(base: Millis, jitter: Millis, correlation: Ratio) -> Self {
        DelayConfig {
            base,
            jitter,
            correlation,
        }
    }
}

/// Packet-loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossConfig {
    /// Independent (optionally correlated) Bernoulli loss — `loss <p%>
    /// [<correlation%>]`.
    Random {
        /// Loss probability.
        probability: Ratio,
        /// Correlation of successive loss draws, `0..=1`.
        correlation: Ratio,
    },
    /// Gilbert–Elliott bursty loss — `loss gemodel <p> [<r> [<1-h> [<1-k>]]]`.
    GilbertElliott {
        /// Transition probability good → bad.
        p: Ratio,
        /// Transition probability bad → good.
        r: Ratio,
        /// Loss probability while in the bad state (`1-h` in tc terms).
        loss_in_bad: Ratio,
        /// Loss probability while in the good state (`1-k` in tc terms).
        loss_in_good: Ratio,
    },
}

impl LossConfig {
    /// Independent random loss.
    pub fn random(probability: Ratio) -> Self {
        LossConfig::Random {
            probability,
            correlation: Ratio::ZERO,
        }
    }

    /// The long-run average loss rate implied by the model.
    pub fn average_rate(&self) -> Ratio {
        match *self {
            LossConfig::Random { probability, .. } => probability,
            LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad,
                loss_in_good,
            } => {
                let denom = p.get() + r.get();
                if denom <= 0.0 {
                    return loss_in_good;
                }
                // Stationary distribution: π_bad = p / (p + r).
                let pi_bad = p.get() / denom;
                Ratio::new(pi_bad * loss_in_bad.get() + (1.0 - pi_bad) * loss_in_good.get())
            }
        }
    }
}

/// Reordering parameters — `reorder <p%> [<correlation%>] [gap <n>]`.
///
/// With probability `probability` a packet is transmitted immediately while
/// the remainder experience the configured delay, which reorders streams
/// whenever the delay exceeds the inter-packet gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderConfig {
    /// Probability that a packet jumps the queue.
    pub probability: Ratio,
    /// Correlation of successive reorder draws.
    pub correlation: Ratio,
    /// Every `gap`-th packet is a candidate (netem's `gap` parameter);
    /// `1` means every packet.
    pub gap: u32,
}

/// Rate limiting — `rate <bits/s>`: packets acquire serialisation delay
/// `len * 8 / rate` and queue behind each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateConfig {
    /// Link rate in bits per second.
    pub bits_per_second: u64,
}

impl RateConfig {
    /// Serialisation time of a packet of `len` bytes at this rate.
    pub fn serialization_time(&self, len: usize) -> SimDuration {
        if self.bits_per_second == 0 {
            return SimDuration::ZERO;
        }
        let micros = (len as u128 * 8 * 1_000_000) / self.bits_per_second as u128;
        SimDuration::from_micros(micros as u64)
    }
}

/// A complete NETEM rule: any combination of delay, loss, duplication,
/// corruption, reordering and rate limiting.
///
/// An empty config (`NetemConfig::default()`) passes traffic through
/// unchanged — equivalent to deleting the qdisc rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetemConfig {
    /// Delay/jitter settings.
    pub delay: Option<DelayConfig>,
    /// Loss model.
    pub loss: Option<LossConfig>,
    /// Duplication probability.
    pub duplicate: Option<Ratio>,
    /// Corruption probability (single bit flip per affected packet).
    pub corrupt: Option<Ratio>,
    /// Reordering settings (require `delay` to have a visible effect).
    pub reorder: Option<ReorderConfig>,
    /// Rate limit.
    pub rate: Option<RateConfig>,
    /// Queue capacity in packets (netem's `limit`). `None` falls back to
    /// the BDP-derived default when `rate` is set, unbounded otherwise —
    /// see [`NetemConfig::effective_limit`].
    pub limit: Option<u32>,
}

/// Reference packet size (bytes) for turning a bandwidth-delay product
/// into a packet-count queue limit. Matches the 1500-byte Ethernet MTU
/// most BDP sizing rules of thumb assume.
pub const BDP_REFERENCE_PACKET: u64 = 1500;

/// Smallest auto-derived queue limit. Short-delay/low-rate links have a
/// sub-packet BDP; a handful of packets of headroom keeps the limiter
/// from degenerating into drop-every-burst.
pub const MIN_AUTO_LIMIT: u32 = 16;

/// Largest worst-case one-way delay (base + jitter) a rule may ask for:
/// one hour. A run is capped at 900 s of simulated time, so no meaningful
/// rule comes near it, and the bound keeps `send time + delay` (plus any
/// rate-limiter backlog) far inside the microsecond clock instead of
/// overflowing it.
pub const MAX_DELAY: Millis = Millis::new(3_600_000.0);

impl NetemConfig {
    /// A config that passes traffic through untouched.
    pub fn passthrough() -> Self {
        NetemConfig::default()
    }

    /// Builder-style: sets a fixed delay.
    pub fn with_delay(mut self, base: Millis) -> Self {
        self.delay = Some(DelayConfig::fixed(base));
        self
    }

    /// Builder-style: sets jittered delay.
    pub fn with_jittered_delay(mut self, base: Millis, jitter: Millis, correlation: Ratio) -> Self {
        self.delay = Some(DelayConfig::jittered(base, jitter, correlation));
        self
    }

    /// Builder-style: sets independent random loss.
    pub fn with_loss(mut self, probability: Ratio) -> Self {
        self.loss = Some(LossConfig::random(probability));
        self
    }

    /// Builder-style: sets a Gilbert–Elliott loss model.
    pub fn with_gemodel_loss(
        mut self,
        p: Ratio,
        r: Ratio,
        loss_in_bad: Ratio,
        loss_in_good: Ratio,
    ) -> Self {
        self.loss = Some(LossConfig::GilbertElliott {
            p,
            r,
            loss_in_bad,
            loss_in_good,
        });
        self
    }

    /// Builder-style: sets duplication probability.
    pub fn with_duplicate(mut self, probability: Ratio) -> Self {
        self.duplicate = Some(probability);
        self
    }

    /// Builder-style: sets corruption probability.
    pub fn with_corrupt(mut self, probability: Ratio) -> Self {
        self.corrupt = Some(probability);
        self
    }

    /// Builder-style: sets reordering.
    pub fn with_reorder(mut self, probability: Ratio, gap: u32) -> Self {
        self.reorder = Some(ReorderConfig {
            probability,
            correlation: Ratio::ZERO,
            gap: gap.max(1),
        });
        self
    }

    /// Builder-style: sets a rate limit.
    pub fn with_rate(mut self, bits_per_second: u64) -> Self {
        self.rate = Some(RateConfig { bits_per_second });
        self
    }

    /// Builder-style: sets an explicit queue limit in packets.
    pub fn with_limit(mut self, packets: u32) -> Self {
        self.limit = Some(packets);
        self
    }

    /// `true` if the rule does nothing.
    pub fn is_passthrough(&self) -> bool {
        self.delay.is_none()
            && self.loss.is_none()
            && self.duplicate.is_none()
            && self.corrupt.is_none()
            && self.reorder.is_none()
            && self.rate.is_none()
            && self.limit.is_none()
    }

    /// The queue capacity this rule enforces, in packets.
    ///
    /// An explicit `limit` always wins. Without one, a rate-limited rule
    /// gets a finite queue of ~2× its bandwidth-delay product (BDP =
    /// rate × one-way base delay, in [`BDP_REFERENCE_PACKET`]-byte
    /// packets, floored at [`MIN_AUTO_LIMIT`]) — the standard router
    /// buffer sizing rule, so sustained overload surfaces as tail drops
    /// instead of an unbounded serialization backlog. A rule with
    /// neither `limit` nor `rate` keeps the historical unbounded queue,
    /// which is what keeps every pre-existing golden byte-identical.
    pub fn effective_limit(&self) -> Option<u32> {
        if self.limit.is_some() {
            return self.limit;
        }
        let rate = self.rate.filter(|r| r.bits_per_second > 0)?;
        let delay_us = self.delay.map_or(0.0, |d| d.base.get() * 1_000.0).max(0.0);
        let bdp_bytes = rate.bits_per_second as f64 / 8.0 * (delay_us / 1_000_000.0);
        let packets = (2.0 * bdp_bytes / BDP_REFERENCE_PACKET as f64).ceil();
        Some((packets as u32).max(MIN_AUTO_LIMIT))
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        fn ratio_ok(name: &str, r: Ratio) -> Result<(), String> {
            if (0.0..=1.0).contains(&r.get()) {
                Ok(())
            } else {
                Err(format!("{name} must be within [0, 1], got {}", r.get()))
            }
        }
        if let Some(d) = self.delay {
            if d.base.get() < 0.0 || !d.base.get().is_finite() {
                return Err(format!("delay base must be non-negative, got {}", d.base));
            }
            if !(0.0..=d.base.get()).contains(&d.jitter.get()) {
                return Err(format!(
                    "jitter must be within [0, base]; got jitter {} base {}",
                    d.jitter, d.base
                ));
            }
            if d.base.get() + d.jitter.get() > MAX_DELAY.get() {
                return Err(format!(
                    "delay base + jitter must be at most {MAX_DELAY}; got base {} jitter {}",
                    d.base, d.jitter
                ));
            }
            ratio_ok("delay correlation", d.correlation)?;
        }
        match self.loss {
            Some(LossConfig::Random {
                probability,
                correlation,
            }) => {
                ratio_ok("loss probability", probability)?;
                ratio_ok("loss correlation", correlation)?;
            }
            Some(LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad,
                loss_in_good,
            }) => {
                ratio_ok("gemodel p", p)?;
                ratio_ok("gemodel r", r)?;
                ratio_ok("gemodel 1-h", loss_in_bad)?;
                ratio_ok("gemodel 1-k", loss_in_good)?;
            }
            None => {}
        }
        if let Some(d) = self.duplicate {
            ratio_ok("duplicate probability", d)?;
        }
        if let Some(c) = self.corrupt {
            ratio_ok("corrupt probability", c)?;
        }
        if let Some(r) = self.reorder {
            ratio_ok("reorder probability", r.probability)?;
            if r.gap == 0 {
                return Err("reorder gap must be >= 1".to_owned());
            }
            if self.delay.is_none() {
                return Err("reorder requires a delay to reorder against".to_owned());
            }
        }
        if self.limit == Some(0) {
            return Err("limit must be >= 1 packet".to_owned());
        }
        Ok(())
    }
}

impl fmt::Display for NetemConfig {
    /// Formats as a `tc`-style rule string (parseable back).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_passthrough() {
            return f.write_str("passthrough");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(d) = self.delay {
            if d.jitter.get() > 0.0 {
                parts.push(format!(
                    "delay {}ms {}ms {}%",
                    d.base.get(),
                    d.jitter.get(),
                    d.correlation.to_percent()
                ));
            } else {
                parts.push(format!("delay {}ms", d.base.get()));
            }
        }
        match self.loss {
            Some(LossConfig::Random {
                probability,
                correlation,
            }) => {
                if correlation.get() > 0.0 {
                    parts.push(format!(
                        "loss {}% {}%",
                        probability.to_percent(),
                        correlation.to_percent()
                    ));
                } else {
                    parts.push(format!("loss {}%", probability.to_percent()));
                }
            }
            Some(LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad,
                loss_in_good,
            }) => {
                parts.push(format!(
                    "loss gemodel {}% {}% {}% {}%",
                    p.to_percent(),
                    r.to_percent(),
                    loss_in_bad.to_percent(),
                    loss_in_good.to_percent()
                ));
            }
            None => {}
        }
        if let Some(d) = self.duplicate {
            parts.push(format!("duplicate {}%", d.to_percent()));
        }
        if let Some(c) = self.corrupt {
            parts.push(format!("corrupt {}%", c.to_percent()));
        }
        if let Some(r) = self.reorder {
            parts.push(format!(
                "reorder {}% gap {}",
                r.probability.to_percent(),
                r.gap
            ));
        }
        if let Some(r) = self.rate {
            parts.push(format!("rate {}bit", r.bits_per_second));
        }
        if let Some(l) = self.limit {
            parts.push(format!("limit {l}"));
        }
        f.write_str(&parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_is_default() {
        let c = NetemConfig::default();
        assert!(c.is_passthrough());
        assert_eq!(format!("{c}"), "passthrough");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = NetemConfig::default()
            .with_delay(Millis::new(50.0))
            .with_loss(Ratio::from_percent(5.0))
            .with_duplicate(Ratio::from_percent(1.0))
            .with_corrupt(Ratio::from_percent(0.1))
            .with_reorder(Ratio::from_percent(25.0), 5)
            .with_rate(1_000_000);
        assert!(!c.is_passthrough());
        assert!(c.validate().is_ok());
        let s = format!("{c}");
        assert!(s.contains("delay 50ms"));
        assert!(s.contains("loss 5%"));
        assert!(s.contains("duplicate 1%"));
        assert!(s.contains("reorder 25% gap 5"));
        assert!(s.contains("rate 1000000bit"));
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad_loss = NetemConfig::default().with_loss(Ratio::new(1.5));
        assert!(bad_loss.validate().is_err());
        let bad_jitter = NetemConfig {
            delay: Some(DelayConfig::jittered(
                Millis::new(10.0),
                Millis::new(20.0),
                Ratio::ZERO,
            )),
            ..NetemConfig::default()
        };
        assert!(bad_jitter.validate().is_err());
        let reorder_without_delay = NetemConfig {
            reorder: Some(ReorderConfig {
                probability: Ratio::from_percent(10.0),
                correlation: Ratio::ZERO,
                gap: 1,
            }),
            ..NetemConfig::default()
        };
        assert!(reorder_without_delay.validate().is_err());
    }

    #[test]
    fn gemodel_average_rate() {
        // p = r ⇒ half the time in bad state.
        let loss = LossConfig::GilbertElliott {
            p: Ratio::new(0.1),
            r: Ratio::new(0.1),
            loss_in_bad: Ratio::new(0.8),
            loss_in_good: Ratio::new(0.0),
        };
        assert!((loss.average_rate().get() - 0.4).abs() < 1e-12);
        assert_eq!(
            LossConfig::random(Ratio::new(0.05)).average_rate().get(),
            0.05
        );
        // Degenerate: no transitions.
        let frozen = LossConfig::GilbertElliott {
            p: Ratio::ZERO,
            r: Ratio::ZERO,
            loss_in_bad: Ratio::ONE,
            loss_in_good: Ratio::new(0.01),
        };
        assert_eq!(frozen.average_rate().get(), 0.01);
    }

    #[test]
    fn serialization_time() {
        let r = RateConfig {
            bits_per_second: 1_000_000,
        };
        // 125 000 bytes = 1 Mbit = 1 s at 1 Mbit/s.
        assert_eq!(r.serialization_time(125_000), SimDuration::from_secs(1));
        assert_eq!(r.serialization_time(125), SimDuration::from_millis(1));
        let unlimited = RateConfig { bits_per_second: 0 };
        assert_eq!(unlimited.serialization_time(99999), SimDuration::ZERO);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let c = NetemConfig::default()
            .with_jittered_delay(
                Millis::new(25.0),
                Millis::new(5.0),
                Ratio::from_percent(25.0),
            )
            .with_loss(Ratio::from_percent(2.0));
        let s = format!("{c}");
        let back: NetemConfig = s.parse().unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn limit_displays_validates_and_roundtrips() {
        let c = NetemConfig::default().with_rate(2_000_000).with_limit(32);
        assert!(c.validate().is_ok());
        let s = format!("{c}");
        assert!(s.ends_with("limit 32"), "{s}");
        let back: NetemConfig = s.parse().unwrap();
        assert_eq!(c, back);
        assert!(NetemConfig::default().with_limit(0).validate().is_err());
        // A lone limit is not passthrough: it caps the queue.
        assert!(!NetemConfig::default().with_limit(10).is_passthrough());
    }

    #[test]
    fn effective_limit_prefers_explicit_then_bdp() {
        // Explicit limit wins even with a rate set.
        let explicit = NetemConfig::default().with_rate(8_000_000).with_limit(7);
        assert_eq!(explicit.effective_limit(), Some(7));
        // 8 Mbit/s × 50 ms ⇒ BDP 50 000 B; 2×BDP / 1500 B ⇒ ⌈66.7⌉ = 67.
        let bdp = NetemConfig::default()
            .with_delay(Millis::new(50.0))
            .with_rate(8_000_000);
        assert_eq!(bdp.effective_limit(), Some(67));
        // Tiny BDP floors at MIN_AUTO_LIMIT.
        let tiny = NetemConfig::default()
            .with_delay(Millis::new(1.0))
            .with_rate(64_000);
        assert_eq!(tiny.effective_limit(), Some(MIN_AUTO_LIMIT));
        // Rate with no delay still gets the floor, not an unbounded queue.
        assert_eq!(
            NetemConfig::default()
                .with_rate(1_000_000)
                .effective_limit(),
            Some(MIN_AUTO_LIMIT)
        );
        // No rate, no limit ⇒ the historical unbounded queue.
        assert_eq!(
            NetemConfig::default()
                .with_delay(Millis::new(25.0))
                .effective_limit(),
            None
        );
    }
}

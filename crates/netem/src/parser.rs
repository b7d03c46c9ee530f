//! Parser for the `tc qdisc ... netem` rule grammar.
//!
//! Supported vocabulary (a practical subset of `tc-netem(8)`):
//!
//! ```text
//! delay <time> [<jitter-time> [<correlation>%]]
//! loss <p>% [<correlation>%]
//! loss gemodel <p>% [<r>% [<1-h>% [<1-k>%]]]
//! duplicate <p>%
//! corrupt <p>%
//! reorder <p>% [<correlation>%] [gap <n>]
//! rate <n>(bit|kbit|mbit|gbit)
//! limit <packets>
//! passthrough
//! ```
//!
//! Times accept `ms`, `s` and `us` suffixes (`50ms`, `0.05s`, `500us`).

use crate::{DelayConfig, LossConfig, NetemConfig, RateConfig, ReorderConfig};
use rdsim_units::{Millis, Ratio};
use std::fmt;
use std::str::FromStr;

/// Error produced when a rule string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRuleError {
    message: String,
}

impl ParseRuleError {
    fn new(message: impl Into<String>) -> Self {
        ParseRuleError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseRuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid netem rule: {}", self.message)
    }
}

impl std::error::Error for ParseRuleError {}

impl FromStr for NetemConfig {
    type Err = ParseRuleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tokens: Vec<&str> = s.split_whitespace().collect();
        if tokens.is_empty() {
            return Err(ParseRuleError::new("empty rule"));
        }
        let mut config = NetemConfig::default();
        let mut i = 0usize;
        while i < tokens.len() {
            let keyword = tokens[i];
            i += 1;
            match keyword {
                "passthrough" => {}
                "delay" => {
                    let base = parse_time(take(&tokens, &mut i, "delay needs a time")?)?;
                    let mut jitter = Millis::ZERO;
                    let mut correlation = Ratio::ZERO;
                    if let Some(tok) = peek_time(&tokens, i) {
                        jitter = parse_time(tok)?;
                        i += 1;
                        if let Some(tok) = peek_percent(&tokens, i) {
                            correlation = parse_percent(tok)?;
                            i += 1;
                        }
                    }
                    config.delay = Some(DelayConfig {
                        base,
                        jitter,
                        correlation,
                    });
                }
                "loss" => {
                    let tok = take(&tokens, &mut i, "loss needs a probability")?;
                    if tok == "gemodel" {
                        let p = parse_percent(take(&tokens, &mut i, "gemodel needs p")?)?;
                        let mut ge = [p, Ratio::new(1.0 - p.get()), Ratio::ONE, Ratio::ZERO];
                        for slot in ge.iter_mut().skip(1) {
                            match peek_percent(&tokens, i) {
                                Some(t) => {
                                    *slot = parse_percent(t)?;
                                    i += 1;
                                }
                                None => break,
                            }
                        }
                        config.loss = Some(LossConfig::GilbertElliott {
                            p: ge[0],
                            r: ge[1],
                            loss_in_bad: ge[2],
                            loss_in_good: ge[3],
                        });
                    } else {
                        let probability = parse_percent(tok)?;
                        let mut correlation = Ratio::ZERO;
                        if let Some(t) = peek_percent(&tokens, i) {
                            correlation = parse_percent(t)?;
                            i += 1;
                        }
                        config.loss = Some(LossConfig::Random {
                            probability,
                            correlation,
                        });
                    }
                }
                "duplicate" => {
                    config.duplicate = Some(parse_percent(take(
                        &tokens,
                        &mut i,
                        "duplicate needs a probability",
                    )?)?);
                }
                "corrupt" => {
                    config.corrupt = Some(parse_percent(take(
                        &tokens,
                        &mut i,
                        "corrupt needs a probability",
                    )?)?);
                }
                "reorder" => {
                    let probability =
                        parse_percent(take(&tokens, &mut i, "reorder needs a probability")?)?;
                    let mut correlation = Ratio::ZERO;
                    if let Some(t) = peek_percent(&tokens, i) {
                        correlation = parse_percent(t)?;
                        i += 1;
                    }
                    let mut gap = 1u32;
                    if tokens.get(i) == Some(&"gap") {
                        i += 1;
                        let g = take(&tokens, &mut i, "gap needs a count")?;
                        gap = g
                            .parse::<u32>()
                            .map_err(|_| ParseRuleError::new(format!("bad gap '{g}'")))?;
                        if gap == 0 {
                            return Err(ParseRuleError::new("gap must be >= 1"));
                        }
                    }
                    config.reorder = Some(ReorderConfig {
                        probability,
                        correlation,
                        gap,
                    });
                }
                "rate" => {
                    let tok = take(&tokens, &mut i, "rate needs a value")?;
                    config.rate = Some(RateConfig {
                        bits_per_second: parse_rate(tok)?,
                    });
                }
                "limit" => {
                    let tok = take(&tokens, &mut i, "limit needs a packet count")?;
                    config.limit = Some(
                        tok.parse::<u32>()
                            .map_err(|_| ParseRuleError::new(format!("bad limit '{tok}'")))?,
                    );
                }
                other => {
                    return Err(ParseRuleError::new(format!("unknown keyword '{other}'")));
                }
            }
        }
        config.validate().map_err(ParseRuleError::new)?;
        Ok(config)
    }
}

/// Consumes and returns the token at `*i`, advancing past it.
fn take<'a>(tokens: &[&'a str], i: &mut usize, err: &str) -> Result<&'a str, ParseRuleError> {
    let t = tokens
        .get(*i)
        .copied()
        .ok_or_else(|| ParseRuleError::new(err))?;
    *i += 1;
    Ok(t)
}

fn peek_time<'a>(tokens: &[&'a str], i: usize) -> Option<&'a str> {
    tokens.get(i).copied().filter(|t| looks_like_time(t))
}

fn peek_percent<'a>(tokens: &[&'a str], i: usize) -> Option<&'a str> {
    tokens
        .get(i)
        .copied()
        .filter(|t| t.ends_with('%') || t.parse::<f64>().is_ok())
}

fn looks_like_time(t: &str) -> bool {
    let num = if let Some(n) = t.strip_suffix("ms") {
        n
    } else if let Some(n) = t.strip_suffix("us") {
        n
    } else if let Some(n) = t.strip_suffix('s') {
        n
    } else {
        return false;
    };
    num.parse::<f64>().is_ok()
}

fn parse_time(t: &str) -> Result<Millis, ParseRuleError> {
    let (num, scale) = if let Some(n) = t.strip_suffix("ms") {
        (n, 1.0)
    } else if let Some(n) = t.strip_suffix("us") {
        (n, 1e-3)
    } else if let Some(n) = t.strip_suffix('s') {
        (n, 1e3)
    } else {
        (t, 1.0) // bare number = milliseconds, like tc
    };
    let v: f64 = num
        .parse()
        .map_err(|_| ParseRuleError::new(format!("bad time '{t}'")))?;
    if v < 0.0 || !v.is_finite() {
        return Err(ParseRuleError::new(format!("negative time '{t}'")));
    }
    Ok(Millis::new(v * scale))
}

fn parse_percent(t: &str) -> Result<Ratio, ParseRuleError> {
    let num = t.strip_suffix('%').unwrap_or(t);
    let v: f64 = num
        .parse()
        .map_err(|_| ParseRuleError::new(format!("bad percentage '{t}'")))?;
    if !(0.0..=100.0).contains(&v) {
        return Err(ParseRuleError::new(format!(
            "percentage '{t}' outside [0, 100]"
        )));
    }
    Ok(Ratio::from_percent(v))
}

fn parse_rate(t: &str) -> Result<u64, ParseRuleError> {
    let lower = t.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("gbit") {
        (n.to_owned(), 1_000_000_000u64)
    } else if let Some(n) = lower.strip_suffix("mbit") {
        (n.to_owned(), 1_000_000)
    } else if let Some(n) = lower.strip_suffix("kbit") {
        (n.to_owned(), 1_000)
    } else if let Some(n) = lower.strip_suffix("bit") {
        (n.to_owned(), 1)
    } else {
        (lower, 1)
    };
    let v: f64 = num
        .parse()
        .map_err(|_| ParseRuleError::new(format!("bad rate '{t}'")))?;
    if v < 0.0 || !v.is_finite() {
        return Err(ParseRuleError::new(format!("negative rate '{t}'")));
    }
    let bits = (v * mult as f64) as u64;
    if bits == 0 {
        return Err(ParseRuleError::new(format!(
            "rate '{t}' is zero; a zero rate never transmits"
        )));
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fault_rules_parse() {
        // The paper's five faults.
        for (rule, delay_ms, loss_pct) in [
            ("delay 5ms", Some(5.0), None),
            ("delay 25ms", Some(25.0), None),
            ("delay 50ms", Some(50.0), None),
            ("loss 2%", None, Some(2.0)),
            ("loss 5%", None, Some(5.0)),
        ] {
            let c: NetemConfig = rule.parse().unwrap();
            match delay_ms {
                Some(ms) => assert_eq!(c.delay.unwrap().base, Millis::new(ms), "{rule}"),
                None => assert!(c.delay.is_none(), "{rule}"),
            }
            match loss_pct {
                Some(pct) => match c.loss.unwrap() {
                    LossConfig::Random { probability, .. } => {
                        assert!((probability.to_percent() - pct).abs() < 1e-9, "{rule}")
                    }
                    other => panic!("unexpected loss model {other:?}"),
                },
                None => assert!(c.loss.is_none(), "{rule}"),
            }
        }
    }

    #[test]
    fn delay_is_bounded_by_max_delay() {
        use crate::{Link, Packet, PacketKind, MAX_DELAY};
        use rdsim_units::SimTime;
        for rule in [
            "delay 1e300ms",
            "delay 3601s",
            "delay 3600s 1ms",
            "delay 1e13ms",
        ] {
            let e = rule.parse::<NetemConfig>().unwrap_err();
            assert!(e.to_string().contains("at most"), "{rule}: {e}");
        }
        // The bound itself is allowed, and a packet sent at the end of the
        // longest run behind a 1 bit/s backlog still gets a release time.
        let config: NetemConfig = "delay 3600s rate 1bit".parse().unwrap();
        assert_eq!(config.delay.unwrap().base, MAX_DELAY);
        let mut link = Link::with_config(config, 1);
        let late = SimTime::from_secs(900);
        link.send(Packet::new(0, PacketKind::Video, vec![0u8; 1_200]), late);
        assert!(link.receive(late).is_empty());
        assert!(link.next_delivery().unwrap() > late);
    }

    #[test]
    fn delay_with_jitter_and_correlation() {
        let c: NetemConfig = "delay 100ms 10ms 25%".parse().unwrap();
        let d = c.delay.unwrap();
        assert_eq!(d.base, Millis::new(100.0));
        assert_eq!(d.jitter, Millis::new(10.0));
        assert!((d.correlation.get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn time_unit_suffixes() {
        assert_eq!(parse_time("50ms").unwrap(), Millis::new(50.0));
        assert_eq!(parse_time("0.05s").unwrap(), Millis::new(50.0));
        assert_eq!(parse_time("500us").unwrap(), Millis::new(0.5));
        assert_eq!(parse_time("25").unwrap(), Millis::new(25.0));
        assert!(parse_time("-5ms").is_err());
        assert!(parse_time("xms").is_err());
    }

    #[test]
    fn gemodel_rule() {
        let c: NetemConfig = "loss gemodel 1% 10% 80% 0.1%".parse().unwrap();
        match c.loss.unwrap() {
            LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad,
                loss_in_good,
            } => {
                assert!((p.to_percent() - 1.0).abs() < 1e-9);
                assert!((r.to_percent() - 10.0).abs() < 1e-9);
                assert!((loss_in_bad.to_percent() - 80.0).abs() < 1e-9);
                assert!((loss_in_good.to_percent() - 0.1).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gemodel_defaults() {
        let c: NetemConfig = "loss gemodel 2%".parse().unwrap();
        match c.loss.unwrap() {
            LossConfig::GilbertElliott {
                p,
                r,
                loss_in_bad,
                loss_in_good,
            } => {
                assert!((p.to_percent() - 2.0).abs() < 1e-9);
                assert!((r.get() - 0.98).abs() < 1e-9);
                assert_eq!(loss_in_bad, Ratio::ONE);
                assert_eq!(loss_in_good, Ratio::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn combined_rule() {
        let c: NetemConfig = "delay 50ms 5ms 10% loss 5% 30% duplicate 1% corrupt 0.5% reorder 25% gap 3 rate 10mbit"
            .parse()
            .unwrap();
        assert!(c.delay.is_some());
        assert!(c.loss.is_some());
        assert!(c.duplicate.is_some());
        assert!(c.corrupt.is_some());
        let r = c.reorder.unwrap();
        assert_eq!(r.gap, 3);
        assert!((r.probability.to_percent() - 25.0).abs() < 1e-9);
        assert_eq!(c.rate.unwrap().bits_per_second, 10_000_000);
    }

    #[test]
    fn rate_units() {
        assert_eq!(parse_rate("1000bit").unwrap(), 1000);
        assert_eq!(parse_rate("1kbit").unwrap(), 1000);
        assert_eq!(parse_rate("2mbit").unwrap(), 2_000_000);
        assert_eq!(parse_rate("1gbit").unwrap(), 1_000_000_000);
        assert_eq!(parse_rate("500").unwrap(), 500);
        assert!(parse_rate("fast").is_err());
    }

    #[test]
    fn rate_accepts_fractions_and_rejects_zero() {
        assert_eq!(parse_rate("2.5mbit").unwrap(), 2_500_000);
        assert_eq!(parse_rate("0.5kbit").unwrap(), 500);
        assert_eq!(parse_rate("1.5gbit").unwrap(), 1_500_000_000);
        assert!(parse_rate("0bit").is_err());
        assert!(parse_rate("0").is_err());
        // Sub-bit fractions truncate to zero and are rejected too.
        assert!(parse_rate("0.4bit").is_err());
        let e = "rate 0kbit".parse::<NetemConfig>().unwrap_err();
        assert!(e.to_string().contains("zero"));
    }

    #[test]
    fn limit_keyword_parses_and_rejects_garbage() {
        let c: NetemConfig = "rate 2.5mbit limit 20".parse().unwrap();
        assert_eq!(c.rate.unwrap().bits_per_second, 2_500_000);
        assert_eq!(c.limit, Some(20));
        assert!("limit".parse::<NetemConfig>().is_err());
        assert!("limit many".parse::<NetemConfig>().is_err());
        // Validation propagates: a zero limit is rejected at parse time.
        let e = "limit 0".parse::<NetemConfig>().unwrap_err();
        assert!(e.to_string().contains(">= 1"));
    }

    #[test]
    fn errors_are_informative() {
        let e = "delay".parse::<NetemConfig>().unwrap_err();
        assert!(e.to_string().contains("delay needs a time"));
        let e = "warp 9".parse::<NetemConfig>().unwrap_err();
        assert!(e.to_string().contains("unknown keyword"));
        let e = "".parse::<NetemConfig>().unwrap_err();
        assert!(e.to_string().contains("empty"));
        let e = "loss 150%".parse::<NetemConfig>().unwrap_err();
        assert!(e.to_string().contains("outside"));
        // Validation errors propagate: reorder without delay.
        let e = "reorder 25%".parse::<NetemConfig>().unwrap_err();
        assert!(e.to_string().contains("requires a delay"));
    }

    #[test]
    fn passthrough_parses() {
        let c: NetemConfig = "passthrough".parse().unwrap();
        assert!(c.is_passthrough());
    }
}

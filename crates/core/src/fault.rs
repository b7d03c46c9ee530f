//! The fault model (§V.C): type, value, and the paper's fault catalog.

use rdsim_netem::NetemConfig;
use rdsim_units::{Millis, Ratio};
use std::fmt;

/// The kind and magnitude of a communication fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fixed one-way delay.
    Delay(Millis),
    /// Independent random packet loss.
    PacketLoss(Ratio),
    /// Single-bit payload corruption (a discarded candidate in the paper:
    /// "did not show any clear visual or operational effect").
    Corruption(Ratio),
    /// Packet duplication (the other discarded candidate).
    Duplication(Ratio),
}

impl FaultKind {
    /// The NETEM rule implementing this fault.
    pub fn config(&self) -> NetemConfig {
        match *self {
            FaultKind::Delay(ms) => NetemConfig::default().with_delay(ms),
            FaultKind::PacketLoss(p) => NetemConfig::default().with_loss(p),
            FaultKind::Corruption(p) => NetemConfig::default().with_corrupt(p),
            FaultKind::Duplication(p) => NetemConfig::default().with_duplicate(p),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::Delay(ms) => write!(f, "delay {}ms", ms.get()),
            FaultKind::PacketLoss(p) => write!(f, "loss {}%", p.to_percent()),
            FaultKind::Corruption(p) => write!(f, "corrupt {}%", p.to_percent()),
            FaultKind::Duplication(p) => write!(f, "duplicate {}%", p.to_percent()),
        }
    }
}

/// A named fault: what the injection log and the result tables call it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Table label, e.g. `"5ms"` or `"2%"`.
    pub label: String,
    /// Kind and magnitude.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Creates a named fault.
    pub fn new(label: impl Into<String>, kind: FaultKind) -> Self {
        FaultSpec {
            label: label.into(),
            kind,
        }
    }
}

/// The five faults the paper selected "based on initial testing, with the
/// purpose of exploring the limits of manoeuvrability" (§V.C), as a closed
/// enum so tables can index columns by fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PaperFault {
    /// 5 ms delay.
    Delay5ms,
    /// 25 ms delay.
    Delay25ms,
    /// 50 ms delay.
    Delay50ms,
    /// 2 % packet loss.
    Loss2Pct,
    /// 5 % packet loss.
    Loss5Pct,
}

impl PaperFault {
    /// All five, in the tables' column order.
    pub const ALL: [PaperFault; 5] = [
        PaperFault::Delay5ms,
        PaperFault::Delay25ms,
        PaperFault::Delay50ms,
        PaperFault::Loss2Pct,
        PaperFault::Loss5Pct,
    ];

    /// The fault's kind and magnitude.
    pub fn kind(self) -> FaultKind {
        match self {
            PaperFault::Delay5ms => FaultKind::Delay(Millis::new(5.0)),
            PaperFault::Delay25ms => FaultKind::Delay(Millis::new(25.0)),
            PaperFault::Delay50ms => FaultKind::Delay(Millis::new(50.0)),
            PaperFault::Loss2Pct => FaultKind::PacketLoss(Ratio::from_percent(2.0)),
            PaperFault::Loss5Pct => FaultKind::PacketLoss(Ratio::from_percent(5.0)),
        }
    }

    /// The NETEM rule implementing the fault.
    pub fn config(self) -> NetemConfig {
        self.kind().config()
    }

    /// `true` for the delay family.
    pub fn is_delay(self) -> bool {
        matches!(
            self,
            PaperFault::Delay5ms | PaperFault::Delay25ms | PaperFault::Delay50ms
        )
    }

    /// `true` for the packet-loss family.
    pub fn is_loss(self) -> bool {
        !self.is_delay()
    }

    /// The table column label ("5ms", "25ms", "50ms", "2%", "5%").
    pub fn label(self) -> &'static str {
        match self {
            PaperFault::Delay5ms => "5ms",
            PaperFault::Delay25ms => "25ms",
            PaperFault::Delay50ms => "50ms",
            PaperFault::Loss2Pct => "2%",
            PaperFault::Loss5Pct => "5%",
        }
    }

    /// Identifies the paper fault matching a NETEM rule, if any — used to
    /// attribute injector-log entries back to table columns.
    pub fn from_config(config: &NetemConfig) -> Option<PaperFault> {
        PaperFault::ALL.into_iter().find(|f| f.config() == *config)
    }

    /// The discarded candidate faults (corruption and duplication), kept
    /// testable so the discard decision itself can be reproduced.
    pub fn discarded_candidates() -> Vec<FaultSpec> {
        vec![
            FaultSpec::new(
                "corrupt-0.5%",
                FaultKind::Corruption(Ratio::from_percent(0.5)),
            ),
            FaultSpec::new("dup-1%", FaultKind::Duplication(Ratio::from_percent(1.0))),
        ]
    }
}

impl fmt::Display for PaperFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_netem::LossConfig;

    #[test]
    fn catalog_order_matches_tables() {
        let labels: Vec<&str> = PaperFault::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels, vec!["5ms", "25ms", "50ms", "2%", "5%"]);
    }

    #[test]
    fn families() {
        assert!(PaperFault::Delay5ms.is_delay());
        assert!(PaperFault::Delay50ms.is_delay());
        assert!(PaperFault::Loss2Pct.is_loss());
        assert!(!PaperFault::Loss5Pct.is_delay());
    }

    #[test]
    fn configs_are_correct_netem_rules() {
        let c = PaperFault::Delay50ms.config();
        assert_eq!(c.delay.unwrap().base, Millis::new(50.0));
        assert!(c.loss.is_none());
        let c = PaperFault::Loss5Pct.config();
        match c.loss.unwrap() {
            LossConfig::Random { probability, .. } => {
                assert!((probability.to_percent() - 5.0).abs() < 1e-12)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.delay.is_none());
    }

    #[test]
    fn from_config_roundtrip() {
        for f in PaperFault::ALL {
            assert_eq!(PaperFault::from_config(&f.config()), Some(f));
        }
        assert_eq!(PaperFault::from_config(&NetemConfig::passthrough()), None);
    }

    #[test]
    fn kind_display() {
        assert_eq!(
            format!("{}", FaultKind::Delay(Millis::new(25.0))),
            "delay 25ms"
        );
        assert_eq!(
            format!("{}", FaultKind::PacketLoss(Ratio::from_percent(5.0))),
            "loss 5%"
        );
        assert_eq!(format!("{}", PaperFault::Loss2Pct), "2%");
    }

    #[test]
    fn discarded_candidates_produce_rules() {
        let cands = PaperFault::discarded_candidates();
        assert_eq!(cands.len(), 2);
        assert!(cands[0].kind.config().corrupt.is_some());
        assert!(cands[1].kind.config().duplicate.is_some());
    }
}

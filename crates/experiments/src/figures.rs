//! Figure 4: steering profiles, golden vs faulty.

use crate::StudyResults;
use rdsim_metrics::SteeringProfile;

/// The two profiles of Fig. 4 plus the traversal-time comparison the
/// paper highlights ("19 s in the golden run … 33 s in the faulty run").
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4 {
    /// Which subject the figure shows.
    pub subject: String,
    /// Golden-run profile.
    pub golden: SteeringProfile,
    /// Faulty-run profile.
    pub faulty: SteeringProfile,
}

/// Start of the Fig. 4 lane-change section (world x of the slalom zone).
const SECTION_FROM_X: f64 = 215.0;
/// End of the section.
const SECTION_TO_X: f64 = 400.0;

/// Extracts the Fig. 4 data for a subject. When `subject` is `None`, the
/// most illustrative subject is chosen — the one whose faulty-run
/// traversal of the lane-change section slowed down the most relative to
/// the golden run, which is how the paper picked its example ("the test
/// subject took around 19 s … in the golden run whereas 33 s in the
/// faulty run").
pub fn figure4(results: &StudyResults, subject: Option<&str>) -> Option<Figure4> {
    let candidates: Vec<String> = match subject {
        Some(s) => vec![s.to_owned()],
        None => results.analysable_ids(),
    };
    let mut best: Option<(f64, Figure4)> = None;
    for id in candidates {
        let (Some(golden), Some(faulty)) = (results.golden(&id), results.faulty(&id)) else {
            continue;
        };
        if !golden.log.has_steering_data() || !faulty.log.has_steering_data() {
            continue;
        }
        let fig = Figure4 {
            subject: id,
            golden: SteeringProfile::extract(
                "golden run",
                &golden.log,
                SECTION_FROM_X,
                SECTION_TO_X,
            ),
            faulty: SteeringProfile::extract(
                "faulty run",
                &faulty.log,
                SECTION_FROM_X,
                SECTION_TO_X,
            ),
        };
        let slowdown = match (fig.faulty.traversal, fig.golden.traversal) {
            (Some(f), Some(g)) => f.get() - g.get(),
            _ => f64::NEG_INFINITY,
        };
        if best.as_ref().is_none_or(|(s, _)| slowdown > *s) {
            best = Some((slowdown, fig));
        }
    }
    best.map(|(_, fig)| fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_roster, run_protocol, ScenarioConfig};
    use rdsim_core::RunKind;

    /// Builds a minimal one-subject study (avoids the full 12-subject
    /// campaign; that path is covered by the study tests and `repro`).
    fn mini_study() -> StudyResults {
        let roster = paper_roster();
        let profile = roster
            .iter()
            .find(|r| r.profile.id == "T5")
            .unwrap()
            .profile
            .clone();
        let cfg = ScenarioConfig::quick();
        let golden = run_protocol(&profile, RunKind::Golden, 31, &cfg);
        let faulty = run_protocol(&profile, RunKind::Faulty, 32, &cfg);
        StudyResults {
            roster,
            records: vec![golden.record, faulty.record],
            questionnaires: Vec::new(),
            telemetry: rdsim_obs::RunTelemetry::default(),
            traces: Vec::new(),
        }
    }

    #[test]
    fn figure4_extracts_profiles() {
        let results = mini_study();
        let fig = figure4(&results, None).expect("T5 has both profiles");
        assert_eq!(fig.subject, "T5");
        assert_eq!(fig.golden.label, "golden run");
        assert_eq!(fig.faulty.label, "faulty run");
        assert!(!fig.golden.series.is_empty());
        assert!(!fig.faulty.series.is_empty());
        // The quick course covers the slalom section, so traversal times
        // exist for both runs.
        assert!(fig.golden.traversal.is_some());
        assert!(fig.faulty.traversal.is_some());
        // Requesting a subject with no records yields None.
        assert!(figure4(&results, Some("T9")).is_none());
        // Explicit subject selection works.
        assert!(figure4(&results, Some("T5")).is_some());
    }
}

//! The subject roster: T1–T12 with the paper's traits, exclusions and
//! recording failures.
//!
//! The questionnaire summary (§VI.F) constrains the analysable eleven:
//! 10/11 with past (not recent) gaming experience, 1/11 recent; 9/11 with
//! racing-game experience; 6 with no prior station experience, 3 with a
//! few uses, 2 with one. T7 is additionally recruited but excluded
//! (left-hand-traffic habit). The recording failures of §VI.A are carried
//! as flags so the analysis reproduces the "x"/"-" cells of the tables.

use rdsim_operator::{Experience, Familiarity, Handedness, SubjectProfile};

/// One subject in the study.
#[derive(Debug, Clone, PartialEq)]
pub struct RosterEntry {
    /// The subject's profile (identity + traits).
    pub profile: SubjectProfile,
    /// Excluded from analysis (T7, left-handed driving habit).
    pub excluded: bool,
    /// Steering data of the golden (NFI) run lost (T3).
    pub steering_lost_golden: bool,
    /// Steering data of the faulty (FI) run lost (T8, T10, T12).
    pub steering_lost_faulty: bool,
    /// Lead-vehicle velocity lost in both runs (T1–T4): no TTC analysis.
    pub lead_velocity_lost: bool,
}

fn subject(
    id: &str,
    gaming: Experience,
    racing: bool,
    station: Familiarity,
    handedness: Handedness,
    attentiveness: f64,
) -> SubjectProfile {
    SubjectProfile {
        id: id.to_owned(),
        gaming,
        racing_games: racing,
        station,
        handedness,
        attentiveness,
    }
}

/// The twelve recruited subjects.
pub fn paper_roster() -> Vec<RosterEntry> {
    use Experience::{Past, Recent};
    use Familiarity::{Few, None as NoneF, Once};
    use Handedness::{LeftTraffic, RightTraffic};
    let mk = |profile: SubjectProfile| RosterEntry {
        profile,
        excluded: false,
        steering_lost_golden: false,
        steering_lost_faulty: false,
        lead_velocity_lost: false,
    };
    let mut roster = vec![
        // Analysable group: 10 past gamers + 1 recent; 9/11 racing games;
        // station: 6 none / 3 few / 2 once. Attentiveness varies to give
        // the between-subject spread of the tables (T6 is the paper's
        // low-TTC outlier; T11 its steadiest driver).
        mk(subject("T1", Past, true, NoneF, RightTraffic, 0.70)),
        mk(subject("T2", Past, true, NoneF, RightTraffic, 0.55)),
        mk(subject("T3", Past, true, Few, RightTraffic, 0.50)),
        mk(subject("T4", Past, false, NoneF, RightTraffic, 0.75)),
        mk(subject("T5", Past, true, Once, RightTraffic, 0.65)),
        mk(subject("T6", Past, true, NoneF, RightTraffic, 0.40)),
        mk(subject("T7", Past, true, NoneF, LeftTraffic, 0.60)),
        mk(subject("T8", Recent, true, Few, RightTraffic, 0.80)),
        mk(subject("T9", Past, true, NoneF, RightTraffic, 0.60)),
        mk(subject("T10", Past, false, Few, RightTraffic, 0.72)),
        mk(subject("T11", Past, true, Once, RightTraffic, 0.85)),
        mk(subject("T12", Past, true, NoneF, RightTraffic, 0.66)),
    ];
    // §VI.A exclusions and recording failures.
    for entry in &mut roster {
        match entry.profile.id.as_str() {
            "T7" => entry.excluded = true,
            "T3" => entry.steering_lost_golden = true,
            "T8" | "T10" | "T12" => entry.steering_lost_faulty = true,
            _ => {}
        }
        if matches!(entry.profile.id.as_str(), "T1" | "T2" | "T3" | "T4") {
            entry.lead_velocity_lost = true;
        }
    }
    roster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_subjects_eleven_analysable() {
        let roster = paper_roster();
        assert_eq!(roster.len(), 12);
        assert_eq!(roster.iter().filter(|r| !r.excluded).count(), 11);
        assert!(
            roster
                .iter()
                .find(|r| r.profile.id == "T7")
                .unwrap()
                .excluded
        );
    }

    #[test]
    fn questionnaire_marginals_match_section_vi_f() {
        let analysable: Vec<RosterEntry> =
            paper_roster().into_iter().filter(|r| !r.excluded).collect();
        let recent = analysable
            .iter()
            .filter(|r| r.profile.gaming == Experience::Recent)
            .count();
        let past = analysable
            .iter()
            .filter(|r| r.profile.gaming == Experience::Past)
            .count();
        let racing = analysable.iter().filter(|r| r.profile.racing_games).count();
        let no_station = analysable
            .iter()
            .filter(|r| r.profile.station == Familiarity::None)
            .count();
        let few = analysable
            .iter()
            .filter(|r| r.profile.station == Familiarity::Few)
            .count();
        let once = analysable
            .iter()
            .filter(|r| r.profile.station == Familiarity::Once)
            .count();
        assert_eq!(recent, 1, "one recent gamer");
        assert_eq!(past, 10, "ten past gamers");
        assert_eq!(racing, 9, "nine racing-game players");
        assert_eq!(no_station, 6);
        assert_eq!(few, 3);
        assert_eq!(once, 2);
    }

    #[test]
    fn recording_failures_match_section_vi_a() {
        let roster = paper_roster();
        let by_id = |id: &str| roster.iter().find(|r| r.profile.id == id).unwrap().clone();
        assert!(by_id("T3").steering_lost_golden);
        for id in ["T8", "T10", "T12"] {
            assert!(by_id(id).steering_lost_faulty, "{id}");
        }
        for id in ["T1", "T2", "T3", "T4"] {
            assert!(by_id(id).lead_velocity_lost, "{id}");
        }
        assert!(!by_id("T5").lead_velocity_lost);
        assert!(!by_id("T9").steering_lost_faulty);
    }
}

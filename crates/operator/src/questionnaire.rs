//! The post-test questionnaire (§V.E step 3) and its answer model.

use crate::{Experience, Familiarity, PerceptionState, SubjectProfile};
use rdsim_math::RngStream;

/// One subject's answers to the six questions.
#[derive(Debug, Clone, PartialEq)]
pub struct Questionnaire {
    /// Subject id.
    pub subject: String,
    /// Q1: "Do you have much experience playing video games?"
    pub gaming_experience: Experience,
    /// Q2: "Have you played any car racing games, specifically?"
    pub racing_games: bool,
    /// Q3: "Do you have any … experience with the driving station?"
    pub station_experience: Familiarity,
    /// Q4: QoE of the faulty run relative to the golden run, 1–5.
    pub qoe: u8,
    /// Q5: "virtual testing is useful for testing purposes?"
    pub virtual_testing_useful: bool,
    /// Q6: "Did you feel any difference in the faults injected?"
    pub felt_difference: bool,
}

impl Questionnaire {
    /// Generates a subject's answers.
    ///
    /// Q1–Q3 restate the profile. Q4 (QoE) is derived from the measured
    /// feed quality of the faulty run: more stutter ⇒ lower score, with a
    /// subject-specific disposition. Q6 depends on whether the stutter
    /// exceeded the subject's perceptual threshold. Q5 is uniformly
    /// positive, as in the paper ("all test subjects believe virtual
    /// testing can be useful").
    pub fn answer(
        profile: &SubjectProfile,
        faulty_run_perception: &PerceptionState,
        rng: &mut RngStream,
    ) -> Self {
        Self::answer_from_feed(
            profile,
            faulty_run_perception.stutter_time(),
            faulty_run_perception.worst_display_gap(),
            faulty_run_perception.frames_seen(),
            rng,
        )
    }

    /// Like [`Questionnaire::answer`], but from the raw feed-quality
    /// numbers (as carried in a run output rather than a live perception
    /// state).
    pub fn answer_from_feed(
        profile: &SubjectProfile,
        stutter_time: rdsim_units::SimDuration,
        worst_display_gap: rdsim_units::SimDuration,
        frames_seen: u64,
        rng: &mut RngStream,
    ) -> Self {
        let total_frames = frames_seen.max(1);
        // Stutter per frame in milliseconds: a rough objective QoE proxy.
        let stutter_ms = stutter_time.as_millis_f64();
        let stutter_per_frame = stutter_ms / total_frames as f64;
        let worst_gap_ms = worst_display_gap.as_millis_f64();

        // Map degradation to a 1–5 score. A perfectly smooth run scores
        // ~4; heavy stutter pushes toward 2 (the paper's observed range
        // was 2–4 with mean 2.81 — faults were always present in the run
        // being scored).
        let objective = 4.1 - 1.2 * stutter_per_frame - 0.012 * worst_gap_ms;
        let disposition = rng.normal(0.0, 0.35);
        let qoe = (objective + disposition).round().clamp(1.0, 5.0) as u8;

        // Q6: perceptual threshold ~ a couple of consecutively skipped
        // frames, more sensitive for attentive subjects.
        let threshold_ms = 115.0 - 25.0 * profile.attentiveness;
        let felt_difference = worst_gap_ms > threshold_ms;

        Questionnaire {
            subject: profile.id.clone(),
            gaming_experience: profile.gaming,
            racing_games: profile.racing_games,
            station_experience: profile.station,
            qoe,
            virtual_testing_useful: true,
            felt_difference,
        }
    }
}

/// Aggregated answers across subjects (§VI.F).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuestionnaireSummary {
    /// Subjects with any gaming experience.
    pub with_gaming_experience: usize,
    /// Subjects with *recent* gaming experience.
    pub with_recent_gaming: usize,
    /// Subjects with explicit racing-game experience.
    pub with_racing_games: usize,
    /// Subjects with no prior station experience.
    pub without_station_experience: usize,
    /// Mean QoE score.
    pub mean_qoe: f64,
    /// Minimum QoE score.
    pub min_qoe: u8,
    /// Maximum QoE score.
    pub max_qoe: u8,
    /// Subjects who consider virtual testing useful.
    pub virtual_testing_useful: usize,
    /// Subjects who felt the faults.
    pub felt_difference: usize,
    /// Total respondents.
    pub respondents: usize,
}

impl QuestionnaireSummary {
    /// Aggregates a set of answers.
    pub fn aggregate(answers: &[Questionnaire]) -> Self {
        if answers.is_empty() {
            return QuestionnaireSummary::default();
        }
        let mut s = QuestionnaireSummary {
            respondents: answers.len(),
            min_qoe: u8::MAX,
            ..QuestionnaireSummary::default()
        };
        let mut qoe_sum = 0u32;
        for a in answers {
            if a.gaming_experience != Experience::None {
                s.with_gaming_experience += 1;
            }
            if a.gaming_experience == Experience::Recent {
                s.with_recent_gaming += 1;
            }
            if a.racing_games {
                s.with_racing_games += 1;
            }
            if a.station_experience == Familiarity::None {
                s.without_station_experience += 1;
            }
            qoe_sum += u32::from(a.qoe);
            s.min_qoe = s.min_qoe.min(a.qoe);
            s.max_qoe = s.max_qoe.max(a.qoe);
            if a.virtual_testing_useful {
                s.virtual_testing_useful += 1;
            }
            if a.felt_difference {
                s.felt_difference += 1;
            }
        }
        s.mean_qoe = f64::from(qoe_sum) / answers.len() as f64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_core::ReceivedFrame;
    use rdsim_simulator::WorldSnapshot;
    use rdsim_units::{Seconds, SimTime};

    fn perception_with_gaps(gap_ms: u64, n: u64) -> PerceptionState {
        let mut p = PerceptionState::new(Seconds::new(0.5));
        for i in 0..n {
            let t = i * gap_ms;
            p.ingest(ReceivedFrame {
                snapshot: WorldSnapshot {
                    time: SimTime::from_millis(t),
                    frame_id: i,
                    ego: None,
                    others: Vec::new(),
                },
                captured_at: SimTime::from_millis(t),
                received_at: SimTime::from_millis(t + 5),
            });
        }
        p
    }

    #[test]
    fn smooth_run_scores_high() {
        let p = perception_with_gaps(40, 500);
        let profile = SubjectProfile::typical("T1");
        let mut rng = RngStream::from_seed(1).substream("q");
        let q = Questionnaire::answer(&profile, &p, &mut rng);
        assert!(q.qoe >= 3, "smooth feed should score 3–5, got {}", q.qoe);
        assert!(!q.felt_difference);
        assert!(q.virtual_testing_useful);
    }

    #[test]
    fn stuttering_run_scores_low_and_is_felt() {
        let p = perception_with_gaps(200, 500); // heavy frame skipping
        let profile = SubjectProfile::typical("T2");
        let mut rng = RngStream::from_seed(2).substream("q");
        let q = Questionnaire::answer(&profile, &p, &mut rng);
        assert!(
            q.qoe <= 3,
            "stuttering feed should score low, got {}",
            q.qoe
        );
        assert!(q.felt_difference);
    }

    #[test]
    fn profile_answers_passthrough() {
        let mut profile = SubjectProfile::typical("T3");
        profile.gaming = Experience::Recent;
        profile.racing_games = false;
        profile.station = Familiarity::Few;
        let p = perception_with_gaps(40, 10);
        let mut rng = RngStream::from_seed(3).substream("q");
        let q = Questionnaire::answer(&profile, &p, &mut rng);
        assert_eq!(q.gaming_experience, Experience::Recent);
        assert!(!q.racing_games);
        assert_eq!(q.station_experience, Familiarity::Few);
        assert_eq!(q.subject, "T3");
    }

    #[test]
    fn aggregate_summary() {
        let answers = vec![
            Questionnaire {
                subject: "A".into(),
                gaming_experience: Experience::Past,
                racing_games: true,
                station_experience: Familiarity::None,
                qoe: 2,
                virtual_testing_useful: true,
                felt_difference: true,
            },
            Questionnaire {
                subject: "B".into(),
                gaming_experience: Experience::Recent,
                racing_games: true,
                station_experience: Familiarity::Few,
                qoe: 4,
                virtual_testing_useful: true,
                felt_difference: false,
            },
            Questionnaire {
                subject: "C".into(),
                gaming_experience: Experience::None,
                racing_games: false,
                station_experience: Familiarity::None,
                qoe: 3,
                virtual_testing_useful: true,
                felt_difference: true,
            },
        ];
        let s = QuestionnaireSummary::aggregate(&answers);
        assert_eq!(s.respondents, 3);
        assert_eq!(s.with_gaming_experience, 2);
        assert_eq!(s.with_recent_gaming, 1);
        assert_eq!(s.with_racing_games, 2);
        assert_eq!(s.without_station_experience, 2);
        assert!((s.mean_qoe - 3.0).abs() < 1e-12);
        assert_eq!(s.min_qoe, 2);
        assert_eq!(s.max_qoe, 4);
        assert_eq!(s.virtual_testing_useful, 3);
        assert_eq!(s.felt_difference, 2);
    }

    #[test]
    fn empty_aggregate() {
        let s = QuestionnaireSummary::aggregate(&[]);
        assert_eq!(s.respondents, 0);
        assert_eq!(s.mean_qoe, 0.0);
    }
}

//! Subject profiles: the questionnaire-visible traits of a test subject
//! and their mapping to driver-model parameters.

use crate::DriverParams;
use rdsim_math::RngStream;
use rdsim_units::Seconds;

/// Video-gaming experience (questionnaire Q1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experience {
    /// No gaming background.
    None,
    /// Played in the past, not recently — 10 of the paper's 11 subjects.
    Past,
    /// Plays regularly — 1 of 11.
    Recent,
}

/// Prior experience with a driving station (Q3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Familiarity {
    /// Never used one — 6 subjects.
    None,
    /// Used one once — 2 subjects.
    Once,
    /// Used similar setups a few times — 3 subjects.
    Few,
}

/// Handedness / driving-side habit. The paper excluded T7 because the
/// subject was used to left-hand traffic, "which unduly affected the
/// ability to drive in our (right-hand) scenarios".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Handedness {
    /// Used to right-hand traffic (matches the scenarios).
    RightTraffic,
    /// Used to left-hand traffic (mismatched; degrades control).
    LeftTraffic,
}

/// A test subject: identity plus the traits the questionnaire asks about.
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectProfile {
    /// Subject label ("T1" … "T12").
    pub id: String,
    /// Gaming experience (Q1).
    pub gaming: Experience,
    /// Has played car-racing games specifically (Q2).
    pub racing_games: bool,
    /// Driving-station familiarity (Q3).
    pub station: Familiarity,
    /// Traffic-side habit.
    pub handedness: Handedness,
    /// Baseline attentiveness in `[0, 1]`; higher = steadier driver.
    pub attentiveness: f64,
}

impl SubjectProfile {
    /// A median subject (past gamer, racing games, no station experience).
    pub fn typical(id: impl Into<String>) -> Self {
        SubjectProfile {
            id: id.into(),
            gaming: Experience::Past,
            racing_games: true,
            station: Familiarity::None,
            handedness: Handedness::RightTraffic,
            attentiveness: 0.7,
        }
    }

    /// Derives driver-model parameters from the profile, with per-subject
    /// jitter drawn from `rng` (two subjects with identical traits still
    /// drive differently).
    pub fn driver_params(&self, rng: &mut RngStream) -> DriverParams {
        // Event (hazard/braking) reaction: gamers and station-experienced
        // subjects react faster; literature range ≈ 0.4–1.1 s.
        let base_reaction = match self.gaming {
            Experience::Recent => 0.45,
            Experience::Past => 0.60,
            Experience::None => 0.80,
        };
        let station_bonus = match self.station {
            Familiarity::Few => -0.08,
            Familiarity::Once => -0.04,
            Familiarity::None => 0.0,
        };
        let event_reaction =
            (base_reaction + station_bonus + rng.normal(0.0, 0.05)).clamp(0.35, 1.2);
        // Continuous visuomotor tracking latency is much shorter and less
        // variable (~0.2 s).
        let tracking =
            (0.16 + 0.10 * (1.0 - self.attentiveness) + rng.normal(0.0, 0.02)).clamp(0.12, 0.35);

        // Control-update cadence: attentive drivers correct more often.
        let update = (0.30 - 0.10 * self.attentiveness + rng.normal(0.0, 0.02)).clamp(0.12, 0.40);

        // Steering noise: lower with racing-game experience and station
        // familiarity; raised for left-traffic habit on right-hand roads.
        let mut noise = 0.005 + 0.005 * (1.0 - self.attentiveness);
        if !self.racing_games {
            noise += 0.003;
        }
        if self.station == Familiarity::None {
            noise += 0.0015;
        }
        if self.handedness == Handedness::LeftTraffic {
            noise += 0.008;
        }
        noise = (noise + rng.normal(0.0, 0.001)).max(0.002);

        let steer_bias = if self.handedness == Handedness::LeftTraffic {
            0.02
        } else {
            0.0
        };

        DriverParams {
            reaction_time: Seconds::new(tracking),
            event_reaction: Seconds::new(event_reaction),
            update_interval: Seconds::new(update),
            near_gain: 0.22 + rng.normal(0.0, 0.025),
            far_gain: 0.70 + rng.normal(0.0, 0.05),
            noise_std: noise,
            stale_noise_gain: 18.0,
            wheel_rate: 2.2 + 0.8 * self.attentiveness + rng.normal(0.0, 0.1),
            steer_deadband: 0.006 + rng.normal(0.0, 0.001).abs(),
            steer_bias,
            headway: Seconds::new(1.6 + rng.normal(0.0, 0.15)),
            extrapolation: 0.8,
            emergency_ttc: Seconds::new(1.8 + 0.4 * (1.0 - self.attentiveness)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::from_seed(9).substream("profile-test")
    }

    #[test]
    fn typical_profile() {
        let p = SubjectProfile::typical("T1");
        assert_eq!(p.id, "T1");
        assert_eq!(p.gaming, Experience::Past);
        assert!(p.racing_games);
        assert_eq!(p.handedness, Handedness::RightTraffic);
    }

    #[test]
    fn experienced_subjects_react_faster() {
        let mut gamer = SubjectProfile::typical("A");
        gamer.gaming = Experience::Recent;
        gamer.station = Familiarity::Few;
        let mut novice = SubjectProfile::typical("B");
        novice.gaming = Experience::None;
        novice.racing_games = false;
        // Average over jitter draws.
        let mean = |p: &SubjectProfile, label: &str| {
            let mut r = rng().substream(label);
            (0..200)
                .map(|_| p.driver_params(&mut r).event_reaction.get())
                .sum::<f64>()
                / 200.0
        };
        assert!(mean(&gamer, "g") + 0.2 < mean(&novice, "n"));
    }

    #[test]
    fn left_traffic_habit_raises_noise_and_bias() {
        let mut left = SubjectProfile::typical("T7");
        left.handedness = Handedness::LeftTraffic;
        let right = SubjectProfile::typical("T6");
        let mut r1 = rng().substream("l");
        let mut r2 = rng().substream("r");
        let pl = left.driver_params(&mut r1);
        let pr = right.driver_params(&mut r2);
        assert!(pl.noise_std > pr.noise_std);
        assert!(pl.steer_bias > 0.0);
        assert_eq!(pr.steer_bias, 0.0);
    }

    #[test]
    fn params_within_sane_ranges() {
        let mut r = rng();
        for i in 0..500 {
            let mut p = SubjectProfile::typical(format!("S{i}"));
            p.attentiveness = (i as f64 / 500.0).clamp(0.0, 1.0);
            let d = p.driver_params(&mut r);
            assert!((0.12..=0.35).contains(&d.reaction_time.get()));
            assert!((0.35..=1.2).contains(&d.event_reaction.get()));
            assert!(d.event_reaction > d.reaction_time);
            assert!((0.12..=0.40).contains(&d.update_interval.get()));
            assert!(d.noise_std > 0.0);
            assert!(d.wheel_rate > 1.0);
            assert!(d.headway.get() > 0.5);
        }
    }

    #[test]
    fn params_deterministic_per_stream() {
        let p = SubjectProfile::typical("T5");
        let draw = || {
            let mut r = RngStream::from_seed(42).substream("T5");
            p.driver_params(&mut r)
        };
        assert_eq!(format!("{:?}", draw()), format!("{:?}", draw()));
    }
}

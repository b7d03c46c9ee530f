//! The run log: the paper's §V.F data-logging schema.

use rdsim_math::Sample;
use rdsim_math::Vec2;
use rdsim_netem::InjectionEvent;
use rdsim_simulator::{ActorId, CollisionEvent, LaneInvasionEvent};
use rdsim_units::{Meters, MetersPerSecond, MetersPerSecond2, SimDuration, SimTime};

/// The ego's view of its lead vehicle at a sample instant, captured so TTC
/// can be computed offline exactly as the paper does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadObservation {
    /// The lead vehicle's actor id.
    pub actor: ActorId,
    /// Along-lane gap between vehicle centres.
    pub gap: Meters,
    /// Closing speed (ego speed − lead speed; positive = approaching).
    pub closing_speed: MetersPerSecond,
}

/// One ego-vehicle log sample: "timestamp, x, y, z, vx, vy, vz, ax, ay,
/// az, throttle, steer, brake" (z components identically zero in 2-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoSample {
    /// Sample time.
    pub t: SimTime,
    /// Camera frame id current at the sample.
    pub frame: u64,
    /// World position.
    pub position: Vec2,
    /// World-frame velocity.
    pub velocity: Vec2,
    /// Longitudinal speed.
    pub speed: MetersPerSecond,
    /// Longitudinal acceleration.
    pub accel: MetersPerSecond2,
    /// Applied throttle, `0..=1`.
    pub throttle: f64,
    /// Applied steering, `-1..=1`.
    pub steer: f64,
    /// Applied brake, `0..=1`.
    pub brake: f64,
    /// Lead-vehicle observation, when one is within the logging horizon.
    pub lead: Option<LeadObservation>,
}

/// One other-vehicle sample: "actor, timestamp, distance from ego, …".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtherSample {
    /// The observed actor.
    pub actor: ActorId,
    /// Sample time.
    pub t: SimTime,
    /// Camera frame id current at the sample.
    pub frame: u64,
    /// Straight-line distance from the ego.
    pub distance_from_ego: Meters,
    /// World position.
    pub position: Vec2,
    /// Longitudinal speed.
    pub speed: MetersPerSecond,
}

/// What kind of safety incident an [`IncidentMark`] flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The ego collided with another actor.
    Collision,
    /// Time-to-collision against the lead vehicle dropped below the 6 s
    /// criticality threshold (entry edge only; one mark per excursion).
    TtcBreach,
    /// A fault-injection rule was added or deleted.
    FaultEdge,
}

impl IncidentKind {
    /// Short lower-case label, stable for file names and trace output.
    pub fn label(self) -> &'static str {
        match self {
            IncidentKind::Collision => "collision",
            IncidentKind::TtcBreach => "ttc-breach",
            IncidentKind::FaultEdge => "fault-edge",
        }
    }
}

/// A timestamped safety-incident marker. The session emits one per
/// collision, per TTC-threshold breach entry, and per fault-window edge;
/// incident dumps window the flight recorder around these instants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncidentMark {
    /// What happened.
    pub kind: IncidentKind,
    /// When it happened.
    pub time: SimTime,
}

/// A complete run recording (§V.F): collisions, lane invasions, ego and
/// other-vehicle trajectories, the fault-injection event log, and the
/// session's incident marks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    ego: Vec<EgoSample>,
    others: Vec<OtherSample>,
    collisions: Vec<CollisionEvent>,
    lane_invasions: Vec<LaneInvasionEvent>,
    faults: Vec<InjectionEvent>,
    incidents: Vec<IncidentMark>,
    duration: SimDuration,
}

impl RunLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RunLog::default()
    }

    /// Assembles a log from recorded parts — for importing externally
    /// recorded runs (or building fixtures in downstream tests).
    pub fn from_parts(
        ego: Vec<EgoSample>,
        others: Vec<OtherSample>,
        collisions: Vec<CollisionEvent>,
        lane_invasions: Vec<LaneInvasionEvent>,
        faults: Vec<InjectionEvent>,
        duration: SimDuration,
    ) -> Self {
        RunLog {
            ego,
            others,
            collisions,
            lane_invasions,
            faults,
            incidents: Vec::new(),
            duration,
        }
    }

    /// Reserves room for `ego` more ego samples and `others` more
    /// other-vehicle samples, so a run of known length logs without
    /// growing mid-step.
    pub fn reserve_samples(&mut self, ego: usize, others: usize) {
        self.ego.reserve(ego);
        self.others.reserve(others);
    }

    /// Reserves room for `events` more collisions and as many more lane
    /// invasions.
    pub fn reserve_events(&mut self, events: usize) {
        self.collisions.reserve(events);
        self.lane_invasions.reserve(events);
    }

    pub(crate) fn push_ego(&mut self, sample: EgoSample) {
        self.ego.push(sample);
    }

    pub(crate) fn push_other(&mut self, sample: OtherSample) {
        self.others.push(sample);
    }

    pub(crate) fn extend_collisions(&mut self, events: impl IntoIterator<Item = CollisionEvent>) {
        self.collisions.extend(events);
    }

    pub(crate) fn extend_lane_invasions(
        &mut self,
        events: impl IntoIterator<Item = LaneInvasionEvent>,
    ) {
        self.lane_invasions.extend(events);
    }

    pub(crate) fn set_faults(&mut self, faults: Vec<InjectionEvent>) {
        self.faults = faults;
    }

    pub(crate) fn set_incidents(&mut self, incidents: Vec<IncidentMark>) {
        self.incidents = incidents;
    }

    pub(crate) fn set_duration(&mut self, duration: SimDuration) {
        self.duration = duration;
    }

    /// Ego trajectory samples in time order.
    pub fn ego_samples(&self) -> &[EgoSample] {
        &self.ego
    }

    /// Other-vehicle samples in time order.
    pub fn other_samples(&self) -> &[OtherSample] {
        &self.others
    }

    /// Collision events.
    pub fn collisions(&self) -> &[CollisionEvent] {
        &self.collisions
    }

    /// Lane-invasion events.
    pub fn lane_invasions(&self) -> &[LaneInvasionEvent] {
        &self.lane_invasions
    }

    /// Fault-injection events (timestamp, rule, added/deleted).
    pub fn fault_events(&self) -> &[InjectionEvent] {
        &self.faults
    }

    /// Safety-incident marks (collisions, TTC breaches, fault edges) in
    /// emission order.
    pub fn incidents(&self) -> &[IncidentMark] {
        &self.incidents
    }

    /// Total run duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// `true` if at least one collision was recorded.
    pub fn collided(&self) -> bool {
        !self.collisions.is_empty()
    }

    /// The steering time series (t seconds, applied steer), the input to
    /// the SRR metric.
    pub fn steering_series(&self) -> Vec<Sample> {
        self.ego
            .iter()
            .map(|s| Sample::new(s.t.as_secs_f64(), s.steer))
            .collect()
    }

    /// The speed time series (t seconds, m/s).
    pub fn speed_series(&self) -> Vec<Sample> {
        self.ego
            .iter()
            .map(|s| Sample::new(s.t.as_secs_f64(), s.speed.get()))
            .collect()
    }

    /// The throttle and brake series (driving-profile analysis, §VI.E).
    pub fn pedal_series(&self) -> (Vec<Sample>, Vec<Sample>) {
        let throttle = self
            .ego
            .iter()
            .map(|s| Sample::new(s.t.as_secs_f64(), s.throttle))
            .collect();
        let brake = self
            .ego
            .iter()
            .map(|s| Sample::new(s.t.as_secs_f64(), s.brake))
            .collect();
        (throttle, brake)
    }

    /// Drops all steering values, simulating the recording failures the
    /// paper reports for T3/T8/T10/T12 ("some data were not recorded
    /// properly due to technical issues").
    pub fn redact_steering(&mut self) {
        for s in &mut self.ego {
            s.steer = f64::NAN;
        }
    }

    /// Drops lead-vehicle observations (the missing dynamic-vehicle
    /// velocity of T1–T4, which voids TTC analysis).
    pub fn redact_lead_observations(&mut self) {
        for s in &mut self.ego {
            s.lead = None;
        }
        self.others.clear();
    }

    /// `true` if steering data survived recording.
    pub fn has_steering_data(&self) -> bool {
        self.ego.iter().any(|s| s.steer.is_finite())
    }

    /// `true` if lead-vehicle observations survived recording.
    pub fn has_lead_data(&self) -> bool {
        self.ego.iter().any(|s| s.lead.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ms: u64, steer: f64) -> EgoSample {
        EgoSample {
            t: SimTime::from_millis(t_ms),
            frame: t_ms / 40,
            position: Vec2::new(t_ms as f64, 0.0),
            velocity: Vec2::new(10.0, 0.0),
            speed: MetersPerSecond::new(10.0),
            accel: MetersPerSecond2::ZERO,
            throttle: 0.5,
            steer,
            brake: 0.0,
            lead: Some(LeadObservation {
                actor: ActorId(1),
                gap: Meters::new(30.0),
                closing_speed: MetersPerSecond::new(1.0),
            }),
        }
    }

    #[test]
    fn series_extraction() {
        let mut log = RunLog::new();
        log.push_ego(sample(0, 0.1));
        log.push_ego(sample(20, -0.2));
        log.set_duration(SimDuration::from_millis(40));
        let steer = log.steering_series();
        assert_eq!(steer.len(), 2);
        assert_eq!(steer[1].value, -0.2);
        assert!((steer[1].t - 0.02).abs() < 1e-12);
        let speed = log.speed_series();
        assert_eq!(speed[0].value, 10.0);
        let (thr, brk) = log.pedal_series();
        assert_eq!(thr[0].value, 0.5);
        assert_eq!(brk[0].value, 0.0);
        assert_eq!(log.duration(), SimDuration::from_millis(40));
    }

    #[test]
    fn redactions_mirror_paper_data_losses() {
        let mut log = RunLog::new();
        log.push_ego(sample(0, 0.1));
        log.push_other(OtherSample {
            actor: ActorId(1),
            t: SimTime::ZERO,
            frame: 0,
            distance_from_ego: Meters::new(30.0),
            position: Vec2::new(30.0, 0.0),
            speed: MetersPerSecond::new(9.0),
        });
        assert!(log.has_steering_data());
        assert!(log.has_lead_data());
        log.redact_steering();
        assert!(!log.has_steering_data());
        assert!(log.has_lead_data());
        log.redact_lead_observations();
        assert!(!log.has_lead_data());
        assert!(log.other_samples().is_empty());
    }

    #[test]
    fn collided_flag() {
        let mut log = RunLog::new();
        assert!(!log.collided());
        log.extend_collisions([CollisionEvent {
            time: SimTime::ZERO,
            frame_id: 0,
            ego: ActorId(0),
            other: ActorId(1),
            relative_speed: MetersPerSecond::new(5.0),
        }]);
        assert!(log.collided());
        assert_eq!(log.collisions().len(), 1);
    }
}

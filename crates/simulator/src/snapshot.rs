//! World snapshots: what a "video frame" semantically shows the operator.

use crate::{ActorId, ActorKind};
use rdsim_math::Pose2;
use rdsim_units::{Meters, MetersPerSecond, SimTime};
use serde::{Deserialize, Serialize};

/// One actor as visible in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActorSnapshot {
    /// Actor id.
    pub id: ActorId,
    /// Actor kind.
    pub kind: ActorKind,
    /// Pose at capture time.
    pub pose: Pose2,
    /// Longitudinal speed at capture time.
    pub speed: MetersPerSecond,
    /// Body length.
    pub length: Meters,
    /// Body width.
    pub width: Meters,
}

impl ActorSnapshot {
    /// Straight-line distance between two snapshots' positions.
    pub fn distance_to(&self, other: &ActorSnapshot) -> Meters {
        self.pose.position.distance_m(other.pose.position)
    }
}

/// A full scene description at one capture instant.
///
/// The camera serialises a snapshot into every [`crate::VideoFrame`]; the
/// operator model "sees" whatever the most recently *delivered* frame
/// contains — which is exactly how network delay and loss degrade the
/// operator's situational awareness.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct WorldSnapshot {
    /// Capture time.
    pub time: SimTime,
    /// Monotone frame counter.
    pub frame_id: u64,
    /// The ego vehicle (if one is spawned).
    pub ego: Option<ActorSnapshot>,
    /// Every other actor.
    pub others: Vec<ActorSnapshot>,
}

impl Clone for WorldSnapshot {
    fn clone(&self) -> Self {
        WorldSnapshot {
            time: self.time,
            frame_id: self.frame_id,
            ego: self.ego,
            others: self.others.clone(),
        }
    }

    /// Copies into the existing `others` allocation.
    fn clone_from(&mut self, source: &Self) {
        self.time = source.time;
        self.frame_id = source.frame_id;
        self.ego = source.ego;
        self.others.clone_from(&source.others);
    }
}

impl WorldSnapshot {
    /// Looks up an actor snapshot by id (ego included).
    pub fn actor(&self, id: ActorId) -> Option<&ActorSnapshot> {
        if let Some(ego) = &self.ego {
            if ego.id == id {
                return Some(ego);
            }
        }
        self.others.iter().find(|a| a.id == id)
    }

    /// All dynamic vehicles except the ego (candidates for TTC analysis).
    pub fn other_vehicles(&self) -> impl Iterator<Item = &ActorSnapshot> {
        self.others
            .iter()
            .filter(|a| matches!(a.kind, ActorKind::Vehicle))
    }

    /// Total number of actors in the snapshot.
    pub fn actor_count(&self) -> usize {
        self.others.len() + usize::from(self.ego.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_math::Vec2;
    use rdsim_units::Radians;

    fn snap(id: u32, kind: ActorKind, x: f64) -> ActorSnapshot {
        ActorSnapshot {
            id: ActorId(id),
            kind,
            pose: Pose2::new(Vec2::new(x, 0.0), Radians::new(0.0)),
            speed: MetersPerSecond::new(10.0),
            length: Meters::new(4.6),
            width: Meters::new(1.85),
        }
    }

    #[test]
    fn lookup_by_id() {
        let ws = WorldSnapshot {
            time: SimTime::from_secs(1),
            frame_id: 42,
            ego: Some(snap(0, ActorKind::Ego, 0.0)),
            others: vec![
                snap(1, ActorKind::Vehicle, 30.0),
                snap(2, ActorKind::Cyclist, 60.0),
            ],
        };
        assert_eq!(ws.actor(ActorId(0)).unwrap().kind, ActorKind::Ego);
        assert_eq!(ws.actor(ActorId(2)).unwrap().kind, ActorKind::Cyclist);
        assert!(ws.actor(ActorId(9)).is_none());
        assert_eq!(ws.actor_count(), 3);
    }

    #[test]
    fn other_vehicles_filters_kinds() {
        let ws = WorldSnapshot {
            time: SimTime::ZERO,
            frame_id: 0,
            ego: Some(snap(0, ActorKind::Ego, 0.0)),
            others: vec![
                snap(1, ActorKind::Vehicle, 30.0),
                snap(2, ActorKind::Cyclist, 60.0),
                snap(3, ActorKind::Prop, 90.0),
                snap(4, ActorKind::Vehicle, 120.0),
            ],
        };
        let ids: Vec<u32> = ws.other_vehicles().map(|a| a.id.0).collect();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn distance() {
        let a = snap(0, ActorKind::Ego, 0.0);
        let b = snap(1, ActorKind::Vehicle, 40.0);
        assert_eq!(a.distance_to(&b), Meters::new(40.0));
    }
}

//! The optional infrastructure subsystem (§III.A): roadside sensing that
//! augments the operator's environment perception.

use rdsim_math::Vec2;
use rdsim_simulator::{ActorSnapshot, WorldSnapshot};
use rdsim_units::Meters;

/// A roadside sensing unit: sees every actor within `range` of its
/// position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadsideUnit {
    /// Unit position.
    pub position: Vec2,
    /// Sensing radius.
    pub range: Meters,
}

impl RoadsideUnit {
    /// Creates a unit.
    pub fn new(position: Vec2, range: Meters) -> Self {
        RoadsideUnit { position, range }
    }

    /// `true` if the unit can see the given actor.
    pub fn sees(&self, actor: &ActorSnapshot) -> bool {
        actor.pose.position.distance(self.position) <= self.range.get()
    }
}

/// The infrastructure subsystem: a set of roadside units whose
/// observations are merged into the frames shown to the operator,
/// "improving the environment perception by providing more sensor data
/// from additional sources than the vehicle subsystem".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InfrastructureSubsystem {
    units: Vec<RoadsideUnit>,
    /// Vehicle-camera visibility radius around the ego; actors beyond it
    /// are only visible through roadside units.
    vehicle_visibility: Option<Meters>,
}

impl InfrastructureSubsystem {
    /// Creates an empty subsystem (no units: frames pass through).
    pub fn new() -> Self {
        InfrastructureSubsystem::default()
    }

    /// Adds a roadside unit.
    pub fn add_unit(&mut self, unit: RoadsideUnit) -> &mut Self {
        self.units.push(unit);
        self
    }

    /// Limits what the vehicle's own camera sees, so infrastructure
    /// coverage becomes observable in the merged view.
    pub fn set_vehicle_visibility(&mut self, radius: Option<Meters>) {
        self.vehicle_visibility = radius;
    }

    /// The configured units.
    pub fn units(&self) -> &[RoadsideUnit] {
        &self.units
    }

    /// Merges infrastructure observations into a vehicle-camera snapshot:
    /// actors outside the vehicle's visibility are retained only if some
    /// roadside unit sees them.
    pub fn augment(&self, snapshot: &WorldSnapshot) -> WorldSnapshot {
        let Some(visibility) = self.vehicle_visibility else {
            // Unlimited vehicle camera: nothing to add or remove.
            return snapshot.clone();
        };
        let ego_pos = snapshot.ego.as_ref().map(|e| e.pose.position);
        let visible = |a: &ActorSnapshot| -> bool {
            let by_vehicle = ego_pos
                .map(|p| a.pose.position.distance(p) <= visibility.get())
                .unwrap_or(false);
            by_vehicle || self.units.iter().any(|u| u.sees(a))
        };
        WorldSnapshot {
            time: snapshot.time,
            frame_id: snapshot.frame_id,
            ego: snapshot.ego,
            others: snapshot
                .others
                .iter()
                .filter(|a| visible(a))
                .copied()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_math::Pose2;
    use rdsim_simulator::{ActorId, ActorKind};
    use rdsim_units::{MetersPerSecond, Radians, SimTime};

    fn actor(id: u32, x: f64) -> ActorSnapshot {
        ActorSnapshot {
            id: ActorId(id),
            kind: ActorKind::Vehicle,
            pose: Pose2::new(Vec2::new(x, 0.0), Radians::new(0.0)),
            speed: MetersPerSecond::ZERO,
            length: Meters::new(4.6),
            width: Meters::new(1.85),
        }
    }

    fn scene() -> WorldSnapshot {
        WorldSnapshot {
            time: SimTime::ZERO,
            frame_id: 1,
            ego: Some(actor(0, 0.0)),
            others: vec![actor(1, 30.0), actor(2, 200.0), actor(3, 400.0)],
        }
    }

    #[test]
    fn no_units_unlimited_visibility_passthrough() {
        let infra = InfrastructureSubsystem::new();
        assert_eq!(infra.augment(&scene()), scene());
    }

    #[test]
    fn limited_vehicle_camera_hides_far_actors() {
        let mut infra = InfrastructureSubsystem::new();
        infra.set_vehicle_visibility(Some(Meters::new(100.0)));
        let out = infra.augment(&scene());
        let ids: Vec<u32> = out.others.iter().map(|a| a.id.0).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn roadside_unit_restores_coverage() {
        let mut infra = InfrastructureSubsystem::new();
        infra.set_vehicle_visibility(Some(Meters::new(100.0)));
        infra.add_unit(RoadsideUnit::new(Vec2::new(200.0, 0.0), Meters::new(50.0)));
        let out = infra.augment(&scene());
        let ids: Vec<u32> = out.others.iter().map(|a| a.id.0).collect();
        assert_eq!(ids, vec![1, 2], "unit at x=200 restores actor 2 only");
        assert_eq!(infra.units().len(), 1);
    }

    #[test]
    fn unit_visibility_radius() {
        let unit = RoadsideUnit::new(Vec2::new(100.0, 0.0), Meters::new(50.0));
        assert!(unit.sees(&actor(1, 120.0)));
        assert!(unit.sees(&actor(1, 150.0)));
        assert!(!unit.sees(&actor(1, 151.0)));
    }
}

//! Actors: everything that exists in the simulated world.

use crate::traffic::LaneFollowConfig;
use rdsim_vehicle::{ControlInput, KinematicBicycle, VehicleSpec, VehicleState};
use std::fmt;

/// Identifier of an actor within a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ActorId(pub u32);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Category of road user, mirroring CARLA's blueprint families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorKind {
    /// The remotely driven ego vehicle.
    Ego,
    /// Another motor vehicle (dynamic or parked).
    Vehicle,
    /// A cyclist (the paper's "false" intervention cases).
    Cyclist,
    /// A static prop (cones, debris).
    Prop,
}

impl fmt::Display for ActorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ActorKind::Ego => "ego",
            ActorKind::Vehicle => "vehicle",
            ActorKind::Cyclist => "cyclist",
            ActorKind::Prop => "prop",
        })
    }
}

/// How an actor decides its controls each step.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Controlled externally via [`crate::World::set_external_control`]
    /// (the ego vehicle, driven over the RDS link).
    External,
    /// Never moves (parked vehicles, props).
    Stationary,
    /// Follows lanes with IDM car-following and lane-keeping steering
    /// (dynamic NPC traffic, cyclists).
    LaneFollow(LaneFollowConfig),
}

/// A simulated road user.
#[derive(Debug, Clone)]
pub struct Actor {
    id: ActorId,
    kind: ActorKind,
    behavior: Behavior,
    model: KinematicBicycle,
    state: VehicleState,
    /// Most recent externally supplied control (for `Behavior::External`).
    pub(crate) external_control: ControlInput,
    /// The control actually applied in the last step (logged).
    pub(crate) applied_control: ControlInput,
}

impl Actor {
    pub(crate) fn new(
        id: ActorId,
        kind: ActorKind,
        spec: VehicleSpec,
        behavior: Behavior,
        state: VehicleState,
    ) -> Self {
        Actor {
            id,
            kind,
            behavior,
            model: KinematicBicycle::new(spec),
            state,
            external_control: ControlInput::COAST,
            applied_control: ControlInput::COAST,
        }
    }

    /// The actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// The actor's kind.
    pub fn kind(&self) -> ActorKind {
        self.kind
    }

    /// The actor's behaviour.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// Physical parameters.
    pub fn spec(&self) -> &VehicleSpec {
        self.model.spec()
    }

    /// Current dynamic state.
    pub fn state(&self) -> &VehicleState {
        &self.state
    }

    /// The control applied on the most recent step.
    pub fn applied_control(&self) -> &ControlInput {
        &self.applied_control
    }

    /// `true` for behaviours that never move.
    pub fn is_stationary_behavior(&self) -> bool {
        matches!(self.behavior, Behavior::Stationary)
    }

    pub(crate) fn integrate(&mut self, input: &ControlInput, dt: rdsim_units::Seconds) {
        self.applied_control = *input;
        if self.is_stationary_behavior() {
            return;
        }
        self.state = self.model.step(&self.state, input, dt);
    }

    pub(crate) fn set_state(&mut self, state: VehicleState) {
        self.state = state;
    }

    pub(crate) fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_math::Pose2;
    use rdsim_units::Seconds;

    fn actor(behavior: Behavior) -> Actor {
        Actor::new(
            ActorId(1),
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            behavior,
            VehicleState::at_pose(Pose2::default()),
        )
    }

    #[test]
    fn accessors() {
        let a = actor(Behavior::External);
        assert_eq!(a.id(), ActorId(1));
        assert_eq!(a.kind(), ActorKind::Vehicle);
        assert_eq!(a.behavior(), &Behavior::External);
        assert_eq!(a.spec().name(), "passenger-car");
        assert!(a.state().is_stationary());
        assert_eq!(format!("{}", a.id()), "actor#1");
        assert_eq!(format!("{}", ActorKind::Cyclist), "cyclist");
    }

    #[test]
    fn stationary_actor_never_moves() {
        let mut a = actor(Behavior::Stationary);
        for _ in 0..100 {
            a.integrate(&ControlInput::full_throttle(), Seconds::new(0.02));
        }
        assert!(a.state().is_stationary());
        assert!(a.is_stationary_behavior());
    }

    #[test]
    fn external_actor_integrates() {
        let mut a = actor(Behavior::External);
        for _ in 0..100 {
            a.integrate(&ControlInput::full_throttle(), Seconds::new(0.02));
        }
        assert!(a.state().speed.get() > 1.0);
        assert_eq!(a.applied_control(), &ControlInput::full_throttle());
    }
}

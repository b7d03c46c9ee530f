//! Lanes and positions along them.

use crate::Polyline;
use rdsim_math::Pose2;
use rdsim_units::{Meters, MetersPerSecond};
use std::fmt;

/// Identifier of a lane within a [`crate::RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LaneId(pub u32);

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lane#{}", self.0)
    }
}

/// What kind of traffic a lane carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneKind {
    /// Ordinary driving lane.
    #[default]
    Driving,
    /// Highway lane (higher speed limit, no oncoming traffic adjacent).
    Highway,
    /// Shoulder / parking strip — drivable but invading it is logged.
    Shoulder,
    /// Bicycle lane.
    Bicycle,
}

/// A single lane: centreline geometry plus graph topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    id: LaneId,
    kind: LaneKind,
    centerline: Polyline,
    width: Meters,
    speed_limit: MetersPerSecond,
    successors: Vec<LaneId>,
    left_neighbor: Option<LaneId>,
    right_neighbor: Option<LaneId>,
}

impl Lane {
    /// Creates a lane. Topology (successors/neighbours) is attached by the
    /// [`crate::RoadNetworkBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive or `speed_limit` is negative.
    pub fn new(
        id: LaneId,
        kind: LaneKind,
        centerline: Polyline,
        width: Meters,
        speed_limit: MetersPerSecond,
    ) -> Self {
        assert!(width.get() > 0.0, "lane width must be positive");
        assert!(speed_limit.get() >= 0.0, "speed limit must be non-negative");
        Lane {
            id,
            kind,
            centerline,
            width,
            speed_limit,
            successors: Vec::new(),
            left_neighbor: None,
            right_neighbor: None,
        }
    }

    /// The lane's id.
    pub fn id(&self) -> LaneId {
        self.id
    }

    /// The lane's kind.
    pub fn kind(&self) -> LaneKind {
        self.kind
    }

    /// The centreline geometry.
    pub fn centerline(&self) -> &Polyline {
        &self.centerline
    }

    /// Lane width.
    pub fn width(&self) -> Meters {
        self.width
    }

    /// Posted speed limit.
    pub fn speed_limit(&self) -> MetersPerSecond {
        self.speed_limit
    }

    /// Length of the lane along its centreline.
    pub fn length(&self) -> Meters {
        self.centerline.length()
    }

    /// Lanes that continue from the end of this one.
    pub fn successors(&self) -> &[LaneId] {
        &self.successors
    }

    /// The adjacent lane to the left (same direction), if any.
    pub fn left_neighbor(&self) -> Option<LaneId> {
        self.left_neighbor
    }

    /// The adjacent lane to the right (same direction), if any.
    pub fn right_neighbor(&self) -> Option<LaneId> {
        self.right_neighbor
    }

    /// The pose of the centreline at arc length `s`.
    pub fn pose_at(&self, s: Meters) -> Pose2 {
        self.centerline.pose_at(s)
    }

    /// `true` if a lateral offset is outside the lane boundaries.
    pub fn is_outside(&self, lateral: Meters) -> bool {
        lateral.get().abs() > self.width.get() / 2.0
    }

    pub(crate) fn push_successor(&mut self, id: LaneId) {
        if !self.successors.contains(&id) {
            self.successors.push(id);
        }
    }

    pub(crate) fn set_left_neighbor(&mut self, id: Option<LaneId>) {
        self.left_neighbor = id;
    }

    pub(crate) fn set_right_neighbor(&mut self, id: Option<LaneId>) {
        self.right_neighbor = id;
    }
}

/// A position along a specific lane: `(lane, s)` with `s` the arc length
/// from the lane start.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LanePosition {
    /// The lane.
    pub lane: LaneId,
    /// Arc length from the lane start.
    pub s: Meters,
}

impl LanePosition {
    /// Creates a lane position.
    pub const fn new(lane: LaneId, s: Meters) -> Self {
        LanePosition { lane, s }
    }
}

impl fmt::Display for LanePosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{:.1}", self.lane, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_math::Vec2;

    fn lane() -> Lane {
        Lane::new(
            LaneId(3),
            LaneKind::Driving,
            Polyline::straight(Vec2::ZERO, Vec2::new(100.0, 0.0), Meters::new(2.0)),
            Meters::new(3.5),
            MetersPerSecond::from_kmh(50.0),
        )
    }

    #[test]
    fn accessors() {
        let l = lane();
        assert_eq!(l.id(), LaneId(3));
        assert_eq!(l.kind(), LaneKind::Driving);
        assert!((l.length().get() - 100.0).abs() < 1e-9);
        assert_eq!(l.width(), Meters::new(3.5));
        assert!((l.speed_limit().to_kmh() - 50.0).abs() < 1e-9);
        assert!(l.successors().is_empty());
        assert_eq!(l.left_neighbor(), None);
        assert_eq!(l.right_neighbor(), None);
    }

    #[test]
    fn boundary_check() {
        let l = lane();
        assert!(!l.is_outside(Meters::new(1.7)));
        assert!(l.is_outside(Meters::new(1.8)));
        assert!(l.is_outside(Meters::new(-1.8)));
    }

    #[test]
    fn successor_dedup() {
        let mut l = lane();
        l.push_successor(LaneId(5));
        l.push_successor(LaneId(5));
        l.push_successor(LaneId(6));
        assert_eq!(l.successors(), &[LaneId(5), LaneId(6)]);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = Lane::new(
            LaneId(0),
            LaneKind::Driving,
            Polyline::straight(Vec2::ZERO, Vec2::new(1.0, 0.0), Meters::new(1.0)),
            Meters::ZERO,
            MetersPerSecond::new(10.0),
        );
    }

    #[test]
    fn lane_position_display() {
        let p = LanePosition::new(LaneId(2), Meters::new(12.34));
        assert_eq!(format!("{p}"), "lane#2@12.3 m");
    }
}

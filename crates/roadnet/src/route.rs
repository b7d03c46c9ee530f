//! Routes: ordered lane sequences and cursors that advance along them.

use crate::{LaneId, LanePosition, RoadNetwork};
use rdsim_units::Meters;

/// An ordered sequence of lanes a driver is instructed to follow.
///
/// Consecutive lanes must be connected either as successor or as left/right
/// neighbours (a neighbour step models an instructed lane change, as the
/// paper's test leader gave turn/lane instructions during the runs).
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    lanes: Vec<LaneId>,
}

impl Route {
    /// Creates a route from a lane sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty.
    pub fn new(lanes: Vec<LaneId>) -> Self {
        assert!(!lanes.is_empty(), "route must contain at least one lane");
        Route { lanes }
    }

    /// The lane sequence.
    pub fn lanes(&self) -> &[LaneId] {
        &self.lanes
    }

    /// First lane of the route.
    pub fn first(&self) -> LaneId {
        self.lanes[0]
    }

    /// Last lane of the route.
    pub fn last(&self) -> LaneId {
        *self.lanes.last().expect("non-empty")
    }

    /// Validates connectivity against a network: every consecutive pair
    /// must be successor- or neighbour-connected.
    ///
    /// Returns the index of the first broken link, or `None` if valid.
    pub fn validate(&self, net: &RoadNetwork) -> Option<usize> {
        for (i, pair) in self.lanes.windows(2).enumerate() {
            let cur = net.lane(pair[0]);
            let next = pair[1];
            let connected = cur.successors().contains(&next)
                || cur.left_neighbor() == Some(next)
                || cur.right_neighbor() == Some(next);
            if !connected {
                return Some(i);
            }
        }
        None
    }

    /// Index of `lane` in the route, if present.
    pub fn position_of(&self, lane: LaneId) -> Option<usize> {
        self.lanes.iter().position(|&l| l == lane)
    }
}

/// Tracks progress along a [`Route`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteCursor {
    route: Route,
    index: usize,
}

impl RouteCursor {
    /// Starts a cursor at the beginning of a route.
    pub fn new(route: Route) -> Self {
        RouteCursor { route, index: 0 }
    }

    /// The underlying route.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The lane the cursor currently targets.
    pub fn current_lane(&self) -> LaneId {
        self.route.lanes[self.index]
    }

    /// The next lane on the route, if any.
    pub fn next_lane(&self) -> Option<LaneId> {
        self.route.lanes.get(self.index + 1).copied()
    }

    /// `true` once the cursor has reached the final lane.
    pub fn on_final_lane(&self) -> bool {
        self.index + 1 == self.route.lanes.len()
    }

    /// Updates the cursor from an observed lane (e.g. the lane the vehicle
    /// actually occupies). If the observed lane appears later in the route,
    /// the cursor jumps forward to it. Returns `true` if the cursor moved.
    pub fn observe_lane(&mut self, lane: LaneId) -> bool {
        if let Some(pos) = self.route.lanes[self.index..]
            .iter()
            .position(|&l| l == lane)
        {
            if pos > 0 {
                self.index += pos;
                return true;
            }
        }
        false
    }

    /// The remaining lanes including the current one.
    pub fn remaining(&self) -> &[LaneId] {
        &self.route.lanes[self.index..]
    }

    /// Distance from `pos` to the end of the route, following the route's
    /// lanes, if `pos` is on the current lane.
    pub fn distance_to_end(&self, net: &RoadNetwork, pos: LanePosition) -> Option<Meters> {
        if pos.lane != self.current_lane() {
            return None;
        }
        let mut total = net.lane(pos.lane).length() - pos.s;
        for &lane in &self.route.lanes[self.index + 1..] {
            total += net.lane(lane).length();
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneKind, Polyline, RoadNetworkBuilder};
    use rdsim_math::Vec2;
    use rdsim_units::MetersPerSecond;

    fn net_three() -> (RoadNetwork, LaneId, LaneId, LaneId) {
        let mut b = RoadNetworkBuilder::new("r");
        let a = b.add_lane(
            LaneKind::Driving,
            Polyline::straight(Vec2::ZERO, Vec2::new(100.0, 0.0), Meters::new(2.0)),
            Meters::new(3.5),
            MetersPerSecond::new(14.0),
        );
        let c = b.add_lane(
            LaneKind::Driving,
            Polyline::straight(
                Vec2::new(100.0, 0.0),
                Vec2::new(200.0, 0.0),
                Meters::new(2.0),
            ),
            Meters::new(3.5),
            MetersPerSecond::new(14.0),
        );
        b.connect(a, c);
        let left = b.add_parallel_lane(c, Meters::new(3.5));
        (b.build(), a, c, left)
    }

    #[test]
    fn route_validation() {
        let (net, a, c, left) = net_three();
        assert_eq!(Route::new(vec![a, c]).validate(&net), None);
        assert_eq!(Route::new(vec![a, c, left]).validate(&net), None); // neighbour step
        assert_eq!(Route::new(vec![a, left]).validate(&net), Some(0)); // broken
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_route_panics() {
        let _ = Route::new(vec![]);
    }

    #[test]
    fn cursor_advances_on_observation() {
        let (_net, a, c, left) = net_three();
        let mut cur = RouteCursor::new(Route::new(vec![a, c, left]));
        assert_eq!(cur.current_lane(), a);
        assert_eq!(cur.next_lane(), Some(c));
        assert!(!cur.on_final_lane());
        assert!(!cur.observe_lane(a)); // already there
        assert!(cur.observe_lane(c));
        assert_eq!(cur.current_lane(), c);
        assert!(cur.observe_lane(left));
        assert!(cur.on_final_lane());
        assert_eq!(cur.next_lane(), None);
        // Observing an off-route lane does nothing.
        assert!(!cur.observe_lane(a));
        assert_eq!(cur.remaining(), &[left]);
    }

    #[test]
    fn distance_to_end() {
        let (net, a, c, _left) = net_three();
        let cur = RouteCursor::new(Route::new(vec![a, c]));
        let d = cur
            .distance_to_end(&net, LanePosition::new(a, Meters::new(30.0)))
            .unwrap();
        assert!((d.get() - 170.0).abs() < 1e-9);
        assert!(cur
            .distance_to_end(&net, LanePosition::new(c, Meters::ZERO))
            .is_none());
    }
}

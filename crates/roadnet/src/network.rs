//! The road network: a collection of lanes plus spatial queries.

use crate::polyline::PRUNE_SLACK;
use crate::{Lane, LaneId, LanePosition};
use rdsim_math::{Pose2, Vec2};
use rdsim_units::Meters;
use serde::{Deserialize, Serialize};

/// Result of projecting a world point onto a lane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneProjection {
    /// Lane and arc length of the closest centreline point.
    pub position: LanePosition,
    /// Signed lateral offset from the centreline (positive = left of travel).
    pub lateral: Meters,
    /// Absolute distance from the query point to the centreline.
    pub distance: Meters,
}

/// A labelled location where actors can be placed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpawnPoint {
    /// Human-readable label (e.g. `"following-start"`).
    pub name: String,
    /// The lane and arc length of the spawn location.
    pub lane: LaneId,
    /// Arc length along the lane.
    pub s: Meters,
}

/// An immutable collection of lanes forming a drivable map.
///
/// Construct with [`crate::RoadNetworkBuilder`] or use the built-in
/// [`crate::town05`] map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadNetwork {
    name: String,
    lanes: Vec<Lane>,
    spawn_points: Vec<SpawnPoint>,
}

impl RoadNetwork {
    pub(crate) fn from_parts(
        name: String,
        lanes: Vec<Lane>,
        spawn_points: Vec<SpawnPoint>,
    ) -> Self {
        RoadNetwork {
            name,
            lanes,
            spawn_points,
        }
    }

    /// The map's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// All lanes.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Looks up a lane by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn lane(&self, id: LaneId) -> &Lane {
        self.get_lane(id)
            .unwrap_or_else(|| panic!("{id} not in network '{}'", self.name))
    }

    /// Looks up a lane by id, returning `None` for unknown ids.
    pub fn get_lane(&self, id: LaneId) -> Option<&Lane> {
        self.lanes.get(id.0 as usize).filter(|l| l.id() == id)
    }

    /// Labelled spawn points.
    pub fn spawn_points(&self) -> &[SpawnPoint] {
        &self.spawn_points
    }

    /// Finds a spawn point by name.
    pub fn spawn_point(&self, name: &str) -> Option<&SpawnPoint> {
        self.spawn_points.iter().find(|sp| sp.name == name)
    }

    /// World pose of a lane position.
    pub fn pose_at(&self, pos: LanePosition) -> Pose2 {
        self.lane(pos.lane).pose_at(pos.s)
    }

    /// Projects a world point onto a specific lane.
    pub fn project_onto_lane(&self, lane: LaneId, point: Vec2) -> LaneProjection {
        let (s, lateral, distance) = self.lane(lane).centerline().project(point);
        LaneProjection {
            position: LanePosition::new(lane, s),
            lateral,
            distance,
        }
    }

    /// Projects a world point onto the nearest lane (by centreline
    /// distance) among all lanes.
    ///
    /// Returns `None` only for an empty network.
    ///
    /// Lanes are scanned in id order keeping the first strictly-smaller
    /// distance, with whole-lane and chunk bounding boxes pruning what
    /// provably cannot beat the running best — an exact skip (see
    /// [`crate::Polyline::distance_lower_bound_sq`]), so the result is
    /// bit-identical to projecting onto every lane.
    pub fn project(&self, point: Vec2) -> Option<LaneProjection> {
        self.nearest_lane(point, f64::INFINITY)
    }

    /// [`project`](Self::project) seeded with a lane position near `point`,
    /// such as a moving actor's projection on the previous tick. The
    /// result is bit-identical to `project` for every seed; a near seed
    /// only makes it cheaper. A seed lane that is not in the network seeds
    /// nothing.
    pub fn project_seeded(&self, point: Vec2, seed: LanePosition) -> Option<LaneProjection> {
        let bound = self.get_lane(seed.lane).map_or(f64::INFINITY, |lane| {
            lane.centerline().seed_bound(point, seed.s.get())
        });
        self.nearest_lane(point, bound)
    }

    /// The lane loop behind [`project`](Self::project) and
    /// [`project_seeded`](Self::project_seeded). `seed_bound` is the
    /// squared distance from `point` to a vertex of some lane, so the
    /// nearest squared distance cannot exceed it; a lane or chunk whose box
    /// lower bound exceeds min(bound, running best) by more than
    /// `PRUNE_SLACK` is skipped. A bound that is not finite (unseeded, or a
    /// non-finite or overflowing point) gives the unseeded search, in
    /// which every lane bounds its chunks by its own vertex pre-pass, so a
    /// non-finite point keeps its one answer: lane 0, `s` 0, an infinite
    /// distance.
    fn nearest_lane(&self, point: Vec2, seed_bound: f64) -> Option<LaneProjection> {
        let seeded = seed_bound.is_finite();
        let mut best: Option<LaneProjection> = None;
        let mut best_d2 = f64::INFINITY;
        for lane in &self.lanes {
            let line = lane.centerline();
            let cut = seed_bound.min(best_d2);
            if line.distance_lower_bound_sq(point) * PRUNE_SLACK > cut {
                continue;
            }
            let bound = if seeded {
                cut
            } else {
                line.vertex_bound(point).min(best_d2)
            };
            let (s, lateral, distance) = line.project_within(point, bound);
            if best.is_none_or(|b| distance < b.distance) {
                best_d2 = distance.get() * distance.get();
                best = Some(LaneProjection {
                    position: LanePosition::new(lane.id(), s),
                    lateral,
                    distance,
                });
            }
        }
        best
    }

    /// Projects onto the nearest of `candidates`; used by the lane-keeping
    /// logic to avoid snapping to far-away lanes at junctions. Same exact
    /// bounding-box pruning as [`project`](Self::project), with ties broken
    /// in candidate order.
    pub fn project_among(&self, candidates: &[LaneId], point: Vec2) -> Option<LaneProjection> {
        let (&first, rest) = candidates.split_first()?;
        Some(self.project_among_from(self.project_onto_lane(first, point), rest, point))
    }

    /// [`project_among`](Self::project_among) over the candidates
    /// `[start.position.lane, others..]`, where `start` is already the
    /// projection of `point` onto its lane (as from
    /// [`project_onto_lane`](Self::project_onto_lane)).
    pub fn project_among_from(
        &self,
        start: LaneProjection,
        others: &[LaneId],
        point: Vec2,
    ) -> LaneProjection {
        let mut best = start;
        for &id in others {
            let line = self.lane(id).centerline();
            let best_d2 = best.distance.get() * best.distance.get();
            if line.distance_lower_bound_sq(point) * PRUNE_SLACK > best_d2 {
                continue;
            }
            let (s, lateral, distance) =
                line.project_within(point, line.vertex_bound(point).min(best_d2));
            if distance < best.distance {
                best = LaneProjection {
                    position: LanePosition::new(id, s),
                    lateral,
                    distance,
                };
            }
        }
        best
    }

    /// Walks `distance` metres forward from `pos`, following the first
    /// successor at each lane end. Returns the final position, or the lane
    /// end if the network runs out of successors.
    pub fn advance(&self, pos: LanePosition, distance: Meters) -> LanePosition {
        let mut lane = self.lane(pos.lane);
        let mut s = pos.s + distance;
        loop {
            let len = lane.length();
            if s <= len {
                return LanePosition::new(lane.id(), s.max(Meters::ZERO));
            }
            match lane.successors().first() {
                Some(&next) => {
                    s -= len;
                    lane = self.lane(next);
                }
                None => return LanePosition::new(lane.id(), len),
            }
        }
    }

    /// Longitudinal gap from `from` to `to` measured along lanes, following
    /// first successors, up to `max_search` metres. Returns `None` if `to`
    /// is not ahead of `from` within the horizon.
    pub fn gap_along(
        &self,
        from: LanePosition,
        to: LanePosition,
        max_search: Meters,
    ) -> Option<Meters> {
        let mut lane = self.lane(from.lane);
        let mut travelled = -from.s.get();
        let mut visited = 0usize;
        loop {
            if lane.id() == to.lane {
                let gap = travelled + to.s.get();
                if gap >= 0.0 && gap <= max_search.get() {
                    return Some(Meters::new(gap));
                }
                // `to` is behind `from` on the same lane; keep following in
                // case the lane loops back around.
            }
            travelled += lane.length().get();
            if travelled > max_search.get() {
                return None;
            }
            visited += 1;
            if visited > self.lanes.len() + 1 {
                return None;
            }
            match lane.successors().first() {
                Some(&next) => lane = self.lane(next),
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneKind, Polyline, RoadNetworkBuilder};
    use rdsim_units::MetersPerSecond;

    fn two_lane_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("test");
        let a = b.add_lane(
            LaneKind::Driving,
            Polyline::straight(Vec2::ZERO, Vec2::new(100.0, 0.0), Meters::new(2.0)),
            Meters::new(3.5),
            MetersPerSecond::from_kmh(50.0),
        );
        let c = b.add_lane(
            LaneKind::Driving,
            Polyline::straight(
                Vec2::new(100.0, 0.0),
                Vec2::new(200.0, 0.0),
                Meters::new(2.0),
            ),
            Meters::new(3.5),
            MetersPerSecond::from_kmh(50.0),
        );
        b.connect(a, c);
        b.add_spawn_point("start", a, Meters::new(5.0));
        b.build()
    }

    #[test]
    fn lookup_and_spawn() {
        let net = two_lane_net();
        assert_eq!(net.name(), "test");
        assert_eq!(net.lane_count(), 2);
        let sp = net.spawn_point("start").unwrap();
        assert_eq!(sp.s, Meters::new(5.0));
        assert!(net.spawn_point("nope").is_none());
        assert!(net.get_lane(LaneId(99)).is_none());
    }

    #[test]
    fn project_nearest() {
        let net = two_lane_net();
        let proj = net.project(Vec2::new(150.0, 1.0)).unwrap();
        assert_eq!(proj.position.lane, LaneId(1));
        assert!((proj.position.s.get() - 50.0).abs() < 1e-9);
        assert!((proj.lateral.get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn advance_across_lanes() {
        let net = two_lane_net();
        let pos = net.advance(
            LanePosition::new(LaneId(0), Meters::new(90.0)),
            Meters::new(30.0),
        );
        assert_eq!(pos.lane, LaneId(1));
        assert!((pos.s.get() - 20.0).abs() < 1e-9);
        // Past the end of the last lane: clamps to its end.
        let end = net.advance(
            LanePosition::new(LaneId(1), Meters::new(90.0)),
            Meters::new(500.0),
        );
        assert_eq!(end.lane, LaneId(1));
        assert!((end.s.get() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn gap_along_lanes() {
        let net = two_lane_net();
        let from = LanePosition::new(LaneId(0), Meters::new(80.0));
        let to = LanePosition::new(LaneId(1), Meters::new(10.0));
        let gap = net.gap_along(from, to, Meters::new(100.0)).unwrap();
        assert!((gap.get() - 30.0).abs() < 1e-9);
        // Behind: not found.
        assert!(net.gap_along(to, from, Meters::new(50.0)).is_none());
        // Horizon too short.
        assert!(net.gap_along(from, to, Meters::new(10.0)).is_none());
    }

    #[test]
    fn project_among_restricts() {
        let net = two_lane_net();
        let p = Vec2::new(150.0, 0.0);
        let proj = net.project_among(&[LaneId(0)], p).unwrap();
        assert_eq!(proj.position.lane, LaneId(0));
        assert!((proj.position.s.get() - 100.0).abs() < 1e-9);
        assert!(net.project_among(&[], p).is_none());
    }

    #[test]
    #[should_panic(expected = "not in network")]
    fn unknown_lane_panics() {
        let net = two_lane_net();
        let _ = net.lane(LaneId(42));
    }
}

//! The driving course: scenario phases and fault points of interest.
//!
//! The paper's scenarios — vehicle following, lane change past stationary
//! vehicles, overtake, plus two "false" cyclist cases — are laid out along
//! the Town-5-like ring of [`rdsim_roadnet::town05`]:
//!
//! ```text
//! chain s (m)   0 ──── 215 ──── 395 ──── 600 ╮ (SE corner)
//!               following  slalom   cyclists │
//!               ╭ west ── 1657..2035 ── north 1057..1657 (overtake) ╯
//! ```
//!
//! All positions are measured as cumulative arc length along the outer
//! lane chain, starting at the south avenue's west end.

use rdsim_core::PaperFault;
use rdsim_math::Vec2;
use rdsim_roadnet::{LaneId, LaneProjection, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Maps world positions to progress along the ring's lane chains.
#[derive(Debug, Clone)]
pub struct CourseMap {
    outer: Vec<LaneId>,
    inner: Vec<LaneId>,
    /// Cumulative start offset of each outer segment.
    offsets: Vec<f64>,
    lap_length: f64,
}

impl CourseMap {
    /// Builds the course map by walking the outer chain from lane 0.
    ///
    /// # Panics
    ///
    /// Panics if the network's lane 0 chain does not close into a ring
    /// (i.e. the map is not a `town05`-style circuit).
    pub fn new(net: &RoadNetwork) -> Self {
        let start = LaneId(0);
        let mut outer = Vec::new();
        let mut offsets = Vec::new();
        let mut inner = Vec::new();
        let mut lane = start;
        let mut cum = 0.0;
        loop {
            outer.push(lane);
            offsets.push(cum);
            inner.push(
                net.lane(lane)
                    .left_neighbor()
                    .expect("ring lanes have inner neighbours"),
            );
            cum += net.lane(lane).length().get();
            let succ = net.lane(lane).successors();
            assert_eq!(succ.len(), 1, "ring chain must be linear");
            lane = succ[0];
            if lane == start {
                break;
            }
            assert!(outer.len() <= net.lane_count(), "chain does not close");
        }
        CourseMap {
            outer,
            inner,
            offsets,
            lap_length: cum,
        }
    }

    /// Lanes of the outer chain, in driving order.
    pub fn outer(&self) -> &[LaneId] {
        &self.outer
    }

    /// Lanes of the inner chain, in driving order.
    pub fn inner(&self) -> &[LaneId] {
        &self.inner
    }

    /// One lap's length along the outer chain.
    pub fn lap_length(&self) -> f64 {
        self.lap_length
    }

    /// Chain position (arc length from the course origin, within one lap)
    /// of a world point, measured against the outer chain, and the outer
    /// lane it was measured on: the lane
    /// [`nearest_of`](Self::nearest_of) returns for the outer chain.
    ///
    /// `column` is the point's whole-network projection if the caller
    /// holds it (`World::projection`); see [`nearest_of`](Self::nearest_of)
    /// for when it replaces the projection onto the chain.
    pub fn chain_s(
        &self,
        net: &RoadNetwork,
        position: Vec2,
        column: Option<LaneProjection>,
    ) -> (f64, LaneId) {
        let proj = on_chain(&self.outer, column).unwrap_or_else(|| {
            net.project_among(&self.outer, position)
                .expect("outer chain is non-empty")
        });
        let lane = proj.position.lane;
        let idx = self
            .outer
            .iter()
            .position(|&l| l == lane)
            .expect("projected lane is on the chain");
        (self.offsets[idx] + proj.position.s.get(), lane)
    }

    /// The nearest lane of the given chain to a world point.
    ///
    /// `column` is the point's whole-network projection if the caller
    /// holds it. When its lane is on `chain` and `chain` is in ascending id
    /// order, it is the answer without projecting: it is the first lane
    /// with the least distance in id order over *all* lanes, so over the
    /// chain too, and `project_among` breaks ties in candidate order, which
    /// is then id order. Otherwise the point is projected onto the chain.
    pub fn nearest_of(
        &self,
        net: &RoadNetwork,
        chain: &[LaneId],
        position: Vec2,
        column: Option<LaneProjection>,
    ) -> LaneId {
        on_chain(chain, column)
            .or_else(|| net.project_among(chain, position))
            .expect("chain is non-empty")
            .position
            .lane
    }

    /// `true` if `s` lies within `[from, to)` measured along the lap,
    /// handling windows that wrap the lap boundary.
    pub fn within(&self, s: f64, from: f64, to: f64) -> bool {
        if from <= to {
            s >= from && s < to
        } else {
            s >= from || s < to
        }
    }
}

/// `column` when it is provably `project_among(chain, ..)` of the same
/// point: its lane is on `chain` and `chain` ascends in id order (see
/// [`CourseMap::nearest_of`]).
fn on_chain(chain: &[LaneId], column: Option<LaneProjection>) -> Option<LaneProjection> {
    column.filter(|c| chain.is_sorted() && chain.contains(&c.position.lane))
}

/// A point of interest where a fault may be injected: a chain-s window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPoint {
    /// Label for logs ("following-1", "lane-change-in", …).
    #[serde(skip, default = "default_point_name")]
    pub name: &'static str,
    /// Window start (chain s, metres).
    pub from: f64,
    /// Window end (chain s, metres).
    pub to: f64,
}

// Referenced via `#[serde(default = "default_point_name")]`; the vendored
// no-op serde derive never expands that attribute, so the function looks
// dead until the real serde is restored.
#[allow(dead_code)]
fn default_point_name() -> &'static str {
    "point"
}

/// The course plan: scenario zones and fault points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPlan {
    /// Slalom zone (drive the inner lane past the parked vans).
    pub slalom: (f64, f64),
    /// Overtake zone on the highway (inner lane past the slow vehicle).
    pub overtake: (f64, f64),
    /// Start of the highway segment (speed raises here).
    pub highway: (f64, f64),
    /// Fault points of interest, in course order.
    pub fault_points: Vec<FaultPoint>,
}

impl ScenarioPlan {
    /// The paper-style plan for the town05 ring.
    pub fn town05() -> Self {
        ScenarioPlan {
            slalom: (205.0, 395.0),
            overtake: (1137.0, 1277.0),
            highway: (1057.0, 1657.0),
            fault_points: vec![
                FaultPoint {
                    name: "following-1",
                    from: 80.0,
                    to: 160.0,
                },
                FaultPoint {
                    name: "lane-change-in",
                    from: 215.0,
                    to: 275.0,
                },
                FaultPoint {
                    name: "lane-change-out",
                    from: 330.0,
                    to: 400.0,
                },
                FaultPoint {
                    name: "following-2",
                    from: 700.0,
                    to: 790.0,
                },
                FaultPoint {
                    name: "overtake",
                    from: 1100.0,
                    to: 1190.0,
                },
                FaultPoint {
                    name: "following-3",
                    from: 1800.0,
                    to: 1890.0,
                },
            ],
        }
    }

    /// Draws a random fault for each point (the per-lap schedule), using
    /// the paper's uniform draw over the five faults.
    pub fn draw_faults(&self, rng: &mut rdsim_math::RngStream) -> Vec<PaperFault> {
        self.fault_points
            .iter()
            .map(|_| *rng.choose(&PaperFault::ALL))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_math::RngStream;
    use rdsim_roadnet::town05;
    use rdsim_units::Meters;

    #[test]
    fn course_map_walks_the_ring() {
        let net = town05();
        let course = CourseMap::new(&net);
        assert_eq!(course.outer().len(), 8);
        assert_eq!(course.inner().len(), 8);
        // Lap length ≈ 2 × 600 + 2 × 300 + 4 quarter circles of r = 50.
        let expected = 1800.0 + 4.0 * 50.0 * std::f64::consts::FRAC_PI_2;
        assert!(
            (course.lap_length() - expected).abs() < 5.0,
            "lap {}",
            course.lap_length()
        );
        // All outer lanes are even ids; inner odd.
        assert!(course.outer().iter().all(|l| l.0 % 2 == 0));
        assert!(course.inner().iter().all(|l| l.0 % 2 == 1));
    }

    #[test]
    fn chain_s_increases_along_south_avenue() {
        let net = town05();
        let course = CourseMap::new(&net);
        let (s1, _) = course.chain_s(&net, Vec2::new(100.0, 0.0), None);
        let (s2, _) = course.chain_s(&net, Vec2::new(400.0, 0.0), None);
        assert!((s1 - 100.0).abs() < 1.0);
        assert!((s2 - 400.0).abs() < 1.0);
        // East side: past the south segment + SE corner.
        let (s3, _) = course.chain_s(&net, Vec2::new(650.0, 200.0), None);
        assert!(s3 > 600.0 && s3 < 1057.0, "east side s = {s3}");
        // North (highway).
        let (s4, _) = course.chain_s(&net, Vec2::new(300.0, 400.0), None);
        assert!(s4 > 1057.0 && s4 < 1657.0, "north s = {s4}");
    }

    #[test]
    fn within_handles_wrap() {
        let net = town05();
        let course = CourseMap::new(&net);
        assert!(course.within(250.0, 215.0, 395.0));
        assert!(!course.within(400.0, 215.0, 395.0));
        // Wrapping window across the lap origin.
        assert!(course.within(10.0, 2100.0, 50.0));
        assert!(course.within(2110.0, 2100.0, 50.0));
        assert!(!course.within(1000.0, 2100.0, 50.0));
    }

    #[test]
    fn nearest_of_selects_chain() {
        let net = town05();
        let course = CourseMap::new(&net);
        let p = Vec2::new(300.0, 3.5); // on the inner lane of the avenue
        let inner = course.nearest_of(&net, course.inner(), p, None);
        assert_eq!(inner, LaneId(1));
        let outer = course.nearest_of(&net, course.outer(), p, None);
        assert_eq!(outer, LaneId(0));
    }

    #[test]
    fn chain_s_lane_is_the_nearest_outer_lane() {
        let net = town05();
        let course = CourseMap::new(&net);
        // Lane ends are the joints; the other fractions lie between them.
        // Offsets reach across both lanes of the road and off it, so the
        // column's lane is on the outer chain, on the inner one, or
        // (±1.75 m) tied between them.
        for &lane in course.outer().iter().chain(course.inner()) {
            let centerline = net.lane(lane).centerline();
            let length = net.lane(lane).length();
            for frac in [0.0, 1e-6, 0.25, 0.5, 1.0 - 1e-6, 1.0] {
                for offset in [-6.0, -1.75, -0.3, 0.0, 1.75, 3.5, 8.0, 40.0] {
                    let p = centerline.offset_point_at(length * frac, Meters::new(offset));
                    let column = net.project(p);
                    let (s, outer) = course.chain_s(&net, p, None);
                    let (s_col, outer_col) = course.chain_s(&net, p, column);
                    assert_eq!((s.to_bits(), outer), (s_col.to_bits(), outer_col), "at {p}");
                    assert_eq!(
                        outer,
                        course.nearest_of(&net, course.outer(), p, None),
                        "at {p}"
                    );
                    for chain in [course.outer(), course.inner()] {
                        assert_eq!(
                            course.nearest_of(&net, chain, p, None),
                            course.nearest_of(&net, chain, p, column),
                            "at {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn column_is_not_read_on_a_chain_out_of_id_order() {
        // A square ring whose outer chain runs 0 → 4 → 2 → 6. At the
        // north-east corner lanes 4 and 2 tie: the column holds lane 2
        // (lower id), but `project_among` over the chain picks lane 4
        // (earlier in the chain), so the column must not be read.
        use rdsim_roadnet::{LaneKind, Polyline, RoadNetworkBuilder};
        use rdsim_units::MetersPerSecond;
        let mut b = RoadNetworkBuilder::new("square");
        let corners = [
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(100.0, 100.0),
            Vec2::new(0.0, 100.0),
        ];
        let mut outer = [LaneId(0); 4];
        // Sides in the order south, north, east, west.
        for side in [0, 2, 1, 3] {
            let line = Polyline::straight(corners[side], corners[(side + 1) % 4], Meters::new(2.0));
            outer[side] = b.add_lane(
                LaneKind::Driving,
                line,
                Meters::new(3.5),
                MetersPerSecond::new(10.0),
            );
            b.add_parallel_lane(outer[side], Meters::new(3.5));
        }
        for side in 0..4 {
            let next = (side + 1) % 4;
            b.connect(outer[side], outer[next]);
            b.connect(LaneId(outer[side].0 + 1), LaneId(outer[next].0 + 1));
        }
        let net = b.build();
        let course = CourseMap::new(&net);
        assert_eq!(course.outer(), [LaneId(0), LaneId(4), LaneId(2), LaneId(6)]);
        let p = Vec2::new(103.0, 103.0);
        let column = net.project(p);
        assert_eq!(column.map(|c| c.position.lane), Some(LaneId(2)));
        let (s, lane) = course.chain_s(&net, p, column);
        assert_eq!(lane, LaneId(4));
        assert_eq!((s.to_bits(), lane), {
            let (s, lane) = course.chain_s(&net, p, None);
            (s.to_bits(), lane)
        });
        assert_eq!(
            course.nearest_of(&net, course.outer(), p, column),
            LaneId(4)
        );
    }

    #[test]
    fn plan_zones_are_sane() {
        let plan = ScenarioPlan::town05();
        assert!(plan.slalom.0 < plan.slalom.1);
        assert!(plan.overtake.0 > plan.highway.0 && plan.overtake.1 < plan.highway.1);
        assert_eq!(plan.fault_points.len(), 6);
        // Fault points are disjoint and ordered.
        for w in plan.fault_points.windows(2) {
            assert!(w[0].to <= w[1].from, "{} overlaps {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn fault_draw_uses_catalog() {
        let plan = ScenarioPlan::town05();
        let mut rng = RngStream::from_seed(1).substream("draw");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            for f in plan.draw_faults(&mut rng) {
                seen.insert(f);
            }
        }
        assert_eq!(seen.len(), 5, "all five faults appear across draws");
    }
}

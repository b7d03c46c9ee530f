//! The projection kernel against a plain reference: `project`,
//! `project_seeded` (from any seed) and `project_among` must equal a linear
//! scan over every segment of every lane, bit for bit.

use proptest::prelude::*;
use rdsim_math::Vec2;
use rdsim_roadnet::{town05, LaneId, LanePosition, LaneProjection, RoadNetwork};
use rdsim_units::Meters;

/// A projection as raw bits, so NaN and signed zeros compare exactly.
type Bits = Option<(u32, u64, u64, u64)>;

fn bits(p: Option<LaneProjection>) -> Bits {
    p.map(|p| {
        (
            p.position.lane.0,
            p.position.s.get().to_bits(),
            p.lateral.get().to_bits(),
            p.distance.get().to_bits(),
        )
    })
}

/// Every lane's vertices and cumulative arc lengths, recomputed from the
/// public vertices with the polyline's own summation.
struct Reference {
    lanes: Vec<(LaneId, Vec<Vec2>, Vec<f64>)>,
}

impl Reference {
    fn new(net: &RoadNetwork) -> Self {
        let lanes = net
            .lanes()
            .iter()
            .map(|lane| {
                let points = lane.centerline().points().to_vec();
                let mut cum = vec![0.0];
                let mut total = 0.0;
                for w in points.windows(2) {
                    total += w[0].distance(w[1]);
                    cum.push(total);
                }
                (lane.id(), points, cum)
            })
            .collect();
        Reference { lanes }
    }

    /// The linear scan onto one lane: the first segment with the least
    /// squared distance, and the kernel's formulas for `s`, the lateral
    /// offset and the distance.
    fn onto(&self, index: usize, p: Vec2) -> LaneProjection {
        let (id, points, cum) = &self.lanes[index];
        let (mut best_d2, mut best_s, mut best_seg, mut best_point) =
            (f64::INFINITY, 0.0, 0, points[0]);
        for i in 0..points.len() - 1 {
            let (t, q) = p.project_onto_segment(points[i], points[i + 1]);
            let d2 = (p - q).length_squared();
            if d2 < best_d2 {
                best_d2 = d2;
                best_seg = i;
                best_point = q;
                best_s = cum[i] + (cum[i + 1] - cum[i]) * t;
            }
        }
        let dir = (points[best_seg + 1] - points[best_seg])
            .normalized()
            .expect("distinct points");
        LaneProjection {
            position: LanePosition::new(*id, Meters::new(best_s)),
            lateral: Meters::new(dir.cross(p - best_point)),
            distance: Meters::new(best_d2.sqrt()),
        }
    }

    /// The first lane, in the given order, with the least distance.
    fn nearest(&self, per_lane: &[LaneProjection], order: &[LaneId]) -> Option<LaneProjection> {
        let mut best: Option<LaneProjection> = None;
        for id in order {
            let proj = per_lane[id.0 as usize];
            if best.is_none_or(|b| proj.distance < b.distance) {
                best = Some(proj);
            }
        }
        best
    }
}

/// Checks `project`, `project_seeded` from each given seed, and
/// `project_among` over the two ring chains (in both orders) at `p`.
fn check(net: &RoadNetwork, r: &Reference, p: Vec2, seeds: &[LanePosition]) {
    let per_lane: Vec<LaneProjection> = (0..r.lanes.len()).map(|i| r.onto(i, p)).collect();
    let ids: Vec<LaneId> = net.lanes().iter().map(|l| l.id()).collect();
    let want = bits(r.nearest(&per_lane, &ids));
    assert_eq!(bits(net.project(p)), want, "project at {p:?}");
    for &seed in seeds {
        assert_eq!(
            bits(net.project_seeded(p, seed)),
            want,
            "project_seeded at {p:?} from {seed:?}"
        );
    }
    // Ties go to the first candidate in either order.
    for parity in [0, 1] {
        let mut chain: Vec<LaneId> = ids.iter().copied().filter(|l| l.0 % 2 == parity).collect();
        for _ in 0..2 {
            assert_eq!(
                bits(net.project_among(&chain, p)),
                bits(r.nearest(&per_lane, &chain)),
                "project_among {chain:?} at {p:?}"
            );
            chain.reverse();
        }
    }
}

/// Seeds on every lane, at the arc length of `p`'s projection onto it.
fn near_seeds(r: &Reference, p: Vec2) -> Vec<LanePosition> {
    (0..r.lanes.len()).map(|i| r.onto(i, p).position).collect()
}

#[test]
fn grid_along_every_lane_matches_the_reference() {
    let net = town05();
    let r = Reference::new(&net);
    let mut points = 0;
    for lane in net.lanes() {
        let line = lane.centerline();
        // Every vertex, the lane ends included: the ends are the joints,
        // where a lane's last vertex and its successor's first one tie.
        let mut at = vec![0.0];
        for w in line.points().windows(2) {
            at.push(at.last().unwrap() + w[0].distance(w[1]));
        }
        *at.last_mut().unwrap() = line.length().get();
        for &s in at.iter().step_by(2).chain(at.last()) {
            // ±1.75 m puts the point on the line halfway between two
            // parallel lanes: an exact tie, which goes to the lower id.
            for offset in [-6.0, -1.75, -0.3, 0.0, 1.75, 3.5, 8.0] {
                let p = line.offset_point_at(Meters::new(s), Meters::new(offset));
                check(&net, &r, p, &near_seeds(&r, p));
                points += 1;
            }
        }
    }
    assert!(points > 7_000, "{points} grid points");
}

#[test]
fn lane_joints_match_the_reference_from_every_seed() {
    // The end of lane 14 is lane 0's start, one rounding away: seeded on
    // lane 14, a bound taken from a computed foot point instead of a
    // vertex reads 0 here and prunes every lane.
    let net = town05();
    let r = Reference::new(&net);
    for lane in net.lanes() {
        let line = lane.centerline();
        for p in [
            line.point_at(line.length()),
            *line.points().last().unwrap(),
            line.point_at(Meters::ZERO),
        ] {
            let mut seeds = near_seeds(&r, p);
            for other in net.lanes() {
                seeds.push(LanePosition::new(other.id(), Meters::ZERO));
                seeds.push(LanePosition::new(other.id(), other.length()));
            }
            check(&net, &r, p, &seeds);
        }
    }
}

#[test]
fn non_finite_and_far_points_match_the_reference() {
    // A NaN or infinite point projects onto lane 0 at s = 0 with an
    // infinite distance, seeded or not; World::step relies on that answer
    // existing.
    let net = town05();
    let r = Reference::new(&net);
    let big = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e12,
        -1e12,
        1e300,
        -1e300,
    ];
    let mut seeds = Vec::new();
    for lane in net.lanes() {
        seeds.push(LanePosition::new(lane.id(), Meters::ZERO));
        seeds.push(LanePosition::new(lane.id(), lane.length() / 2.0));
    }
    seeds.push(LanePosition::new(LaneId(0), Meters::new(f64::NAN)));
    seeds.push(LanePosition::new(LaneId(99), Meters::ZERO));
    for &x in &big {
        for &y in big.iter().chain(&[0.0, 200.0]) {
            for p in [Vec2::new(x, y), Vec2::new(y, x)] {
                check(&net, &r, p, &seeds);
            }
        }
    }
    let nan = net.project(Vec2::new(f64::NAN, 0.0)).expect("lanes exist");
    assert_eq!(nan.position, LanePosition::new(LaneId(0), Meters::ZERO));
    assert!(nan.lateral.get().is_nan() && nan.distance.get() == f64::INFINITY);
}

proptest! {
    #[test]
    fn random_points_and_seeds_match_the_reference(
        x in -250.0f64..850.0,
        y in -200.0f64..600.0,
        seed_lane in 0u32..17,
        seed_frac in -0.1f64..1.1,
    ) {
        let net = town05();
        let r = Reference::new(&net);
        // Lane 16 is not in the network: such a seed seeds nothing.
        let length = net.get_lane(LaneId(seed_lane)).map_or(Meters::new(100.0), |l| l.length());
        let seed = LanePosition::new(LaneId(seed_lane), length * seed_frac);
        let p = Vec2::new(x, y);
        let mut seeds = near_seeds(&r, p);
        seeds.push(seed);
        check(&net, &r, p, &seeds);
    }
}

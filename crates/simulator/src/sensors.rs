//! Collision and lane-invasion sensing.

use crate::ActorId;
use rdsim_math::{Pose2, Vec2};
use rdsim_roadnet::LaneId;
use rdsim_units::{Meters, MetersPerSecond, SimTime};

/// A collision between the ego vehicle and another actor, as logged by the
/// paper's collision sensor (timestamp, frame, collision actors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionEvent {
    /// Simulation time of first contact.
    pub time: SimTime,
    /// Camera frame id current at the collision.
    pub frame_id: u64,
    /// The ego vehicle.
    pub ego: ActorId,
    /// The actor hit.
    pub other: ActorId,
    /// Closing speed at impact.
    pub relative_speed: MetersPerSecond,
}

/// A lane-boundary crossing by the ego vehicle (timestamp, frame, lane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneInvasionEvent {
    /// Simulation time of the crossing.
    pub time: SimTime,
    /// Camera frame id current at the crossing.
    pub frame_id: u64,
    /// The actor that crossed.
    pub actor: ActorId,
    /// The lane whose boundary was crossed.
    pub lane: LaneId,
    /// Signed lateral offset at detection (positive = left).
    pub lateral: Meters,
}

/// Oriented-bounding-box overlap test via the separating-axis theorem.
///
/// Each box is described by its centre pose and its length (along heading)
/// and width.
pub fn obb_overlap(
    pose_a: Pose2,
    len_a: Meters,
    wid_a: Meters,
    pose_b: Pose2,
    len_b: Meters,
    wid_b: Meters,
) -> bool {
    let corners = |pose: Pose2, len: Meters, wid: Meters| -> [Vec2; 4] {
        let hl = len.get() / 2.0;
        let hw = wid.get() / 2.0;
        [
            pose.local_to_world(Vec2::new(hl, hw)),
            pose.local_to_world(Vec2::new(hl, -hw)),
            pose.local_to_world(Vec2::new(-hl, -hw)),
            pose.local_to_world(Vec2::new(-hl, hw)),
        ]
    };
    let ca = corners(pose_a, len_a, wid_a);
    let cb = corners(pose_b, len_b, wid_b);
    let axes = [
        pose_a.forward(),
        pose_a.left(),
        pose_b.forward(),
        pose_b.left(),
    ];
    for axis in axes {
        let project = |cs: &[Vec2; 4]| -> (f64, f64) {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for c in cs {
                let p = c.dot(axis);
                lo = lo.min(p);
                hi = hi.max(p);
            }
            (lo, hi)
        };
        let (a_lo, a_hi) = project(&ca);
        let (b_lo, b_hi) = project(&cb);
        if a_hi < b_lo || b_hi < a_lo {
            return false;
        }
    }
    true
}

/// Clearance the collision broad phase adds to the sum of two
/// circumradii before it skips the SAT test of a pair.
const BROAD_PHASE_MARGIN: f64 = 1.0;

/// Radius of the disc around a box's centre that holds the whole box:
/// ½·hypot(length, width).
#[inline]
pub(crate) fn circumradius(len: Meters, wid: Meters) -> f64 {
    0.5 * (len.get() * len.get() + wid.get() * wid.get()).sqrt()
}

/// Broad phase of [`obb_overlap`]: `true` when the centres lie farther
/// apart than the two circumradii plus [`BROAD_PHASE_MARGIN`]. Each box
/// lies inside its disc, so disjoint discs mean disjoint boxes, at least
/// the margin apart; for such a pair `obb_overlap` is `false`, and the
/// caller may take that answer without running it. A NaN centre is never
/// culled.
#[inline]
pub(crate) fn discs_apart(a: Vec2, radius_a: f64, b: Vec2, radius_b: f64) -> bool {
    let reach = radius_a + radius_b + BROAD_PHASE_MARGIN;
    (b - a).length_squared() > reach * reach
}

/// Tracks contact state so each collision is reported once per contact
/// episode (contact must break before the same pair can fire again) —
/// matching how CARLA's collision sensor emits discrete events.
///
/// A `BTreeSet` rather than a `HashSet`: nothing here iterates today
/// (membership queries are order-free), but the determinism doctrine is
/// that no randomized-order container sits anywhere on the logged-output
/// path, so Debug dumps and any future iteration are ordered by
/// construction rather than by `RandomState`.
#[derive(Debug, Default)]
pub(crate) struct CollisionTracker {
    in_contact: std::collections::BTreeSet<(ActorId, ActorId)>,
}

impl CollisionTracker {
    pub(crate) fn new() -> Self {
        CollisionTracker::default()
    }

    /// Updates contact state for a pair; returns `true` exactly when a new
    /// contact episode begins.
    pub(crate) fn update(&mut self, ego: ActorId, other: ActorId, touching: bool) -> bool {
        let key = (ego, other);
        if touching {
            self.in_contact.insert(key)
        } else {
            self.in_contact.remove(&key);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdsim_units::Radians;
    use rdsim_vehicle::VehicleSpec;

    fn pose(x: f64, y: f64, heading: f64) -> Pose2 {
        Pose2::new(Vec2::new(x, y), Radians::new(heading))
    }

    const CAR_L: Meters = Meters::new(4.6);
    const CAR_W: Meters = Meters::new(1.85);

    #[test]
    fn separated_boxes_do_not_overlap() {
        assert!(!obb_overlap(
            pose(0.0, 0.0, 0.0),
            CAR_L,
            CAR_W,
            pose(10.0, 0.0, 0.0),
            CAR_L,
            CAR_W
        ));
        assert!(!obb_overlap(
            pose(0.0, 0.0, 0.0),
            CAR_L,
            CAR_W,
            pose(0.0, 3.0, 0.0),
            CAR_L,
            CAR_W
        ));
    }

    #[test]
    fn touching_boxes_overlap() {
        // Nose-to-tail with slight interpenetration.
        assert!(obb_overlap(
            pose(0.0, 0.0, 0.0),
            CAR_L,
            CAR_W,
            pose(4.5, 0.0, 0.0),
            CAR_L,
            CAR_W
        ));
        // Side-by-side overlapping laterally.
        assert!(obb_overlap(
            pose(0.0, 0.0, 0.0),
            CAR_L,
            CAR_W,
            pose(0.0, 1.5, 0.0),
            CAR_L,
            CAR_W
        ));
    }

    #[test]
    fn rotated_boxes() {
        // A car rotated 90° at a diagonal offset that axis-aligned boxes
        // would miss.
        assert!(obb_overlap(
            pose(0.0, 0.0, 0.0),
            CAR_L,
            CAR_W,
            pose(2.5, 1.0, std::f64::consts::FRAC_PI_2),
            CAR_L,
            CAR_W
        ));
        // Same offset but both aligned: no contact (gap along y).
        assert!(!obb_overlap(
            pose(0.0, 0.0, 0.0),
            CAR_L,
            CAR_W,
            pose(2.5, 2.0, 0.0),
            CAR_L,
            CAR_W
        ));
    }

    #[test]
    fn diagonal_near_miss() {
        // Corner-to-corner near miss at 45°.
        let a = pose(0.0, 0.0, 0.0);
        let b = pose(4.0, 2.2, std::f64::consts::FRAC_PI_4);
        assert!(!obb_overlap(
            a,
            CAR_L,
            CAR_W,
            b,
            Meters::new(2.0),
            Meters::new(1.0)
        ));
    }

    #[test]
    fn identical_pose_overlaps() {
        assert!(obb_overlap(
            pose(5.0, 5.0, 1.0),
            CAR_L,
            CAR_W,
            pose(5.0, 5.0, 1.0),
            CAR_L,
            CAR_W
        ));
    }

    #[test]
    fn tracker_emits_once_per_episode() {
        let mut t = CollisionTracker::new();
        let e = ActorId(0);
        let o = ActorId(1);
        assert!(t.update(e, o, true), "first contact fires");
        assert!(!t.update(e, o, true), "sustained contact silent");
        assert!(!t.update(e, o, false), "separation silent");
        assert!(t.update(e, o, true), "new episode fires again");
    }

    #[test]
    fn tracker_tracks_pairs_independently() {
        let mut t = CollisionTracker::new();
        assert!(t.update(ActorId(0), ActorId(1), true));
        assert!(t.update(ActorId(0), ActorId(2), true));
        assert!(!t.update(ActorId(0), ActorId(1), true));
    }

    /// The catalogue's specs, or a custom one of the given size.
    fn spec(kind: usize, length: f64, width: f64) -> VehicleSpec {
        match kind {
            0 => VehicleSpec::passenger_car(),
            1 => VehicleSpec::van(),
            2 => VehicleSpec::bicycle(),
            3 => VehicleSpec::rc_model_car(),
            _ => VehicleSpec::builder("sized")
                .dimensions(Meters::new(length), Meters::new(width))
                .build(),
        }
    }

    proptest! {
        #[test]
        fn broad_phase_culls_only_disjoint_boxes(
            x in -2_000.0f64..2_000.0,
            y in -2_000.0f64..2_000.0,
            headings in (-7.0f64..7.0, -7.0f64..7.0),
            // 0: both headings random; 1: a's corner aimed at b's centre;
            // 2: both corners aimed at each other, the closest the boxes
            // come for their centre distance.
            aim in 0u8..3,
            bearing in -3.2f64..3.2,
            // Centre distance past the cull threshold: a few cases short
            // of it (not culled), most within a few metres beyond it.
            beyond in -0.5f64..3.0,
            kinds in (0usize..6, 0usize..6),
            size in (0.2f64..14.0, 0.2f64..3.5),
        ) {
            let a = spec(kinds.0, size.0, size.1);
            let b = spec(kinds.1, size.1 * 3.0, size.0 / 4.0);
            let (ra, rb) = (
                circumradius(a.length(), a.width()),
                circumradius(b.length(), b.width()),
            );
            let pa = Vec2::new(x, y);
            let reach = ra + rb + BROAD_PHASE_MARGIN + beyond;
            let pb = pa + Vec2::new(bearing.cos(), bearing.sin()) * reach;
            // The heading that points the (+l, +w) corner along `toward`,
            // turned by a milliradian-scale jitter.
            let corner_at = |spec: &VehicleSpec, toward: f64, jitter: f64| {
                toward - spec.width().get().atan2(spec.length().get()) + jitter * 1e-3
            };
            let heading_a = if aim >= 1 { corner_at(&a, bearing, headings.0) } else { headings.0 };
            let heading_b = if aim == 2 {
                corner_at(&b, bearing + std::f64::consts::PI, headings.1)
            } else {
                headings.1
            };
            if discs_apart(pa, ra, pb, rb) {
                prop_assert!(!obb_overlap(
                    Pose2::new(pa, Radians::new(heading_a)),
                    a.length(),
                    a.width(),
                    Pose2::new(pb, Radians::new(heading_b)),
                    b.length(),
                    b.width(),
                ));
            }
        }
    }
}

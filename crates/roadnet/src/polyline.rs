//! Arc-length-parameterised polylines for lane centrelines.

use rdsim_math::{Pose2, Vec2};
use rdsim_units::{Meters, Radians};

/// Segments per pruning chunk of the projection index.
const CHUNK: usize = 16;

/// Segments per sub-box, the index's second level inside a chunk.
const SUB: usize = 4;

/// Sub-boxes per chunk.
const SUBS_PER_CHUNK: usize = CHUNK / SUB;

/// Skip margin for the exact pruning in [`Polyline::project`]: a chunk,
/// sub-box or lane is only skipped when its box lower bound exceeds the
/// pruning threshold by more than this relative slack, which
/// conservatively absorbs the few-ulp rounding of the bound and candidate
/// arithmetic.
pub(crate) const PRUNE_SLACK: f64 = 1.0 - 1e-9;

/// Axis-aligned bounding box over a run of consecutive polyline vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegAabb {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl SegAabb {
    const EMPTY: SegAabb = SegAabb {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    fn include(&mut self, p: Vec2) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// The box over both boxes' vertices: the same bounds as including
    /// each of those vertices, since `min` and `max` are exact.
    fn union(self, other: SegAabb) -> SegAabb {
        SegAabb {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Lower bound on the squared distance from `p` to anything inside
    /// the box (0 when `p` is inside).
    #[inline]
    pub(crate) fn dist2_lower(&self, p: Vec2) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx * dx + dy * dy
    }
}

/// A polyline with precomputed cumulative arc lengths.
///
/// Lane centrelines are stored as polylines densely sampled from straights
/// and arcs; with ~1 m vertex spacing the chord error of an urban-radius
/// curve is far below lane-width tolerances.
///
/// Construction also builds a two-level bounding-box index (`CHUNK` = 16
/// segments per chunk box, `SUB` = 4 per sub-box) used by
/// [`project`](Self::project) to skip runs of segments that provably
/// cannot contain the nearest point — an exact optimisation: results are
/// bit-identical to the plain linear scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    points: Vec<Vec2>,
    /// `cum[i]` is the arc length from the start to `points[i]`.
    cum: Vec<f64>,
    /// Bounding box of vertices `[k*CHUNK ..= min(end, (k+1)*CHUNK)]` —
    /// i.e. every segment in chunk `k` including its shared endpoints.
    /// Built as the union of the chunk's sub-boxes.
    chunks: Vec<SegAabb>,
    /// Bounding box of vertices `[j*SUB ..= min(end, (j+1)*SUB)]`; chunk
    /// `k` holds sub-boxes `[k*SUBS_PER_CHUNK, (k+1)*SUBS_PER_CHUNK)`.
    subs: Vec<SegAabb>,
    /// Bounding box of the whole polyline.
    bounds: SegAabb,
}

impl Polyline {
    /// Creates a polyline from at least two points.
    ///
    /// Consecutive duplicate points are removed; at least two distinct
    /// points must remain.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two distinct points are supplied.
    pub fn new(points: Vec<Vec2>) -> Self {
        let mut dedup: Vec<Vec2> = Vec::with_capacity(points.len());
        for p in points {
            if dedup.last().is_none_or(|q| q.distance(p) > 1e-9) {
                dedup.push(p);
            }
        }
        assert!(
            dedup.len() >= 2,
            "polyline needs at least two distinct points"
        );
        let mut cum = Vec::with_capacity(dedup.len());
        let mut total = 0.0;
        cum.push(0.0);
        for w in dedup.windows(2) {
            total += w[0].distance(w[1]);
            cum.push(total);
        }
        let nseg = dedup.len() - 1;
        let subs: Vec<SegAabb> = (0..nseg)
            .step_by(SUB)
            .map(|start| {
                let mut bb = SegAabb::EMPTY;
                // Include both endpoints of every segment in the sub-box.
                for &p in &dedup[start..=(start + SUB).min(nseg)] {
                    bb.include(p);
                }
                bb
            })
            .collect();
        let chunks: Vec<SegAabb> = subs
            .chunks(SUBS_PER_CHUNK)
            .map(|group| group.iter().fold(SegAabb::EMPTY, |bb, &sub| bb.union(sub)))
            .collect();
        let bounds = chunks.iter().fold(SegAabb::EMPTY, |bb, &c| bb.union(c));
        Polyline {
            points: dedup,
            cum,
            chunks,
            subs,
            bounds,
        }
    }

    /// Exact lower bound on the squared distance from `p` to any point of
    /// the polyline (0 when `p` is inside its bounding box). Lets callers
    /// holding a candidate projection skip whole polylines that provably
    /// cannot beat it.
    pub fn distance_lower_bound_sq(&self, p: Vec2) -> f64 {
        self.bounds.dist2_lower(p)
    }

    /// The vertices of the polyline.
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// Total arc length.
    pub fn length(&self) -> Meters {
        Meters::new(*self.cum.last().expect("non-empty"))
    }

    /// The point at arc length `s`, clamped to `[0, length]`.
    pub fn point_at(&self, s: Meters) -> Vec2 {
        let (i, t) = self.locate(s.get());
        self.points[i].lerp(self.points[i + 1], t)
    }

    /// The unit tangent direction at arc length `s`.
    pub fn tangent_at(&self, s: Meters) -> Vec2 {
        let (i, _) = self.locate(s.get());
        self.segment_direction(i)
    }

    /// The unit direction of segment `i`.
    fn segment_direction(&self, i: usize) -> Vec2 {
        (self.points[i + 1] - self.points[i])
            .normalized()
            .expect("distinct points")
    }

    /// The heading of the tangent at arc length `s`.
    pub fn heading_at(&self, s: Meters) -> Radians {
        self.tangent_at(s).heading()
    }

    /// The pose (point + tangent heading) at arc length `s`.
    pub fn pose_at(&self, s: Meters) -> Pose2 {
        let (i, t) = self.locate(s.get());
        Pose2::new(
            self.points[i].lerp(self.points[i + 1], t),
            self.segment_direction(i).heading(),
        )
    }

    /// Point offset laterally from the centreline at arc length `s`
    /// (positive = left of travel direction).
    pub fn offset_point_at(&self, s: Meters, lateral: Meters) -> Vec2 {
        let pose = self.pose_at(s);
        pose.position + pose.left() * lateral.get()
    }

    /// Projects a world point onto the polyline.
    ///
    /// Returns `(s, lateral, distance)`: the arc length of the closest
    /// point, the **signed** lateral offset (positive = left of travel
    /// direction) and the absolute distance.
    pub fn project(&self, p: Vec2) -> (Meters, Meters, Meters) {
        self.project_within(p, self.vertex_bound(p))
    }

    /// The pruning bound of an unseeded [`project`](Self::project): the
    /// squared distance from `p` to the nearest of one vertex per chunk
    /// and the last vertex. Each is a real projection candidate, so the
    /// nearest squared distance cannot exceed it. Infinite for a single
    /// chunk, which has nothing to prune.
    pub(crate) fn vertex_bound(&self, p: Vec2) -> f64 {
        let nseg = self.points.len() - 1;
        let mut ub = f64::INFINITY;
        if self.chunks.len() > 1 {
            for start in (0..nseg).step_by(CHUNK) {
                ub = ub.min((p - self.points[start]).length_squared());
            }
            ub = ub.min((p - self.points[nseg]).length_squared());
        }
        ub
    }

    /// The pruning bound of a seeded search: the squared distance from `p`
    /// to the nearer endpoint of the segment at arc length `s`. An exact
    /// vertex distance, never a computed foot point: a box that contains
    /// the vertex has a lower bound no larger than it, however the
    /// rounding falls, so the seed's own chunk is never pruned.
    pub(crate) fn seed_bound(&self, p: Vec2, s: f64) -> f64 {
        let (i, _) = self.locate(s);
        (p - self.points[i])
            .length_squared()
            .min((p - self.points[i + 1]).length_squared())
    }

    /// The chunk scan behind every projection. `bound` must be no smaller
    /// than the squared distance of some candidate in the search it is
    /// part of (one vertex distance, or a lane already projected): any
    /// chunk or sub-box whose box lower bound exceeds min(bound, running
    /// best) — with [`PRUNE_SLACK`] absorbing float rounding — contains
    /// only candidates that can never *strictly* beat that candidate.
    /// Skipping them preserves the first-minimal-segment tie-break
    /// exactly. When every chunk is skipped the distance is infinite and
    /// the polyline loses to the candidate behind `bound`.
    pub(crate) fn project_within(&self, p: Vec2, bound: f64) -> (Meters, Meters, Meters) {
        let mut best_d2 = f64::INFINITY;
        let mut best_s = 0.0;
        let mut best_seg = 0usize;
        let mut best_point = self.points[0];
        let nseg = self.points.len() - 1;
        for (ci, bb) in self.chunks.iter().enumerate() {
            if bb.dist2_lower(p) * PRUNE_SLACK > best_d2.min(bound) {
                continue;
            }
            let first = ci * SUBS_PER_CHUNK;
            let last = (first + SUBS_PER_CHUNK).min(self.subs.len());
            for (j, sub) in self.subs[first..last].iter().enumerate() {
                if sub.dist2_lower(p) * PRUNE_SLACK > best_d2.min(bound) {
                    continue;
                }
                let start = (first + j) * SUB;
                for i in start..(start + SUB).min(nseg) {
                    let (t, q) = p.project_onto_segment(self.points[i], self.points[i + 1]);
                    let d2 = (p - q).length_squared();
                    if d2 < best_d2 {
                        best_d2 = d2;
                        best_seg = i;
                        best_point = q;
                        best_s = self.cum[i] + (self.cum[i + 1] - self.cum[i]) * t;
                    }
                }
            }
        }
        let lateral = self.segment_direction(best_seg).cross(p - best_point);
        (
            Meters::new(best_s),
            Meters::new(lateral),
            Meters::new(best_d2.sqrt()),
        )
    }

    /// Binary-searches the segment containing arc length `s`.
    ///
    /// Returns `(segment index, parameter within segment ∈ [0, 1])`.
    fn locate(&self, s: f64) -> (usize, f64) {
        let total = *self.cum.last().expect("non-empty");
        let s = s.clamp(0.0, total);
        // partition_point: first index with cum > s, then step back.
        let idx = self.cum.partition_point(|&c| c <= s);
        let i = idx.saturating_sub(1).min(self.points.len() - 2);
        let seg_len = self.cum[i + 1] - self.cum[i];
        let t = if seg_len > 1e-12 {
            ((s - self.cum[i]) / seg_len).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (i, t)
    }

    /// Builds a straight line from `start` to `end`, sampled every
    /// `max_spacing` metres.
    ///
    /// # Panics
    ///
    /// Panics if `max_spacing` is not positive or the points coincide.
    pub fn straight(start: Vec2, end: Vec2, max_spacing: Meters) -> Self {
        assert!(max_spacing.get() > 0.0, "spacing must be positive");
        let dist = start.distance(end);
        assert!(dist > 1e-9, "start and end coincide");
        let n = (dist / max_spacing.get()).ceil().max(1.0) as usize;
        let pts = (0..=n)
            .map(|k| start.lerp(end, k as f64 / n as f64))
            .collect();
        Polyline::new(pts)
    }

    /// Builds a circular arc around `center`, from `start_angle` sweeping
    /// `sweep` radians (positive = counter-clockwise), sampled with chord
    /// spacing ≈ `max_spacing`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` or `max_spacing` is not positive, or `sweep` is 0.
    pub fn arc(
        center: Vec2,
        radius: Meters,
        start_angle: Radians,
        sweep: Radians,
        max_spacing: Meters,
    ) -> Self {
        assert!(radius.get() > 0.0, "radius must be positive");
        assert!(max_spacing.get() > 0.0, "spacing must be positive");
        assert!(sweep.get().abs() > 1e-9, "sweep must be non-zero");
        let arc_len = radius.get() * sweep.get().abs();
        let n = (arc_len / max_spacing.get()).ceil().max(2.0) as usize;
        let pts = (0..=n)
            .map(|k| {
                let a = start_angle.get() + sweep.get() * k as f64 / n as f64;
                center + Vec2::new(a.cos(), a.sin()) * radius.get()
            })
            .collect();
        Polyline::new(pts)
    }

    /// Concatenates another polyline onto the end of this one.
    ///
    /// The first point of `other` should coincide with (or be close to) the
    /// last point of `self`; duplicates are merged.
    pub fn extend_with(mut self, other: &Polyline) -> Self {
        let mut pts = std::mem::take(&mut self.points);
        pts.extend_from_slice(other.points());
        Polyline::new(pts)
    }

    /// A copy offset laterally by `offset` metres (positive = left of the
    /// direction of travel). Used to derive parallel lanes from a reference
    /// centreline.
    pub fn offset(&self, offset: Meters) -> Polyline {
        let n = self.points.len();
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            // Average the directions of adjacent segments for smooth offsets.
            let dir_in = if i > 0 {
                (self.points[i] - self.points[i - 1]).normalized()
            } else {
                None
            };
            let dir_out = if i + 1 < n {
                (self.points[i + 1] - self.points[i]).normalized()
            } else {
                None
            };
            let dir = match (dir_in, dir_out) {
                (Some(a), Some(b)) => (a + b).normalized().unwrap_or(a),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => unreachable!("polyline has >= 2 points"),
            };
            pts.push(self.points[i] + dir.perp() * offset.get());
        }
        Polyline::new(pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn straight10() -> Polyline {
        Polyline::straight(Vec2::ZERO, Vec2::new(10.0, 0.0), Meters::new(1.0))
    }

    #[test]
    fn straight_length_and_points() {
        let p = straight10();
        assert!((p.length().get() - 10.0).abs() < 1e-12);
        assert_eq!(p.point_at(Meters::ZERO), Vec2::ZERO);
        let mid = p.point_at(Meters::new(5.0));
        assert!((mid.x - 5.0).abs() < 1e-12 && mid.y.abs() < 1e-12);
        // Clamping beyond the end.
        let end = p.point_at(Meters::new(99.0));
        assert!((end.x - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tangent_and_heading() {
        let p = straight10();
        let t = p.tangent_at(Meters::new(3.0));
        assert!((t.x - 1.0).abs() < 1e-12 && t.y.abs() < 1e-12);
        assert!(p.heading_at(Meters::new(3.0)).get().abs() < 1e-12);
    }

    #[test]
    fn projection_signed_lateral() {
        let p = straight10();
        // Point above the line (left of travel) → positive lateral.
        let (s, lat, d) = p.project(Vec2::new(4.0, 2.0));
        assert!((s.get() - 4.0).abs() < 1e-12);
        assert!((lat.get() - 2.0).abs() < 1e-12);
        assert!((d.get() - 2.0).abs() < 1e-12);
        // Point below → negative lateral.
        let (_, lat, _) = p.project(Vec2::new(4.0, -1.5));
        assert!((lat.get() + 1.5).abs() < 1e-12);
    }

    #[test]
    fn arc_geometry() {
        // Quarter circle radius 10 around origin starting at angle 0 (point
        // (10,0)) sweeping CCW to (0,10).
        let a = Polyline::arc(
            Vec2::ZERO,
            Meters::new(10.0),
            Radians::new(0.0),
            Radians::new(FRAC_PI_2),
            Meters::new(0.5),
        );
        let expected_len = 10.0 * FRAC_PI_2;
        assert!((a.length().get() - expected_len).abs() < 0.05);
        let start = a.point_at(Meters::ZERO);
        assert!((start.x - 10.0).abs() < 1e-9 && start.y.abs() < 1e-9);
        let end = a.point_at(a.length());
        assert!(end.x.abs() < 1e-9 && (end.y - 10.0).abs() < 1e-9);
        // Tangent at start of a CCW arc from angle 0 points in +y.
        let t = a.tangent_at(Meters::ZERO);
        assert!(t.y > 0.9);
    }

    #[test]
    fn dedup_and_panic_on_degenerate() {
        let p = Polyline::new(vec![
            Vec2::ZERO,
            Vec2::ZERO,
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 0.0),
        ]);
        assert_eq!(p.points().len(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn single_point_panics() {
        let _ = Polyline::new(vec![Vec2::ZERO, Vec2::ZERO]);
    }

    #[test]
    fn extend_joins() {
        let a = Polyline::straight(Vec2::ZERO, Vec2::new(5.0, 0.0), Meters::new(1.0));
        let b = Polyline::straight(Vec2::new(5.0, 0.0), Vec2::new(5.0, 5.0), Meters::new(1.0));
        let joined = a.extend_with(&b);
        assert!((joined.length().get() - 10.0).abs() < 1e-9);
        let p = joined.point_at(Meters::new(7.5));
        assert!((p.x - 5.0).abs() < 1e-9 && (p.y - 2.5).abs() < 1e-9);
    }

    #[test]
    fn offset_straight() {
        let p = straight10().offset(Meters::new(3.5));
        // Offset left of +x travel = +y.
        let q = p.point_at(Meters::new(5.0));
        assert!((q.y - 3.5).abs() < 1e-9);
        assert!((p.length().get() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn offset_arc_changes_radius() {
        let a = Polyline::arc(
            Vec2::ZERO,
            Meters::new(10.0),
            Radians::new(0.0),
            Radians::new(PI),
            Meters::new(0.2),
        );
        // Left of CCW travel is toward the centre → radius shrinks.
        let inner = a.offset(Meters::new(2.0));
        let r_mid = inner.point_at(inner.length() / 2.0).length();
        assert!((r_mid - 8.0).abs() < 0.05, "r_mid = {r_mid}");
    }

    #[test]
    fn pose_at_offset_point() {
        let p = straight10();
        let off = p.offset_point_at(Meters::new(2.0), Meters::new(-1.0));
        assert!((off.x - 2.0).abs() < 1e-9 && (off.y + 1.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn project_point_on_line_has_zero_lateral(s in 0.0f64..10.0) {
            let p = straight10();
            let q = p.point_at(Meters::new(s));
            let (s2, lat, d) = p.project(q);
            prop_assert!((s2.get() - s).abs() < 1e-9);
            prop_assert!(lat.get().abs() < 1e-9);
            prop_assert!(d.get() < 1e-9);
        }

        #[test]
        fn point_at_is_on_polyline(s in -5.0f64..15.0) {
            let p = straight10();
            let q = p.point_at(Meters::new(s));
            let (_, _, d) = p.project(q);
            prop_assert!(d.get() < 1e-9);
        }

        #[test]
        fn arc_points_at_radius(sweep in 0.2f64..6.0, r in 1.0f64..100.0) {
            let a = Polyline::arc(
                Vec2::new(3.0, -2.0),
                Meters::new(r),
                Radians::new(0.3),
                Radians::new(sweep),
                Meters::new(0.5),
            );
            for pt in a.points() {
                prop_assert!((pt.distance(Vec2::new(3.0, -2.0)) - r).abs() < 1e-9);
            }
        }
    }
}

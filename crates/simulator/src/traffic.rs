//! NPC traffic control: IDM car-following and lane-keeping steering.

use rdsim_roadnet::{LaneId, LanePosition, RoadNetwork};
use rdsim_units::{Meters, MetersPerSecond, MetersPerSecond2};
use rdsim_vehicle::{ControlInput, VehicleSpec, VehicleState};

/// Intelligent Driver Model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdmParams {
    /// Desired cruise speed.
    pub desired_speed: MetersPerSecond,
    /// Safe time headway to the leader.
    pub time_headway: rdsim_units::Seconds,
    /// Standstill minimum gap.
    pub min_gap: Meters,
    /// Maximum acceleration.
    pub max_accel: MetersPerSecond2,
    /// Comfortable deceleration.
    pub comfort_decel: MetersPerSecond2,
    /// Acceleration exponent (4 in the original IDM).
    pub exponent: f64,
}

impl IdmParams {
    /// Sensible urban defaults at the given cruise speed.
    pub fn urban(desired_speed: MetersPerSecond) -> Self {
        IdmParams {
            desired_speed,
            time_headway: rdsim_units::Seconds::new(1.5),
            min_gap: Meters::new(2.0),
            max_accel: MetersPerSecond2::new(1.5),
            comfort_decel: MetersPerSecond2::new(2.0),
            exponent: 4.0,
        }
    }
}

/// IDM acceleration for a vehicle at speed `v`, following a leader `gap`
/// metres ahead closing at `closing_speed` (positive = approaching).
/// `leader` is `None` on an open road.
pub fn idm_acceleration(
    params: &IdmParams,
    v: MetersPerSecond,
    leader: Option<(Meters, MetersPerSecond)>,
) -> MetersPerSecond2 {
    let v0 = params.desired_speed.get().max(0.1);
    let free = 1.0 - (v.get() / v0).powf(params.exponent);
    let interaction = match leader {
        None => 0.0,
        Some((gap, closing)) => {
            let s = gap.get().max(0.01);
            let s_star = params.min_gap.get()
                + (v.get() * params.time_headway.get()
                    + v.get() * closing.get()
                        / (2.0 * (params.max_accel.get() * params.comfort_decel.get()).sqrt()))
                .max(0.0);
            (s_star / s).powi(2)
        }
    };
    MetersPerSecond2::new(params.max_accel.get() * (free - interaction))
}

/// Pure-pursuit lane keeping: computes a normalised steering command that
/// tracks a lane centreline (optionally offset laterally, e.g. cyclists
/// hugging the lane edge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneKeeper {
    /// Minimum lookahead distance.
    pub min_lookahead: Meters,
    /// Additional lookahead per m/s of speed.
    pub lookahead_gain: f64,
    /// Desired lateral offset from the centreline (positive = left).
    pub lateral_offset: Meters,
}

impl Default for LaneKeeper {
    fn default() -> Self {
        LaneKeeper {
            min_lookahead: Meters::new(5.0),
            lookahead_gain: 0.8,
            lateral_offset: Meters::ZERO,
        }
    }
}

impl LaneKeeper {
    /// Steering command in `[-1, 1]` to track a lane (following
    /// successors as needed) from the current state; `pos` is the
    /// vehicle's projection onto that lane.
    pub fn steer(
        &self,
        net: &RoadNetwork,
        pos: LanePosition,
        state: &VehicleState,
        spec: &VehicleSpec,
    ) -> f64 {
        let lookahead =
            Meters::new(self.min_lookahead.get() + self.lookahead_gain * state.speed.get().abs());
        let target_pos = net.advance(pos, lookahead);
        let target_lane = net.lane(target_pos.lane);
        let target = target_lane
            .centerline()
            .offset_point_at(target_pos.s, self.lateral_offset);
        let err = state.pose.heading_error_to(target);
        // Pure pursuit: δ = atan(2 L sin(err) / Ld).
        let ld = lookahead.get().max(1.0);
        let delta = (2.0 * spec.wheelbase().get() * err.sin() / ld).atan();
        (delta / spec.max_steer().get()).clamp(-1.0, 1.0)
    }
}

/// Configuration of a lane-following NPC.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneFollowConfig {
    /// Car-following parameters.
    pub idm: IdmParams,
    /// Steering behaviour.
    pub keeper: LaneKeeper,
    /// Horizon when searching for a leader.
    pub leader_horizon: Meters,
    /// Track this lane's chain instead of the nearest lane — set by
    /// scenario scripts to command lane changes.
    pub lane_override: Option<LaneId>,
}

impl LaneFollowConfig {
    /// Urban defaults for the given cruise speed.
    pub fn urban(desired_speed: MetersPerSecond) -> Self {
        LaneFollowConfig {
            idm: IdmParams::urban(desired_speed),
            keeper: LaneKeeper::default(),
            leader_horizon: Meters::new(80.0),
            lane_override: None,
        }
    }

    /// Returns a copy tracking the given lane chain.
    pub fn with_lane(mut self, lane: LaneId) -> Self {
        self.lane_override = Some(lane);
        self
    }

    /// Cyclist defaults: slow, hugging the right edge of the lane.
    pub fn cyclist(desired_speed: MetersPerSecond) -> Self {
        LaneFollowConfig {
            idm: IdmParams {
                desired_speed,
                time_headway: rdsim_units::Seconds::new(1.2),
                min_gap: Meters::new(1.0),
                max_accel: MetersPerSecond2::new(0.8),
                comfort_decel: MetersPerSecond2::new(1.5),
                exponent: 4.0,
            },
            keeper: LaneKeeper {
                lateral_offset: Meters::new(-1.2),
                ..LaneKeeper::default()
            },
            leader_horizon: Meters::new(30.0),
            lane_override: None,
        }
    }

    /// Converts an IDM acceleration into pedal commands for `spec`.
    pub fn pedals(&self, accel: MetersPerSecond2, spec: &VehicleSpec) -> (f64, f64) {
        if accel.get() >= 0.0 {
            ((accel.get() / spec.max_accel().get()).clamp(0.0, 1.0), 0.0)
        } else {
            (0.0, (-accel.get() / spec.max_brake().get()).clamp(0.0, 1.0))
        }
    }

    /// Full control computation for one step; `pos` is the vehicle's
    /// projection onto the lane it follows.
    pub fn control(
        &self,
        net: &RoadNetwork,
        pos: LanePosition,
        state: &VehicleState,
        spec: &VehicleSpec,
        leader: Option<(Meters, MetersPerSecond)>,
    ) -> ControlInput {
        let accel = idm_acceleration(&self.idm, state.speed, leader);
        let (throttle, brake) = self.pedals(accel, spec);
        let steer = self.keeper.steer(net, pos, state, spec);
        ControlInput::new(throttle, brake, steer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdsim_math::{Pose2, Vec2};
    use rdsim_roadnet::town05;
    use rdsim_units::Seconds;

    fn params() -> IdmParams {
        IdmParams::urban(MetersPerSecond::new(14.0))
    }

    /// Where `state` projects onto `lane`.
    fn on_lane(net: &RoadNetwork, lane: LaneId, state: &VehicleState) -> LanePosition {
        net.project_onto_lane(lane, state.position()).position
    }

    #[test]
    fn idm_free_road_accelerates_to_desired() {
        let p = params();
        let a0 = idm_acceleration(&p, MetersPerSecond::ZERO, None);
        assert!((a0.get() - p.max_accel.get()).abs() < 1e-9);
        let a_at_desired = idm_acceleration(&p, p.desired_speed, None);
        assert!(a_at_desired.get().abs() < 1e-9);
        let a_over = idm_acceleration(&p, p.desired_speed * 1.2, None);
        assert!(a_over.get() < 0.0);
    }

    #[test]
    fn idm_close_gap_brakes() {
        let p = params();
        let a = idm_acceleration(
            &p,
            MetersPerSecond::new(14.0),
            Some((Meters::new(5.0), MetersPerSecond::new(0.0))),
        );
        assert!(a.get() < -2.0, "should brake hard at 5 m gap: {a}");
    }

    #[test]
    fn idm_large_gap_barely_interacts() {
        let p = params();
        let free = idm_acceleration(&p, MetersPerSecond::new(10.0), None);
        let far = idm_acceleration(
            &p,
            MetersPerSecond::new(10.0),
            Some((Meters::new(500.0), MetersPerSecond::ZERO)),
        );
        assert!((free.get() - far.get()).abs() < 0.05);
    }

    #[test]
    fn idm_closing_speed_increases_braking() {
        let p = params();
        let steady = idm_acceleration(
            &p,
            MetersPerSecond::new(14.0),
            Some((Meters::new(30.0), MetersPerSecond::ZERO)),
        );
        let closing = idm_acceleration(
            &p,
            MetersPerSecond::new(14.0),
            Some((Meters::new(30.0), MetersPerSecond::new(5.0))),
        );
        assert!(closing.get() < steady.get());
    }

    #[test]
    fn lane_keeper_steers_toward_centerline() {
        let net = town05();
        let lane = net.spawn_point("ego-start").unwrap().lane;
        let spec = VehicleSpec::passenger_car();
        let keeper = LaneKeeper::default();
        // Vehicle offset 1.5 m left of the centreline, heading along it:
        // should steer right (negative).
        let state = VehicleState::moving(
            Pose2::new(Vec2::new(50.0, 1.5), rdsim_units::Radians::new(0.0)),
            MetersPerSecond::new(10.0),
        );
        let steer = keeper.steer(&net, on_lane(&net, lane, &state), &state, &spec);
        assert!(steer < -0.01, "steer {steer}");
        // Offset right: steer left.
        let state = VehicleState::moving(
            Pose2::new(Vec2::new(50.0, -1.5), rdsim_units::Radians::new(0.0)),
            MetersPerSecond::new(10.0),
        );
        let steer = keeper.steer(&net, on_lane(&net, lane, &state), &state, &spec);
        assert!(steer > 0.01, "steer {steer}");
    }

    #[test]
    fn lane_keeper_respects_offset_target() {
        let net = town05();
        let lane = net.spawn_point("ego-start").unwrap().lane;
        let spec = VehicleSpec::bicycle();
        let keeper = LaneKeeper {
            lateral_offset: Meters::new(-1.2),
            ..LaneKeeper::default()
        };
        // On the centreline, a cyclist aiming for -1.2 m steers right.
        let state = VehicleState::moving(
            Pose2::new(Vec2::new(50.0, 0.0), rdsim_units::Radians::new(0.0)),
            MetersPerSecond::new(5.0),
        );
        assert!(keeper.steer(&net, on_lane(&net, lane, &state), &state, &spec) < -0.01);
    }

    #[test]
    fn pedals_mapping() {
        let cfg = LaneFollowConfig::urban(MetersPerSecond::new(14.0));
        let spec = VehicleSpec::passenger_car();
        let (t, b) = cfg.pedals(MetersPerSecond2::new(1.75), &spec);
        assert!((t - 0.5).abs() < 1e-9);
        assert_eq!(b, 0.0);
        let (t, b) = cfg.pedals(MetersPerSecond2::new(-4.0), &spec);
        assert_eq!(t, 0.0);
        assert!((b - 0.5).abs() < 1e-9);
        // Saturation.
        let (t, _) = cfg.pedals(MetersPerSecond2::new(99.0), &spec);
        assert_eq!(t, 1.0);
    }

    #[test]
    fn control_composes() {
        let net = town05();
        let lane = net.spawn_point("ego-start").unwrap().lane;
        let cfg = LaneFollowConfig::urban(MetersPerSecond::new(14.0));
        let spec = VehicleSpec::passenger_car();
        let state = VehicleState::moving(
            Pose2::new(Vec2::new(50.0, 0.0), rdsim_units::Radians::new(0.0)),
            MetersPerSecond::new(5.0),
        );
        let pos = on_lane(&net, lane, &state);
        let c = cfg.control(&net, pos, &state, &spec, None);
        // IDM max accel 1.5 m/s² on a 3.5 m/s² powertrain ⇒ ~0.4 throttle.
        assert!(c.throttle.get() > 0.3, "below desired speed: accelerate");
        let c_blocked = cfg.control(
            &net,
            pos,
            &state,
            &spec,
            Some((Meters::new(3.0), MetersPerSecond::new(5.0))),
        );
        assert!(c_blocked.brake.get() > 0.3, "braking for blocker");
    }

    #[test]
    fn cyclist_config_is_gentler() {
        let cyc = LaneFollowConfig::cyclist(MetersPerSecond::new(4.0));
        let urb = LaneFollowConfig::urban(MetersPerSecond::new(14.0));
        assert!(cyc.idm.max_accel < urb.idm.max_accel);
        assert!(cyc.keeper.lateral_offset.get() < 0.0);
    }

    proptest! {
        #[test]
        fn idm_accel_bounded(
            v in 0.0f64..40.0,
            gap in 0.5f64..200.0,
            closing in -10.0f64..10.0,
        ) {
            let p = params();
            let a = idm_acceleration(
                &p,
                MetersPerSecond::new(v),
                Some((Meters::new(gap), MetersPerSecond::new(closing))),
            );
            prop_assert!(a.get() <= p.max_accel.get() + 1e-9);
            prop_assert!(a.get().is_finite());
        }

        #[test]
        fn idm_monotone_in_gap(v in 1.0f64..20.0, g1 in 3.0f64..50.0, extra in 1.0f64..100.0) {
            let p = params();
            let near = idm_acceleration(&p, MetersPerSecond::new(v), Some((Meters::new(g1), MetersPerSecond::ZERO)));
            let far = idm_acceleration(&p, MetersPerSecond::new(v), Some((Meters::new(g1 + extra), MetersPerSecond::ZERO)));
            prop_assert!(far.get() >= near.get() - 1e-9);
        }

        #[test]
        fn steer_always_in_range(x in 0.0f64..500.0, y in -10.0f64..10.0, h in -1.0f64..1.0, v in 0.0f64..20.0) {
            let net = town05();
            let lane = net.spawn_point("ego-start").unwrap().lane;
            let spec = VehicleSpec::passenger_car();
            let keeper = LaneKeeper::default();
            let state = VehicleState::moving(
                Pose2::new(Vec2::new(x, y), rdsim_units::Radians::new(h)),
                MetersPerSecond::new(v),
            );
            let s = keeper.steer(&net, on_lane(&net, lane, &state), &state, &spec);
            prop_assert!((-1.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn idm_time_headway_spacing() {
        // In equilibrium (a = 0, same speeds), gap ≈ min_gap + v·T.
        let p = params();
        let v = MetersPerSecond::new(10.0);
        let eq_gap = p.min_gap.get() + v.get() * p.time_headway.get();
        let a = idm_acceleration(&p, v, Some((Meters::new(eq_gap), MetersPerSecond::ZERO)));
        // Slight residual from the free-road term; must be small.
        assert!(a.get().abs() < 0.8, "near equilibrium: {a}");
        let _ = Seconds::new(0.0); // keep the import exercised
    }
}

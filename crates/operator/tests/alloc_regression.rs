//! Steady-state allocation gate for a driver-model session.
//!
//! Run with the counting allocator enabled:
//!
//! ```text
//! cargo test -p rdsim-operator --features alloc-count --release --test alloc_regression
//! ```
//!
//! `rdsim-core`'s gate drives the datapath with a scripted operator; this
//! one drives it with the human driver model and the study's moving
//! traffic (ego, lead vehicle, two cyclists) under live delay, jitter,
//! loss, duplication, corruption and reordering. After a warm-up that
//! fills the percept queues and their pool of spare scenes, a step must perform
//! **zero** heap allocations: the model clones each frame into a recycled
//! scene, hands released scenes back to the decoder through
//! `recycle_frame`, and replans from reused percept copies. The operator's
//! own share is reported apart from the rest of the step.
#![cfg(feature = "alloc-count")]

use rdsim_core::{OperatorSubsystem, RdsSession, RdsSessionConfig, ReceivedFrame};
use rdsim_netem::{InjectionWindow, NetemConfig};
use rdsim_obs::{alloc_counts, AllocCounts};
use rdsim_operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim_roadnet::town05;
use rdsim_simulator::{ActorKind, Behavior, CameraConfig, LaneFollowConfig, World};
use rdsim_units::{Hertz, Meters, MetersPerSecond, Millis, Ratio, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, VehicleSpec};

#[global_allocator]
static ALLOC: rdsim_obs::CountingAlloc = rdsim_obs::CountingAlloc;

/// 14 s: the spare-scene pool reaches its high-water mark (the most
/// scenes ever pending in both percept queues at once) by about 13 s.
const WARMUP_STEPS: u64 = 700;
/// 14 s to 40 s. The ego starts crossing lane markings at 29.7 s, so
/// the window covers steps that log lane invasions.
const MEASURE_STEPS: u64 = 1_300;

/// Every qdisc branch in one config (as in `rdsim-core`'s gate).
fn stress_config() -> NetemConfig {
    NetemConfig::default()
        .with_jittered_delay(Millis::new(60.0), Millis::new(20.0), Ratio::new(0.25))
        .with_loss(Ratio::new(0.02))
        .with_duplicate(Ratio::new(0.05))
        .with_corrupt(Ratio::new(0.05))
        .with_reorder(Ratio::new(0.05), 3)
        .with_rate(40_000_000)
}

fn session() -> RdsSession {
    let seed = 7_777;
    let mut world = World::new(town05(), seed);
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    world.spawn_npc_at(
        "lead-start",
        ActorKind::Vehicle,
        VehicleSpec::passenger_car(),
        Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(9.0))),
        MetersPerSecond::new(9.0),
    );
    for name in ["cyclist-1", "cyclist-2"] {
        let mut cfg = LaneFollowConfig::cyclist(MetersPerSecond::new(4.0));
        cfg.keeper.lateral_offset = Meters::new(-2.2);
        world.spawn_npc_at(
            name,
            ActorKind::Cyclist,
            VehicleSpec::bicycle(),
            Behavior::LaneFollow(cfg),
            MetersPerSecond::new(4.0),
        );
    }
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(25.0), 2_000),
        timeline: true,
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(2),
        SimDuration::from_secs(2),
        stress_config(),
    ))
    .expect("non-overlapping windows");
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(6),
        SimDuration::from_secs(54),
        stress_config(),
    ))
    .expect("non-overlapping windows");
    s.preallocate(SimDuration::from_secs(40));
    s
}

/// The driver model, with the allocator events of its own calls summed
/// apart from the rest of the step.
struct CountingDriver {
    inner: HumanDriverModel,
    spent: AllocCounts,
}

impl CountingDriver {
    fn measure<T>(&mut self, call: impl FnOnce(&mut HumanDriverModel) -> T) -> T {
        let before = alloc_counts();
        let out = call(&mut self.inner);
        let spent = alloc_counts().since(before);
        self.spent.allocs += spent.allocs;
        self.spent.bytes += spent.bytes;
        out
    }
}

impl OperatorSubsystem for CountingDriver {
    fn on_frame(&mut self, frame: ReceivedFrame) {
        self.measure(|d| d.on_frame(frame));
    }

    fn on_bad_frame(&mut self, received_at: SimTime) {
        self.measure(|d| d.on_bad_frame(received_at));
    }

    fn command(&mut self, now: SimTime) -> ControlInput {
        self.measure(|d| d.command(now))
    }

    fn recycle_frame(&mut self) -> Option<ReceivedFrame> {
        self.measure(|d| d.recycle_frame())
    }
}

#[test]
fn driver_model_steady_state_step_allocates_nothing() {
    let mut s = session();
    let lane = s.world().network().spawn_point("ego-start").unwrap().lane;
    let mut inner = HumanDriverModel::new(&SubjectProfile::typical("T01"), town05(), 7_777);
    inner.set_instruction(Instruction::drive(lane, MetersPerSecond::new(9.0)));
    let mut driver = CountingDriver {
        inner,
        spent: AllocCounts {
            allocs: 0,
            bytes: 0,
        },
    };
    for _ in 0..WARMUP_STEPS {
        s.step(&mut driver);
    }

    driver.spent = AllocCounts {
        allocs: 0,
        bytes: 0,
    };
    let invasions_before = s.world().lane_invasion_count();
    let start = alloc_counts();
    for _ in 0..MEASURE_STEPS {
        s.step(&mut driver);
    }
    let spent = alloc_counts().since(start);
    let invasions = s.world().lane_invasion_count() - invasions_before;
    assert_eq!(
        spent.allocs, 0,
        "a driver-model step allocated {} times ({} B) over {MEASURE_STEPS} steps; \
         the driver model's own calls: {} allocs / {} B",
        spent.allocs, spent.bytes, driver.spent.allocs, driver.spent.bytes
    );

    // The run was live: frames reached the driver, the ego moved, and
    // the window logged lane invasions.
    assert!(driver.inner.perception().frames_seen() > 0);
    assert!(invasions > 0, "no lane invasion in the measured window");
    let ego = s.world().ego_id().expect("ego spawned");
    assert!(s.world().actor(ego).state().speed.get() > 1.0);
}

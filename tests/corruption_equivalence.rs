//! Pins the corruption path end to end.
//!
//! No study, campaign or trace enables netem corruption, so the seed-matrix
//! goldens never exercise a flipped bit reaching a checksum. This suite
//! does: an urban lane-follow drive with corruption and duplication live
//! for most of the run, at three frame sizes. A frame size of 0 sends the
//! bare body, so every drawn flip lands in it and most frames fail their
//! checksum; 4,000 and 20,000 bytes spread the draw over the wire size, so
//! most flips fall past the body and change nothing. Duplicates make the
//! qdisc clone a payload that a later corruption must copy instead of
//! flipping in place.
//!
//! The pinned counts and digests were recorded with the byte-serial FNV-1a
//! codec over zero-padded frames. Any checksum that rejects every
//! single-bit error in the body, with the same RNG draws, keeps them.

use rdsim::core::{Digestible, RdsSession, RdsSessionConfig};
use rdsim::netem::{InjectionWindow, NetemConfig};
use rdsim::operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim::roadnet::town05;
use rdsim::simulator::{ActorKind, Behavior, CameraConfig, LaneFollowConfig, World};
use rdsim::units::{Hertz, MetersPerSecond, Ratio, SimDuration, SimTime};
use rdsim::vehicle::VehicleSpec;

/// What one pinned run must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    frames_delivered: u64,
    frames_corrupted: u64,
    commands_delivered: u64,
    commands_corrupted: u64,
    digest: u64,
}

fn corrupted_drive(seed: u64, frame_bytes: usize) -> Outcome {
    let net = town05();
    let lane = net.spawn_point("ego-start").expect("spawn").lane;
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    world.spawn_npc_at(
        "lead-start",
        ActorKind::Vehicle,
        VehicleSpec::passenger_car(),
        Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(9.0))),
        MetersPerSecond::new(9.0),
    );
    let config = RdsSessionConfig {
        camera: CameraConfig::fixed(Hertz::new(27.0), frame_bytes),
        ..RdsSessionConfig::default()
    };
    let mut s = RdsSession::new(world, config, seed);
    s.schedule_fault(InjectionWindow::new(
        SimTime::from_secs(1),
        SimDuration::from_secs(25),
        NetemConfig::default()
            .with_corrupt(Ratio::from_percent(30.0))
            .with_duplicate(Ratio::from_percent(10.0)),
    ))
    .expect("one window");
    let mut d = HumanDriverModel::new(&SubjectProfile::typical("probe"), net, seed);
    d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(12.0)));
    s.run(&mut d, SimDuration::from_secs(30));
    let stats = s.stats();
    Outcome {
        frames_delivered: stats.frames_delivered,
        frames_corrupted: stats.frames_corrupted,
        commands_delivered: stats.commands_delivered,
        commands_corrupted: stats.commands_corrupted,
        digest: s.into_log().digest(),
    }
}

#[test]
fn corruption_outcomes_match_the_pinned_runs() {
    let pinned = [
        (4, 4_000, 870, 7, 1346, 268, 0xf6e0_e564_4a87_38b3),
        (9, 20_000, 879, 1, 1333, 299, 0x2a8d_7ea9_0aa9_f081),
        (11, 0, 649, 238, 1362, 251, 0xe5f7_00dd_5495_65ac),
    ];
    for (seed, frame_bytes, fd, fc, cd, cc, digest) in pinned {
        assert_eq!(
            corrupted_drive(seed, frame_bytes),
            Outcome {
                frames_delivered: fd,
                frames_corrupted: fc,
                commands_delivered: cd,
                commands_corrupted: cc,
                digest,
            },
            "seed {seed}, {frame_bytes}-byte frames"
        );
    }
}

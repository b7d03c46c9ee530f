//! Whole-stack determinism: a campaign seed fully determines every byte
//! of the logs — the property that makes the reproduction auditable.
//!
//! Beyond the original same-seed/different-seed spot checks, this suite
//! pins a **seed matrix** — every paper fault condition plus the fault-free
//! golden condition, each at three fixed seeds — against digests recorded
//! in `tests/golden/seed_matrix.txt`. Any change to the simulator, the
//! netem emulator, the driver model or the RNG derivation chain shows up
//! as a digest drift with a per-condition diff. After an *intentional*
//! behaviour change, regenerate the file with:
//!
//! ```text
//! RDSIM_BLESS=1 cargo test --test determinism seed_matrix
//! ```
//!
//! and commit the diff together with the change that caused it.

use rdsim::core::{Digestible, PaperFault, RdsSession, RdsSessionConfig, RunKind};
use rdsim::experiments::{run_protocol, ScenarioConfig};
use rdsim::netem::NetemConfig;
use rdsim::operator::{HumanDriverModel, Instruction, SubjectProfile};
use rdsim::roadnet::town05;
use rdsim::simulator::{ActorKind, Behavior, LaneFollowConfig, World};
use rdsim::units::{MetersPerSecond, Ratio, SimDuration};
use rdsim::vehicle::VehicleSpec;
use std::fmt::Write as _;
use std::path::PathBuf;

fn run_once(seed: u64) -> rdsim::core::RunLog {
    let net = town05();
    let lane = net.spawn_point("ego-start").expect("spawn").lane;
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    world.spawn_npc_at(
        "lead-start",
        ActorKind::Vehicle,
        VehicleSpec::passenger_car(),
        Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(8.0))),
        MetersPerSecond::new(8.0),
    );
    let mut s = RdsSession::new(world, RdsSessionConfig::default(), seed);
    s.inject_now(NetemConfig::default().with_loss(Ratio::from_percent(5.0)));
    let mut d = HumanDriverModel::new(&SubjectProfile::typical("det"), net, seed);
    d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(11.0)));
    s.run(&mut d, SimDuration::from_secs(20));
    s.into_log()
}

#[test]
fn identical_seeds_produce_identical_logs() {
    let a = run_once(97);
    let b = run_once(97);
    // Full structural equality: every sample, event and fault record.
    assert_eq!(a, b);
}

#[test]
fn different_seeds_diverge() {
    let a = run_once(97);
    let b = run_once(98);
    assert_ne!(
        a.ego_samples().last().map(|s| s.position),
        b.ego_samples().last().map(|s| s.position)
    );
}

// ---------------------------------------------------------------------------
// Seed-matrix regression suite
// ---------------------------------------------------------------------------

/// The three pinned seeds of the matrix. Arbitrary but frozen: changing
/// them invalidates the golden file.
const MATRIX_SEEDS: [u64; 3] = [11, 97, 1234];

/// `None` is the fault-free golden condition; the rest are Table II.
const MATRIX_CONDITIONS: [Option<PaperFault>; 6] = [
    None,
    Some(PaperFault::Delay5ms),
    Some(PaperFault::Delay25ms),
    Some(PaperFault::Delay50ms),
    Some(PaperFault::Loss2Pct),
    Some(PaperFault::Loss5Pct),
];

fn condition_label(fault: Option<PaperFault>) -> String {
    match fault {
        None => "golden".to_owned(),
        Some(f) => format!("fault-{}", f.label()),
    }
}

/// One short ambient-fault run: the given condition active for the whole
/// 12 simulated seconds, digested over the complete run log.
fn matrix_digest(fault: Option<PaperFault>, seed: u64) -> u64 {
    let net = town05();
    let lane = net.spawn_point("ego-start").expect("spawn").lane;
    let mut world = World::new(net.clone());
    world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
    world.spawn_npc_at(
        "lead-start",
        ActorKind::Vehicle,
        VehicleSpec::passenger_car(),
        Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(8.0))),
        MetersPerSecond::new(8.0),
    );
    let mut s = RdsSession::new(world, RdsSessionConfig::default(), seed);
    if let Some(f) = fault {
        s.inject_now(f.config());
    }
    let mut d = HumanDriverModel::new(&SubjectProfile::typical("matrix"), net, seed);
    d.set_instruction(Instruction::drive(lane, MetersPerSecond::new(11.0)));
    s.run(&mut d, SimDuration::from_secs(12));
    s.into_log().digest()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seed_matrix.txt")
}

/// Every fault condition × every pinned seed, checked against the golden
/// digest file. On drift the assertion message lists exactly which
/// conditions moved, so a delay-only regression is readable at a glance.
#[test]
fn seed_matrix_digests_match_golden_file() {
    let mut actual = String::from(
        "# condition seed digest — regenerate with RDSIM_BLESS=1 (see tests/determinism.rs)\n",
    );
    for fault in MATRIX_CONDITIONS {
        for seed in MATRIX_SEEDS {
            let digest = matrix_digest(fault, seed);
            writeln!(
                actual,
                "{} {} {:016x}",
                condition_label(fault),
                seed,
                digest
            )
            .unwrap();
        }
    }

    let path = golden_path();
    if std::env::var_os("RDSIM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with RDSIM_BLESS=1 to create it",
            path.display()
        )
    });

    if expected != actual {
        let mut diff = String::new();
        for (want, got) in expected.lines().zip(actual.lines()) {
            if want != got {
                writeln!(diff, "  expected: {want}\n  actual:   {got}").unwrap();
            }
        }
        if expected.lines().count() != actual.lines().count() {
            writeln!(
                diff,
                "  line-count changed: {} -> {}",
                expected.lines().count(),
                actual.lines().count()
            )
            .unwrap();
        }
        panic!(
            "seed-matrix digests drifted from {}:\n{diff}\
             If this change is intentional, regenerate with:\n  \
             RDSIM_BLESS=1 cargo test --test determinism seed_matrix",
            path.display()
        );
    }
}

#[test]
fn protocol_runs_reproduce_schedules_and_trajectories() {
    let profile = SubjectProfile::typical("det2");
    let cfg = ScenarioConfig {
        laps: 1,
        progress_target: Some(300.0),
        max_duration: SimDuration::from_secs(90),
        ..ScenarioConfig::default()
    };
    let a = run_protocol(&profile, RunKind::Faulty, 1234, &cfg);
    let b = run_protocol(&profile, RunKind::Faulty, 1234, &cfg);
    assert_eq!(a.record.log, b.record.log);
    assert_eq!(a.record.schedule, b.record.schedule);
    assert_eq!(a.progress, b.progress);
    assert_eq!(a.frames_seen, b.frames_seen);
}

//! Determinism-equivalence harness: the parallel campaign executor must be
//! *invisible* in every observable output.
//!
//! The property asserted here is the strong one from DESIGN §8: for a fixed
//! campaign seed the per-run digests (vehicle trajectories, collision
//! events, netem injection decisions, metric outputs, telemetry counters —
//! everything except wall-clock) are identical whether the runs execute
//! serially, on 2 workers, on 4 workers, or are repeated within the same
//! process. Worker count may only change *wall-clock*, never *content*.
//!
//! These in-process checks run a small protocol matrix so they stay cheap
//! in debug builds; the full-campaign variant (every roster subject,
//! `repro --quick --jobs 1` vs `--jobs 4`, byte-identical stdout including
//! the campaign digest) runs in release mode in CI's
//! `parallel-equivalence` job and behind `--ignored` here.

use rdsim::core::RunKind;
use rdsim::experiments::campaign_digest;
use rdsim::experiments::{
    execute_ordered, run_digest, run_protocol, run_seed, run_study_with_exec, ScenarioConfig,
};
use rdsim::operator::SubjectProfile;

/// A deliberately short scenario: long enough to traverse fault windows
/// and produce TTC/SRR-bearing logs, short enough for debug-build CI.
fn short_config() -> ScenarioConfig {
    ScenarioConfig {
        progress_target: Some(120.0),
        ..ScenarioConfig::quick()
    }
}

/// The mini campaign: 2 subjects × {golden, faulty}, seeds derived exactly
/// like the full study does.
fn digests_with_jobs(jobs: usize) -> Vec<u64> {
    let subjects = ["T1", "T2"];
    let kinds = [RunKind::Golden, RunKind::Faulty];
    let matrix: Vec<(usize, RunKind)> = subjects
        .iter()
        .enumerate()
        .flat_map(|(i, _)| kinds.iter().map(move |&k| (i, k)))
        .collect();
    let config = short_config();
    execute_ordered(
        matrix,
        jobs,
        1,
        |chunk| {
            chunk
                .into_iter()
                .map(|(subject, kind)| {
                    let profile = SubjectProfile::typical(subjects[subject]);
                    let seed = run_seed(4242, &profile.id, kind);
                    run_digest(&run_protocol(&profile, kind, seed, &config))
                })
                .collect()
        },
        |_| {},
    )
}

#[test]
fn worker_count_never_changes_run_digests() {
    let serial = digests_with_jobs(1);
    assert_eq!(serial.len(), 4);
    // All four runs are distinct work — a digest collision here would mean
    // the seed derivation collapsed two conditions onto one trajectory.
    for (i, a) in serial.iter().enumerate() {
        for b in &serial[i + 1..] {
            assert_ne!(a, b, "distinct (subject, kind) runs must not collide");
        }
    }

    let two = digests_with_jobs(2);
    let four = digests_with_jobs(4);
    assert_eq!(serial, two, "1 worker vs 2 workers diverged");
    assert_eq!(serial, four, "1 worker vs 4 workers diverged");
}

#[test]
fn repeated_parallel_execution_is_stable_in_process() {
    // Two back-to-back parallel executions inside one process: catches
    // leaked global state (statics, thread-local RNGs) that a fresh-process
    // comparison would miss.
    let first = digests_with_jobs(4);
    let second = digests_with_jobs(4);
    assert_eq!(first, second, "in-process repeat diverged");
}

/// Full quick-campaign equivalence over the whole 12-subject roster. Slow
/// in debug builds, so ignored by default — CI runs the same property in
/// release mode through the `repro` binary (byte-identical stdout for
/// `--jobs 1` vs `--jobs 4`); run locally with:
///
/// ```text
/// cargo test --release --test parallel_equivalence -- --ignored
/// ```
#[test]
#[ignore = "full roster; covered in release mode by CI's parallel-equivalence job"]
fn full_quick_campaign_is_jobs_invariant() {
    let config = ScenarioConfig::quick();
    let serial = run_study_with_exec(7, &config, 1, 1);
    let parallel = run_study_with_exec(7, &config, 4, 1);
    assert_eq!(
        campaign_digest(&serial),
        campaign_digest(&parallel),
        "campaign digest must not depend on worker count"
    );
}

//! Trace replay must be schedule-invisible, exactly like every other
//! fault source: for a fixed seed, a run driven by a measured-network
//! trace digests identically whether it executes serially, in executor
//! chunks of several runs per task, or across worker threads — and the
//! digest pins both the trace's content (through the injection-event log)
//! and its identity (through the `trace:<label>` condition).
//!
//! The release-mode, whole-binary variant (`repro --quick --trace-in
//! examples/traces/5g_urban.jsonl`, byte-identical stdout across
//! `--jobs 1/4` and `--batch 1/8`) runs in CI's
//! `trace-replay-determinism` job.

use rdsim::core::{Digestible, RunKind};
use rdsim::experiments::{execute_ordered, run_digest, run_protocol, run_seed, ScenarioConfig};
use rdsim::netem::TraceSchedule;
use rdsim::operator::SubjectProfile;

/// The bundled 5G urban trace, compiled exactly as `repro --trace-in`
/// would (the label is the file stem).
fn bundled_trace(label: &str) -> TraceSchedule {
    let text = include_str!("../examples/traces/5g_urban.jsonl");
    TraceSchedule::parse(label, text).expect("the bundled trace parses")
}

fn trace_config(label: &str) -> ScenarioConfig {
    ScenarioConfig {
        progress_target: Some(120.0),
        ambient_trace: Some(bundled_trace(label)),
        ..ScenarioConfig::quick()
    }
}

/// 2 subjects × {golden, faulty}... minus faulty: trace replay combines
/// with non-faulty kinds (point-of-interest injections fight the replay
/// for the link), so the matrix is golden + training runs.
fn matrix() -> Vec<(&'static str, RunKind)> {
    vec![
        ("T1", RunKind::Golden),
        ("T1", RunKind::Training),
        ("T2", RunKind::Golden),
        ("T2", RunKind::Training),
    ]
}

/// The matrix's run digests on `jobs` workers, `batch` runs per executor
/// task (each task runs its chunk one session after another).
fn digests_with(jobs: usize, batch: usize) -> Vec<u64> {
    let config = trace_config("5g_urban");
    execute_ordered(
        matrix(),
        jobs,
        batch,
        |chunk| {
            chunk
                .into_iter()
                .map(|(subject, kind)| {
                    let profile = SubjectProfile::typical(subject);
                    let seed = run_seed(4242, &profile.id, kind);
                    run_digest(&run_protocol(&profile, kind, seed, &config))
                })
                .collect()
        },
        |_| {},
    )
}

#[test]
fn trace_runs_are_identical_serial_batched_and_parallel() {
    let serial = digests_with(1, 1);
    let parallel = digests_with(4, 1);
    assert_eq!(serial, parallel, "worker count leaked into a trace run");
    // All four runs as one executor chunk, and as chunks of three and one.
    for batch in [4, 3] {
        let batched = digests_with(2, batch);
        assert_eq!(serial, batched, "executor chunking leaked into a trace run");
    }
}

#[test]
fn trace_identity_and_content_reach_the_digest() {
    let profile = SubjectProfile::typical("T1");
    let seed = run_seed(4242, &profile.id, RunKind::Golden);

    let with_trace = run_protocol(&profile, RunKind::Golden, seed, &trace_config("5g_urban"));
    assert_eq!(
        with_trace.trace_condition.as_deref(),
        Some("trace:5g_urban"),
        "the run is tagged with its trace condition"
    );
    // The replay really drove the link: the run traverses a prefix of
    // the compiled edges (the quick run retires before the trace ends)
    // and logs each one.
    let trace = bundled_trace("5g_urban");
    let events = with_trace.record.log.fault_events().len();
    assert!(
        (10..=trace.edges()).contains(&events),
        "expected a dense prefix of the {} trace edges, got {events}",
        trace.edges()
    );

    // No trace at all ⇒ different digest (content reaches it) …
    let without = run_protocol(
        &profile,
        RunKind::Golden,
        seed,
        &ScenarioConfig {
            progress_target: Some(120.0),
            ..ScenarioConfig::quick()
        },
    );
    assert_ne!(run_digest(&with_trace), run_digest(&without));
    // … and the same samples under a different label ⇒ different digest
    // (identity reaches it too).
    let relabeled = run_protocol(&profile, RunKind::Golden, seed, &trace_config("renamed"));
    assert_eq!(
        with_trace.record.log.digest(),
        relabeled.record.log.digest(),
        "identical samples drive identical runs"
    );
    assert_ne!(
        run_digest(&with_trace),
        run_digest(&relabeled),
        "the trace label is part of the run's identity"
    );
}

//! Smoke test of the benchmark itself, at its smallest size: every named
//! metric is emitted with its unit, exact counters repeat exactly, and the
//! digest check rejects a wrong reference.
//!
//! Run with `cargo test --release --manifest-path rdbench/Cargo.toml`.

use rdbench::workloads::{failed_runs, run_rep, setup, Pass, Size, Workload};
use rdbench::{exact_counts, per_layer_names, result_json, run, Options};
use rdsim_obs::JsonValue;

const SEED: u64 = 424242;

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line.
fn emitted(result: &str) -> Vec<(String, String)> {
    let doc = JsonValue::parse(result).expect("the result line is JSON");
    assert!(doc.get("correct").and_then(JsonValue::as_bool).is_some());
    assert!(doc
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .is_some_and(|n| n >= 1));
    assert!(doc.get("failed").and_then(JsonValue::as_u64).is_some());
    doc.get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name} has a value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: SEED,
        seconds: 0.0,
        trace,
        size: Size::smoke(),
    }
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let own: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(
        layers, own,
        "BENCHMARK.json lists the per-layer metrics the benchmark emits"
    );
    for w in Workload::ALL {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let outcome = run(&options(w, trace)).expect("smoke run");
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                w.name(),
                outcome.notes
            );
            assert_eq!(outcome.failed, 0);
            if trace {
                let total: u64 = outcome.layers.iter().map(|r| r.self_ns).sum();
                assert_eq!(
                    total,
                    outcome.traced_wall_ns,
                    "{}: the table adds up",
                    w.name()
                );
            }
            let mut got = emitted(&result_json(&outcome));
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn exact_counters_repeat_across_two_passes() {
    for w in Workload::ALL {
        let inputs = setup(w, SEED, &Size::smoke()).expect("set-up");
        let a = run_rep(&inputs, Pass::Traced).expect("first traced pass");
        let b = run_rep(&inputs, Pass::Traced).expect("second traced pass");
        assert!(a.steps.is_some_and(|s| s > 0), "{}", w.name());
        assert_eq!(exact_counts(&a), exact_counts(&b), "{}", w.name());
        assert_eq!(a.observed, b.observed, "{}", w.name());
    }
}

#[test]
fn digest_check_rejects_a_wrong_reference() {
    for w in Workload::ALL {
        let inputs = setup(w, SEED, &Size::smoke()).expect("set-up");
        let untraced = run_rep(&inputs, Pass::EndToEnd).expect("end-to-end pass");
        let traced = run_rep(&inputs, Pass::Traced).expect("traced pass");
        let bare = run_rep(&inputs, Pass::Untraced).expect("untraced pass");
        let good = untraced.observed.clone();
        assert_eq!(failed_runs(w, &untraced, &good), 0, "{}", w.name());
        for (rep, pass) in [(&traced, "traced"), (&bare, "untraced")] {
            assert_eq!(
                failed_runs(w, rep, &good),
                0,
                "{}: the {pass} pass reproduces",
                w.name()
            );
        }

        if w == Workload::LinkReplay {
            let mut wrong = good.clone();
            wrong.runs[1] ^= 1;
            assert_eq!(
                failed_runs(w, &untraced, &wrong),
                1,
                "one wrong run digest fails one run"
            );
            assert_eq!(failed_runs(w, &traced, &wrong), 1, "in the traced pass");
            let mut wrong = good.clone();
            wrong.records[1] ^= 1;
            assert_eq!(
                failed_runs(w, &bare, &wrong),
                1,
                "one wrong record digest fails one run without telemetry"
            );
        } else {
            let mut wrong = good.clone();
            wrong.primary ^= 1;
            assert!(
                failed_runs(w, &untraced, &wrong) > 0,
                "{}: wrong primary digest",
                w.name()
            );
            // Telemetry moves the campaign digests, so traced passes are
            // held to the record digests, as every pass is.
            let mut wrong = good.clone();
            wrong.records[0] ^= 1;
            for rep in [&untraced, &traced, &bare] {
                assert!(
                    failed_runs(w, rep, &wrong) > 0,
                    "{}: wrong record digest",
                    w.name()
                );
            }
        }
    }
}

//! Shape checks against the paper's qualitative findings, on a
//! single-subject slice of the study (the full 11-subject campaign runs
//! in the `repro` binary).

use rdsim::core::{PaperFault, RunKind};
use rdsim::experiments::{run_protocol, ScenarioConfig};
use rdsim::metrics::{
    steering_reversal_rate, ttc_series, CollisionAnalysis, SrrConfig, TtcConfig, TtcStats,
};
use rdsim::operator::SubjectProfile;
use rdsim::units::SimDuration;

fn quick_cfg() -> ScenarioConfig {
    ScenarioConfig {
        laps: 1,
        progress_target: Some(500.0),
        max_duration: SimDuration::from_secs(120),
        ..ScenarioConfig::default()
    }
}

#[test]
fn golden_vs_faulty_follow_the_paper_shapes() {
    let profile = SubjectProfile::typical("shape");
    let cfg = quick_cfg();
    let golden = run_protocol(&profile, RunKind::Golden, 2026, &cfg);
    let faulty = run_protocol(&profile, RunKind::Faulty, 2026, &cfg);

    // Faults were injected at points of interest, none in the golden run.
    assert!(golden.record.schedule.is_empty());
    assert!(!faulty.record.schedule.is_empty());
    for sf in &faulty.record.schedule {
        assert!(
            PaperFault::ALL.contains(&sf.fault),
            "only catalog faults are injected"
        );
    }

    // TTC is observable in both runs (lead vehicle scenario).
    let ttc_cfg = TtcConfig::default();
    let golden_ttc = ttc_series(&golden.record.log, &ttc_cfg);
    assert!(
        !golden_ttc.is_empty(),
        "vehicle following must produce TTC samples"
    );
    let stats = TtcStats::from_samples(&golden_ttc, &ttc_cfg).expect("non-empty");
    assert!(stats.min.get() > 0.0);
    assert!(stats.max >= stats.avg && stats.avg >= stats.min);

    // SRR computable on both runs.
    let srr_cfg = SrrConfig::default();
    let srr_golden = steering_reversal_rate(&golden.record.log.steering_series(), &srr_cfg)
        .expect("golden steering usable");
    let srr_faulty = steering_reversal_rate(&faulty.record.log.steering_series(), &srr_cfg)
        .expect("faulty steering usable");
    assert!(srr_golden.rate_per_min >= 0.0);
    assert!(srr_faulty.rate_per_min >= 0.0);

    // Collision analysis wiring over this pair.
    let analysis = CollisionAnalysis::analyze(&[golden.record, faulty.record]);
    assert_eq!(analysis.subjects, 1);
    for fault in analysis.crashing_faults() {
        // If anything crashed in this short slice, it must be attributed
        // to a catalog fault.
        assert!(PaperFault::ALL.contains(&fault));
    }
}

#[test]
fn fault_injection_log_matches_schedule() {
    let profile = SubjectProfile::typical("schedlog");
    let out = run_protocol(&profile, RunKind::Faulty, 77, &quick_cfg());
    let log = &out.record.log;
    // Every scheduled window appears as an added+deleted pair in the log.
    assert_eq!(log.fault_events().len(), out.record.schedule.len() * 2);
    let mut events = log.fault_events().iter();
    for sf in &out.record.schedule {
        let added = events.next().expect("added event");
        let deleted = events.next().expect("deleted event");
        assert_eq!(added.config, sf.fault.config());
        assert_eq!(deleted.config, sf.fault.config());
        assert_eq!(added.time, sf.window.start);
        assert_eq!(deleted.time, sf.window.end());
        assert!(sf.window.duration > SimDuration::ZERO);
    }
}

#[test]
fn windowed_metrics_attribute_to_fault_columns() {
    use rdsim::metrics::{srr_for_fault, ttc_stats_for_fault};
    let profile = SubjectProfile::typical("columns");
    let out = run_protocol(&profile, RunKind::Faulty, 909, &quick_cfg());
    let injected: Vec<PaperFault> = out.record.schedule.iter().map(|s| s.fault).collect();
    for fault in PaperFault::ALL {
        let srr = srr_for_fault(&out.record, fault, &SrrConfig::default());
        let ttc = ttc_stats_for_fault(&out.record, fault, &TtcConfig::default());
        if !injected.contains(&fault) {
            assert!(srr.is_none(), "{fault}: no window ⇒ no SRR cell");
            assert!(ttc.is_none(), "{fault}: no window ⇒ no TTC cell");
        }
    }
}

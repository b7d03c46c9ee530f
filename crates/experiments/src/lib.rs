//! The paper-reproduction harness: scenarios, subject roster, campaign
//! runner and table/figure generators.
//!
//! Experiment index (matching `DESIGN.md`):
//!
//! | id | artifact | entry point |
//! |----|----------|-------------|
//! | E1 | Table I — driving-station spec | [`StationSpec::paper_station`] |
//! | E2 | Table II — faults injected | [`table2`] |
//! | E3 | Table III — TTC statistics | [`table3`] |
//! | E4 | Table IV — SRR statistics | [`table4`] |
//! | E5 | Fig. 4 — steering profiles | [`figure4`] |
//! | E6 | §VI.E — collision analysis | [`collision_summary`] |
//! | E7 | §VI.F — questionnaire | [`questionnaire_summary`] |
//! | E8 | §VIII — simulator validity sweeps | [`validity_sweep`] |
//! | E9 | §VIII — model-vehicle comparison | [`model_vehicle_sweep`] |
//!
//! Everything is deterministic given the campaign seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod executor;
mod figures;
mod observatory;
mod population;
mod roster;
mod runner;
mod sampler;
mod scenario;
pub mod seeds;
mod study;
mod tables;
mod validity;

pub use digest::{campaign_digest, record_digest, run_digest, store_digest};
pub use executor::{default_jobs, execute_ordered, ChunkDone};
pub use figures::{figure4, Figure4};
pub use observatory::{
    fault_condition, kind_slug, load_checkpoint, run_campaign, summarize_run, CampaignOptions,
    CampaignOutcome, SCENARIO,
};
pub use population::{population_digest, stratum_label, synthesize_population, SyntheticSubject};
pub use roster::{paper_roster, RosterEntry};
pub use runner::{run_protocol, RunOutput, ScenarioConfig};
pub use sampler::{
    decision_log_json, plan_round, run_population_campaign, CellSignal, PopulationOptions,
    PopulationOutcome, RoundDecision, SamplerConfig, SamplerPolicy,
};
pub use scenario::{CourseMap, FaultPoint, ScenarioPlan};
pub use seeds::{run_seed, synthetic_run_seed, synthetic_subject_seed};
// The station rig spec lives with the operator abstraction in rdsim-core
// (one home for both station abstractions); re-exported here because the
// Table I generator is an experiments-layer artifact.
pub use rdsim_core::StationSpec;
pub use study::{
    collision_summary, questionnaire_summary, run_study_with_exec, table2, table3, table4,
    RunTrace, StudyResults, Table2Row, Table3Row, Table4Row,
};
pub use tables::TextTable;
pub use validity::{model_vehicle_sweep, validity_sweep, Drivability, SweepPoint, SweepReport};

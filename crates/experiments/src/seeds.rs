//! Deterministic per-run seed derivation.
//!
//! Every run of a campaign gets its seed from a **pure function** of the
//! campaign seed, the subject id and the run kind — never from scheduling
//! state. This is what makes the parallel executor trivially equivalent to
//! serial execution: a run's entire random universe (fault draws, driver
//! noise, netem decisions) is fixed before any thread is spawned, so the
//! order in which workers pick jobs cannot perturb any run.
//!
//! The derivation is the one the study has always used (hash the subject
//! id into the campaign seed via [`RngStream::substream`] — which mixes
//! into the parent's *seed*, not its generator state — then XOR a
//! kind-specific salt), factored out here so tests, the executor and the
//! golden digest files all agree on it. Changing it invalidates every
//! checked-in digest; treat the constants as frozen.

use rdsim_core::RunKind;
use rdsim_math::RngStream;

/// Salt XORed into the subject seed for training runs (`"ra"` of
/// *tRAining*, kept from the original serial implementation).
pub const TRAINING_SALT: u64 = 0x7261;
/// Salt for golden (NFI) runs (`"go"`).
pub const GOLDEN_SALT: u64 = 0x676F;
/// Salt for faulty (FI) runs (`"fa"`).
pub const FAULTY_SALT: u64 = 0x6661;

/// The salt a run kind contributes to its seed.
pub fn kind_salt(kind: RunKind) -> u64 {
    match kind {
        RunKind::Training => TRAINING_SALT,
        RunKind::Golden => GOLDEN_SALT,
        RunKind::Faulty => FAULTY_SALT,
    }
}

/// A subject's base seed: the campaign seed split by subject id.
pub fn subject_seed(campaign_seed: u64, subject_id: &str) -> u64 {
    RngStream::from_seed(campaign_seed)
        .substream(subject_id)
        .seed()
}

/// The seed of one run: subject base seed XOR kind salt. Independent of
/// scheduling order, worker count and every other run.
pub fn run_seed(campaign_seed: u64, subject_id: &str, kind: RunKind) -> u64 {
    subject_seed(campaign_seed, subject_id) ^ kind_salt(kind)
}

/// Salt-domain separator for **synthetic** (population-synthesized)
/// subjects (`"synthsub"` as ASCII).
///
/// [`run_seed`] keys on free-form subject id strings, so before this salt
/// existed nothing stopped a synthetic subject id from landing in the
/// paper roster's seed space — a latent footgun once subject ids stopped
/// being the twelve fixed `T1`…`T12` labels. Synthetic derivations mix
/// this salt into the campaign seed *before* the per-subject substream
/// split, putting them in a disjoint domain from every historical
/// derivation; `tests/population_props.rs` proves the disjointness over
/// 10⁵ ids. Frozen: changing it invalidates every population golden.
pub const SYNTHETIC_DOMAIN_SALT: u64 = 0x7379_6e74_6873_7562;

/// A synthetic subject's base seed: like [`subject_seed`], but in the
/// [`SYNTHETIC_DOMAIN_SALT`] domain so it can never collide with a
/// paper-roster subject seed regardless of the id string.
pub fn synthetic_subject_seed(campaign_seed: u64, subject_id: &str) -> u64 {
    RngStream::from_seed(campaign_seed ^ SYNTHETIC_DOMAIN_SALT)
        .substream(subject_id)
        .seed()
}

/// The seed of one population-campaign run: the synthetic subject seed
/// split by the fault-condition label (population runs are pinned to a
/// single condition, so the condition — not the run kind — is the run's
/// identity axis). A pure function of `(campaign_seed, subject_id,
/// condition)`, independent of scheduling and of every other run.
pub fn synthetic_run_seed(campaign_seed: u64, subject_id: &str, condition: &str) -> u64 {
    RngStream::from_seed(synthetic_subject_seed(campaign_seed, subject_id))
        .substream(condition)
        .seed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_historical_serial_derivation() {
        // The exact expression the study used before the executor existed.
        let legacy = RngStream::from_seed(424242).substream("T5").seed();
        assert_eq!(subject_seed(424242, "T5"), legacy);
        assert_eq!(run_seed(424242, "T5", RunKind::Training), legacy ^ 0x7261);
        assert_eq!(run_seed(424242, "T5", RunKind::Golden), legacy ^ 0x676F);
        assert_eq!(run_seed(424242, "T5", RunKind::Faulty), legacy ^ 0x6661);
    }

    #[test]
    fn seeds_are_distinct_across_subjects_and_kinds() {
        let mut seen = std::collections::BTreeSet::new();
        for subject in ["T1", "T2", "T3", "T10", "T11", "T12"] {
            for kind in [RunKind::Training, RunKind::Golden, RunKind::Faulty] {
                assert!(
                    seen.insert(run_seed(1, subject, kind)),
                    "seed collision at {subject}/{kind}"
                );
            }
        }
    }

    #[test]
    fn derivation_is_a_pure_function() {
        assert_eq!(
            run_seed(99, "T7", RunKind::Faulty),
            run_seed(99, "T7", RunKind::Faulty)
        );
        assert_ne!(
            run_seed(99, "T7", RunKind::Faulty),
            run_seed(100, "T7", RunKind::Faulty)
        );
    }
}

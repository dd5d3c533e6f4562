//! The Monte-Carlo guarantee validator.
//!
//! Draws `M` unseen datasets from the conformance seed space, runs each
//! through the full system simulator under the deployed table classifier,
//! and tests the observed success fraction against the certified
//! `(success-rate, confidence)` pair.

use crate::report::{GuaranteeReport, TrialRecord};
use crate::selfcheck::{judge_routed, verdict_for};
use crate::{ConformError, Result, CONFORM_SEED_BASE};
use mithra_axbench::dataset::DatasetScale;
use mithra_core::parallel::par_map_indexed;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::DatasetProfile;
use mithra_core::route::RoutedCompiled;
use mithra_core::threshold::QualitySpec;
use mithra_sim::system::{run, run_routed, RunHooks, RunResult, SimOptions};

/// Configuration for one conformance run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidatorConfig {
    /// Number of unseen Monte-Carlo trials `M`.
    pub trials: usize,
    /// First dataset seed; trial `i` uses `seed_base + i`. Defaults to
    /// [`CONFORM_SEED_BASE`], which no other subsystem draws from.
    pub seed_base: u64,
    /// Dataset scale for the generated trials.
    pub scale: DatasetScale,
    /// Worker threads for the trial fan-out (`None` = all cores). The
    /// report is bit-identical at every setting.
    pub threads: Option<usize>,
    /// Confidence of the harness's own binomial test: a certificate is
    /// declared [`Verdict::Violated`](crate::report::Verdict::Violated)
    /// only when the exact test rejects at significance
    /// `1 - test_confidence`.
    pub test_confidence: f64,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        ValidatorConfig {
            trials: 100,
            seed_base: CONFORM_SEED_BASE,
            scale: DatasetScale::Full,
            threads: None,
            test_confidence: 0.95,
        }
    }
}

impl ValidatorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConformError::InvalidConfig`] when `trials` is zero or
    /// `test_confidence` is outside `(0, 1)`.
    pub fn check(&self) -> Result<()> {
        if self.trials == 0 {
            return Err(ConformError::InvalidConfig {
                parameter: "trials",
                constraint: "at least 1",
            });
        }
        if !self.test_confidence.is_finite()
            || self.test_confidence <= 0.0
            || self.test_confidence >= 1.0
        {
            return Err(ConformError::InvalidConfig {
                parameter: "test_confidence",
                constraint: "strictly between 0 and 1",
            });
        }
        Ok(())
    }
}

/// Validates a certified guarantee on `config.trials` unseen datasets
/// generated on the fly from the conformance seed space.
///
/// Each trial profiles a fresh dataset, simulates it under the deployed
/// table classifier, and scores final application quality. The fan-out
/// runs under [`par_map_indexed`] and the fold walks trial indices in
/// order, so the report is bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for a bad configuration and
/// propagates simulator and statistics errors.
pub fn validate(
    compiled: &Compiled,
    spec: &QualitySpec,
    config: &ValidatorConfig,
) -> Result<GuaranteeReport> {
    config.check()?;
    run_trials(Deployed::Binary(compiled), spec, config, None)
}

/// Validates a certified **routed-mixture** guarantee on unseen datasets:
/// each trial profiles the fresh dataset under *every* pool member, runs
/// it through the routed simulator under a fresh clone of the deployed
/// router cascade, and scores final application quality of the mixed
/// output stream. Violations are charged against the serving member with
/// the worst error, so the report's `route_violations` says *which*
/// approximator broke a trial, not just that one broke.
///
/// Trials, verdict and statistics flow through the same runner and the
/// same [`judge_routed`] path as [`validate`] and the mutation
/// self-check; a pool of one reproduces [`validate`] bit for bit.
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for a bad configuration and
/// propagates simulator and statistics errors.
pub fn validate_routed(
    routed: &RoutedCompiled,
    spec: &QualitySpec,
    config: &ValidatorConfig,
) -> Result<GuaranteeReport> {
    config.check()?;
    run_trials(Deployed::Routed(routed), spec, config, None)
}

/// Validates a certified guarantee on pre-collected unseen profiles —
/// the artifact-cache-backed path
/// ([`mithra_core::session::profile_validation`] with the conformance
/// seed base produces and caches exactly these).
///
/// `config.trials` and `config.seed_base` are ignored; the profiles
/// define both. Scoring and determinism are identical to [`validate`].
///
/// # Errors
///
/// Returns [`ConformError::InvalidConfig`] for an empty profile slice or
/// a bad `test_confidence`, and propagates simulator and statistics
/// errors.
pub fn validate_profiles(
    compiled: &Compiled,
    spec: &QualitySpec,
    profiles: &[DatasetProfile],
    config: &ValidatorConfig,
) -> Result<GuaranteeReport> {
    ValidatorConfig {
        trials: profiles.len(),
        ..*config
    }
    .check()?;
    run_trials(Deployed::Binary(compiled), spec, config, Some(profiles))
}

/// The certified system under validation: a binary artifact (a pool of
/// one under its table classifier) or a routed pool under its router.
#[derive(Clone, Copy)]
enum Deployed<'a> {
    Binary(&'a Compiled),
    Routed(&'a RoutedCompiled),
}

/// The one trial runner: fans the trials out under [`par_map_indexed`],
/// simulates each dataset under a fresh clone of the deployed classifier
/// (per-trial clones keep online updates from leaking state across
/// datasets — and across threads), and scores the results in trial order.
/// Trial `i` runs `collected[i]`, a pre-collected binary profile, or —
/// without `collected` — a fresh dataset of seed `config.seed_base + i`.
fn run_trials(
    deployed: Deployed<'_>,
    spec: &QualitySpec,
    config: &ValidatorConfig,
    collected: Option<&[DatasetProfile]>,
) -> Result<GuaranteeReport> {
    let count = collected.map_or(config.trials, <[_]>::len);
    let trial_results = par_map_indexed(count, config.threads, |i| {
        let fresh: Vec<DatasetProfile>;
        let profiles: Vec<&DatasetProfile> = match collected {
            Some(profiles) => vec![&profiles[i]],
            None => {
                fresh = deployed.profile(config.seed_base + i as u64, config.scale);
                fresh.iter().collect()
            }
        };
        let (result, worst_member) = deployed.simulate(&profiles)?;
        Ok((profiles[0].dataset().seed(), result, worst_member))
    });
    let (name, certified_rate, routes) = match deployed {
        Deployed::Binary(c) => (c.function.benchmark(), c.threshold.certified_rate, 1),
        Deployed::Routed(r) => (r.pool.benchmark(), r.threshold.certified_rate, r.pool.len()),
    };
    score(
        name.name().to_string(),
        certified_rate,
        routes,
        spec,
        config,
        trial_results,
    )
}

impl Deployed<'_> {
    /// Every pool member's profile of the dataset of `seed`.
    fn profile(&self, seed: u64, scale: DatasetScale) -> Vec<DatasetProfile> {
        match *self {
            Deployed::Binary(c) => {
                let dataset = c.function.dataset(seed, scale);
                vec![DatasetProfile::collect(&c.function, dataset)]
            }
            Deployed::Routed(r) => {
                let dataset = r.pool.accurate().dataset(seed, scale);
                r.pool
                    .members()
                    .iter()
                    .map(|m| DatasetProfile::collect(m, dataset.clone()))
                    .collect()
            }
        }
    }

    /// One trial's simulation, hook-free: the run and the member its
    /// worst-error output came from (always 0 for a pool of one).
    fn simulate(
        &self,
        profiles: &[&DatasetProfile],
    ) -> std::result::Result<(RunResult, usize), mithra_sim::SimError> {
        let options = SimOptions::default();
        match *self {
            Deployed::Binary(c) => {
                let mut table = c.table.clone();
                run(c, profiles[0], &mut table, &options, RunHooks::none()).map(|r| (r, 0))
            }
            Deployed::Routed(r) => run_routed(r, profiles, &mut r.router.clone(), &options)
                .map(|r| (r.run, r.worst_member)),
        }
    }
}

/// One trial's dataset seed, simulation result and worst-route member.
type TrialResult = std::result::Result<(u64, RunResult, usize), mithra_sim::SimError>;

/// Folds per-trial results (in trial-index order) into the report.
fn score(
    benchmark: String,
    certified_rate: f64,
    n_routes: usize,
    spec: &QualitySpec,
    config: &ValidatorConfig,
    trial_results: Vec<TrialResult>,
) -> Result<GuaranteeReport> {
    let mut trial_records = Vec::with_capacity(trial_results.len());
    let mut losses = Vec::with_capacity(trial_results.len());
    let mut worst_routes = Vec::with_capacity(trial_results.len());
    let mut invocation_rate_sum = 0.0;
    for trial in trial_results {
        let (dataset_seed, result, worst_route) = trial?;
        losses.push(result.quality_loss);
        worst_routes.push(worst_route);
        invocation_rate_sum += result.invocation_rate();
        trial_records.push(TrialRecord {
            dataset_seed,
            quality_loss: result.quality_loss,
            invocation_rate: result.invocation_rate(),
            met_target: result.quality_loss <= spec.max_quality_loss,
            worst_route,
        });
    }
    // The published numbers come from the same judge_routed() the
    // mutation self-check exercises: there is exactly one verdict code
    // path, binary included (a one-member mixture).
    let judgement = judge_routed(&losses, &worst_routes, n_routes, spec, None, f64::EPSILON)?;
    let verdict = verdict_for(&judgement, spec, 1.0 - config.test_confidence);
    debug_assert_eq!(
        judgement.successes,
        trial_records.iter().filter(|t| t.met_target).count() as u64
    );
    Ok(GuaranteeReport {
        benchmark,
        quality_target: spec.max_quality_loss,
        target_rate: spec.success_rate,
        confidence: spec.confidence.level(),
        certified_rate,
        trials: judgement.trials,
        successes: judgement.successes,
        observed_rate: judgement.successes as f64 / judgement.trials as f64,
        unseen_lower_bound: judgement.unseen_bound,
        p_value: judgement.p_value,
        verdict,
        mean_invocation_rate: invocation_rate_sum / trial_records.len() as f64,
        route_violations: judgement.route_violations,
        trial_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(ValidatorConfig::default().check().is_ok());
        assert!(ValidatorConfig {
            trials: 0,
            ..ValidatorConfig::default()
        }
        .check()
        .is_err());
        assert!(ValidatorConfig {
            test_confidence: 1.0,
            ..ValidatorConfig::default()
        }
        .check()
        .is_err());
        assert!(ValidatorConfig {
            test_confidence: f64::NAN,
            ..ValidatorConfig::default()
        }
        .check()
        .is_err());
    }
}

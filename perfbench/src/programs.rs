//! Compiling programs and checking their certificates, with a span around
//! every stage call.

use crate::settings::{
    cache_dir, extra_trials_seed_base, COMPILE_THREADS, CONFIDENCE, EXTRA_TRIALS, PINNED_TRIALS,
    POOL_SIZE, QUALITY, SUCCESS_RATE,
};
use crate::trace::Tracer;
use mithra_axbench::benchmark::Benchmark;
use mithra_conform::{validate, validate_routed, GuaranteeReport, ValidatorConfig};
use mithra_core::cache::CacheConfig;
use mithra_core::pipeline::{CompileConfig, Compiled};
use mithra_core::route::{PoolSpec, RoutedCompiled};
use mithra_core::seeds::CONFORM_SEED_BASE;
use mithra_core::session::CompileSession;
use mithra_core::threshold::QualitySpec;
use mithra_npu::kernel::KernelBackend;
use std::sync::Arc;

/// The pinned quality specification: q = 5 %, β = 95 %, S = 90 %.
pub fn spec() -> QualitySpec {
    QualitySpec::new(QUALITY, CONFIDENCE, SUCCESS_RATE).expect("pinned spec is valid")
}

/// Compile settings: paper defaults, the pinned spec, scalar kernel, two
/// threads; this build's artifact cache when `warm`, none otherwise.
pub fn compile_config(warm: bool) -> CompileConfig {
    CompileConfig {
        spec: spec(),
        threads: Some(COMPILE_THREADS),
        kernel: KernelBackend::Scalar,
        cache: warm.then(|| CacheConfig::at(cache_dir())),
        ..CompileConfig::default()
    }
}

/// A suite benchmark by name.
pub fn benchmark(name: &str) -> Arc<dyn Benchmark> {
    mithra_axbench::suite::by_name(name)
        .unwrap_or_else(|| panic!("`{name}` is a suite benchmark"))
        .into()
}

/// The binary compile flow, stage by stage.
///
/// # Errors
///
/// The first failing stage's error.
pub fn compile_binary(
    name: &str,
    config: &CompileConfig,
    t: &mut Tracer,
    request: u64,
) -> mithra_core::Result<Compiled> {
    let session = CompileSession::new(benchmark(name), config.clone());
    let s = t.span("core.session.train_npu", request, || session.train_npu())?;
    let s = t.span("core.session.profile", request, || s.profile())?;
    let s = t.span("core.session.certify", request, || s.certify())?;
    let s = t.span("core.session.train_classifiers", request, || {
        s.train_classifiers()
    })?;
    Ok(s.finish().0)
}

/// The routed compile flow over a `POOL_SIZE`-member pool, stage by
/// stage.
///
/// # Errors
///
/// The first failing stage's error.
pub fn compile_routed(
    name: &str,
    config: &CompileConfig,
    t: &mut Tracer,
    request: u64,
) -> mithra_core::Result<RoutedCompiled> {
    let bench = benchmark(name);
    let pool = PoolSpec::sized(&bench.npu_topology(), POOL_SIZE);
    let session = CompileSession::new(bench, config.clone());
    let s = t.span("core.session.train_npu", request, || session.train_npu())?;
    let s = t.span("core.session.profile", request, || s.profile())?;
    let s = t.span("core.session.train_pool", request, || s.train_pool(&pool))?;
    let s = t.span("core.session.certify_routed", request, || {
        s.certify_routed()
    })?;
    let s = t.span("core.session.train_router", request, || s.train_router())?;
    Ok(s.finish_routed().0)
}

/// The certificates one conformance pass checks.
pub struct Certificates<'a> {
    /// The binary pair, by name.
    pub binary: Vec<(&'a str, &'a Compiled)>,
    /// The routed program.
    pub routed: (&'a str, &'a RoutedCompiled),
}

/// One conformance pass: the pinned trials of every certificate, then,
/// when `extra_for_seed` is set, the seed-chosen extra trials.
pub struct VerifyPass {
    /// Pinned-trial reports, binary pair first, routed last.
    pub pinned: Vec<(String, GuaranteeReport)>,
    /// Extra-trial reports, same order.
    pub extra: Vec<(String, GuaranteeReport)>,
}

fn validator(seed_base: u64, trials: usize) -> ValidatorConfig {
    ValidatorConfig {
        trials,
        seed_base,
        threads: Some(COMPILE_THREADS),
        test_confidence: 0.95,
        ..ValidatorConfig::default()
    }
}

/// Validates every certificate over one trial window.
fn validate_window(
    certs: &Certificates<'_>,
    config: &ValidatorConfig,
    t: &mut Tracer,
    request: u64,
    ops: &mut crate::accounting::Ops,
) -> Result<Vec<(String, GuaranteeReport)>, String> {
    let spec = spec();
    let mut reports = Vec::new();
    for &(name, compiled) in &certs.binary {
        let r = t.span("conform.validate", request, || {
            validate(compiled, &spec, config)
        });
        ops.stage(&r);
        reports.push((name.to_string(), r.map_err(|e| format!("{name}: {e}"))?));
    }
    let (name, routed) = certs.routed;
    let r = t.span("conform.validate_routed", request, || {
        validate_routed(routed, &spec, config)
    });
    ops.stage(&r);
    reports.push((name.to_string(), r.map_err(|e| format!("{name}: {e}"))?));
    Ok(reports)
}

/// Runs one conformance pass, counting each validation as an operation.
///
/// # Errors
///
/// The first validation error, as text.
pub fn verify_pass(
    certs: &Certificates<'_>,
    extra_for_seed: Option<u64>,
    t: &mut Tracer,
    request: u64,
    ops: &mut crate::accounting::Ops,
) -> Result<VerifyPass, String> {
    let pinned = validator(CONFORM_SEED_BASE, PINNED_TRIALS);
    let pinned = validate_window(certs, &pinned, t, request, ops)?;
    let extra = match extra_for_seed {
        Some(seed) => {
            let extra = validator(extra_trials_seed_base(seed), EXTRA_TRIALS);
            validate_window(certs, &extra, t, request, ops)?
        }
        None => Vec::new(),
    };
    Ok(VerifyPass { pinned, extra })
}

//! Property tests for the fault-injection layer and the runtime
//! guardband:
//!
//! * with no plan armed, the hooked simulation path is bit-identical to
//!   the production [`simulate`] path (the pinned `results/*.txt` tables
//!   stay byte-comparable), for a routed pool as for a binary system;
//! * the watchdog never fires on clean certified runs, across seeds — the
//!   no-false-alarm property — for a routed pool as for a binary system;
//! * armed plans are deterministic and refuse to arm when empty;
//! * the online re-certification gate spends at most its α: across seeds,
//!   a still-violating stream (true pass rate at the certified target `S`)
//!   is never re-certified beyond the nominal error budget, even under
//!   per-dataset peeking and the full multi-attempt retry protocol, and
//!   the sequential breach test never fires on clean oracle streams.

use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::DatasetScale;
use mithra_axbench::suite;
use mithra_core::classifier::{Classifier, ClassifierOverhead, Decision};
use mithra_core::pipeline::{compile, compile_routed, CompileConfig, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_core::recert::RecertConfig;
use mithra_core::route::{oracle_route, PoolSpec, RouteChoice, RoutedCompiled};
use mithra_core::watchdog::{GuardState, QualityWatchdog, WatchdogConfig};
use mithra_sim::fault::FaultPlan;
use mithra_sim::system::{
    run, run_pool, run_routed, simulate, RoutedInvocationModel, RunHooks, SimOptions,
};
use mithra_sim::SimError;
use mithra_stats::clopper_pearson::Confidence;
use mithra_stats::sequential::SequentialBinomial;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

fn compiled_sobel() -> &'static Compiled {
    static COMPILED: OnceLock<Compiled> = OnceLock::new();
    COMPILED.get_or_init(|| {
        let bench: Arc<dyn Benchmark> = suite::by_name("sobel").unwrap().into();
        compile(bench, &CompileConfig::smoke()).unwrap()
    })
}

/// A three-member routed inversek2j pool (sobel's tiers collapse).
fn routed_inversek2j() -> &'static RoutedCompiled {
    static ROUTED: OnceLock<RoutedCompiled> = OnceLock::new();
    ROUTED.get_or_init(|| {
        let bench: Arc<dyn Benchmark> = suite::by_name("inversek2j").unwrap().into();
        let spec = PoolSpec::sized(&bench.npu_topology(), 3);
        let routed = compile_routed(bench, &CompileConfig::smoke(), &spec).unwrap();
        assert_eq!(routed.pool.len(), 3, "{:?}", routed.pool.topologies());
        routed
    })
}

/// Every pool member's profile of dataset `seed`.
fn member_profiles(routed: &RoutedCompiled, seed: u64) -> Vec<DatasetProfile> {
    let ds = routed.pool.accurate().dataset(seed, DatasetScale::Smoke);
    let members = routed.pool.members();
    members
        .iter()
        .map(|m| DatasetProfile::collect(m, ds.clone()))
        .collect()
}

/// The routing oracle of one dataset: each invocation goes to the
/// cheapest member whose error is within the threshold.
#[derive(Debug)]
struct OracleRouter(Vec<RouteChoice>);

impl OracleRouter {
    fn new(members: &[&DatasetProfile], threshold: f32) -> Self {
        let n = members[0].invocation_count();
        Self(
            (0..n)
                .map(|i| oracle_route(members, i, threshold))
                .collect(),
        )
    }
}

impl Classifier for OracleRouter {
    fn name(&self) -> &'static str {
        "oracle-router"
    }

    fn classify(&mut self, index: usize, _input: &[f32]) -> Decision {
        Decision::from_reject(self.0[index].is_precise())
    }

    fn classify_route(&mut self, index: usize, _input: &[f32]) -> RouteChoice {
        self.0[index]
    }

    fn overhead(&self) -> ClassifierOverhead {
        ClassifierOverhead::default()
    }
}

#[test]
fn hook_free_run_is_bit_identical_to_simulate_across_seeds() {
    let compiled = compiled_sobel();
    let opts = SimOptions::default();
    for seed in [3u64, 17, 40, 123, 999] {
        let ds = compiled.function.dataset(seed, DatasetScale::Smoke);
        let profile = DatasetProfile::collect(&compiled.function, ds);
        let mut a = compiled.table.clone();
        let mut b = compiled.table.clone();
        let plain = simulate(compiled, &profile, &mut a, &opts);
        let hooked = run(compiled, &profile, &mut b, &opts, RunHooks::none()).unwrap();
        assert_eq!(plain, hooked, "seed {seed} diverged");
    }
    // The same property for a three-member routed pool: the hooked loop
    // with no hooks is the routed simulator.
    let routed = routed_inversek2j();
    let bench = routed.pool.benchmark().as_ref();
    let model = RoutedInvocationModel::new(routed, &opts);
    for seed in [3u64, 17, 40] {
        let profiles = member_profiles(routed, seed);
        let refs: Vec<&DatasetProfile> = profiles.iter().collect();
        let plain = run_routed(routed, &refs, &mut routed.router.clone(), &opts).unwrap();
        let mut router = routed.router.clone();
        let hooked = run_pool(bench, &model, &refs, &mut router, &opts, RunHooks::none()).unwrap();
        assert_eq!(plain, hooked, "routed seed {seed} diverged");
    }
}

#[test]
fn watchdog_never_fires_on_clean_certified_runs_across_seeds() {
    let compiled = compiled_sobel();
    let opts = SimOptions::default();
    for seed in [5u64, 21, 77, 310, 4242] {
        let ds = compiled.function.dataset(seed, DatasetScale::Smoke);
        let profile = DatasetProfile::collect(&compiled.function, ds);
        // The oracle admits exactly the invocations whose error is within
        // the certified threshold, so every sampled violation is false.
        let mut oracle = compiled.oracle_for(&profile);
        let mut watchdog = QualityWatchdog::new(WatchdogConfig::default());
        let guarded = run(
            compiled,
            &profile,
            &mut oracle,
            &opts,
            RunHooks::none().with_watchdog(&mut watchdog, 2),
        )
        .unwrap();
        let report = watchdog.report();
        assert_eq!(report.breaches, 0, "seed {seed}: {report:?}");
        assert_eq!(report.state, GuardState::Monitoring, "seed {seed}");
        assert_eq!(report.violations, 0, "seed {seed}");
        // Admission was never gated: same delegation as the clean run.
        let mut plain_oracle = compiled.oracle_for(&profile);
        let plain = simulate(compiled, &profile, &mut plain_oracle, &opts);
        assert_eq!(guarded.invoked, plain.invoked, "seed {seed}");
        assert_eq!(guarded.quality_loss, plain.quality_loss, "seed {seed}");
    }
    // A three-member routed pool under the routing oracle: every member
    // route is within the threshold, so the routed guard never samples a
    // violation and never gates admission.
    let routed = routed_inversek2j();
    let bench = routed.pool.benchmark().as_ref();
    let model = RoutedInvocationModel::new(routed, &opts);
    for seed in [5u64, 21, 77] {
        let profiles = member_profiles(routed, seed);
        let refs: Vec<&DatasetProfile> = profiles.iter().collect();
        let threshold = model.threshold();
        let mut oracle = OracleRouter::new(&refs, threshold);
        let mut watchdog = QualityWatchdog::new(WatchdogConfig::default());
        let hooks = RunHooks::none().with_watchdog(&mut watchdog, 2);
        let guarded = run_pool(bench, &model, &refs, &mut oracle, &opts, hooks).unwrap();
        let report = watchdog.report();
        assert!(report.samples > 0, "routed seed {seed}: {report:?}");
        assert_eq!(report.breaches, 0, "routed seed {seed}: {report:?}");
        assert_eq!(report.state, GuardState::Monitoring, "routed seed {seed}");
        assert_eq!(report.violations, 0, "routed seed {seed}");
        let mut plain_oracle = OracleRouter::new(&refs, threshold);
        let plain = run_pool(
            bench,
            &model,
            &refs,
            &mut plain_oracle,
            &opts,
            RunHooks::none(),
        )
        .unwrap();
        assert_eq!(
            guarded.member_invocations, plain.member_invocations,
            "routed seed {seed}"
        );
        assert_eq!(
            guarded.run.quality_loss, plain.run.quality_loss,
            "routed seed {seed}"
        );
        assert!(guarded.run.accelerated_cycles > plain.run.accelerated_cycles);
    }
}

#[test]
fn disarmed_plans_refuse_to_arm_and_armed_plans_are_deterministic() {
    let compiled = compiled_sobel();
    let ds = compiled.function.dataset(60, DatasetScale::Smoke);
    assert!(matches!(
        FaultPlan::disarmed().arm(compiled, &ds),
        Err(SimError::Disarmed)
    ));
    assert!(matches!(
        FaultPlan::uniform(9, 0.0).arm(compiled, &ds),
        Err(SimError::Disarmed)
    ));
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::uniform(seed, 0.003);
        let a = plan.arm(compiled, &ds).unwrap();
        let b = plan.arm(compiled, &ds).unwrap();
        assert_eq!(a.profile.errors(), b.profile.errors(), "seed {seed}");
        assert_eq!(a.fifo_events, b.fifo_events, "seed {seed}");
    }
}

/// Runs the re-certification gate exactly as [`RecertEngine`] runs it —
/// up to `max_attempts` frozen candidates, each judged by a fresh
/// e-process at the Bonferroni share `α / max_attempts`, peeked after
/// every dataset, abandoned after `max_certify_trials` — against a
/// synthetic candidate whose per-dataset quality pass is Bernoulli
/// `pass_rate`. Returns whether any attempt certified `target_rate`.
///
/// [`RecertEngine`]: mithra_core::recert::RecertEngine
fn gate_certifies(
    cfg: &RecertConfig,
    alpha: f64,
    target_rate: f64,
    pass_rate: f64,
    seed: u64,
) -> bool {
    let attempt_confidence = Confidence::new(1.0 - alpha / cfg.max_attempts as f64).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for _attempt in 0..cfg.max_attempts {
        let mut test = SequentialBinomial::new();
        for _trial in 0..cfg.max_certify_trials {
            test.observe(rng.gen_bool(pass_rate));
            if test.certifies(target_rate, attempt_confidence).unwrap() {
                return true;
            }
        }
    }
    false
}

#[test]
fn recert_gate_never_certifies_still_violating_streams_beyond_alpha() {
    // The certificate claims "pass rate > S"; a candidate whose true rate
    // is exactly S is the hardest still-violating stream — anything the
    // gate grants it is pure type-I error. Across seeds, the fraction of
    // such streams that EVER certify (peeking after every dataset, across
    // the whole multi-attempt retry budget) must stay within the α the
    // Bonferroni split promises. A naive repeated Clopper–Pearson monitor
    // fails exactly this property (see `mithra_stats::sequential`).
    let cfg = RecertConfig::paper_default();
    let (alpha, s) = (0.1, 0.8); // QualitySpec::new(q, 0.9, 0.8)
    let runs = 300u32;
    let false_certs = (0..runs)
        .filter(|&i| gate_certifies(&cfg, alpha, s, s, 0xFA15_7A7E + u64::from(i)))
        .count();
    let rate = false_certs as f64 / f64::from(runs);
    // Budget plus three binomial standard errors of Monte-Carlo slack.
    let slack = 3.0 * (alpha * (1.0 - alpha) / f64::from(runs)).sqrt();
    assert!(
        rate <= alpha + slack,
        "gate re-certified {false_certs}/{runs} still-violating streams \
         (rate {rate:.3}, budget {alpha})"
    );
}

#[test]
fn recert_gate_retains_power_for_genuinely_recovered_streams() {
    // The α budget must not be bought with vacuous conservatism: a
    // candidate whose true pass rate sits well above S (the selection
    // margin exists precisely to produce such candidates) certifies
    // within the trial budget nearly always.
    let cfg = RecertConfig::paper_default();
    let (alpha, s) = (0.1, 0.8);
    let runs = 100u32;
    let certified = (0..runs)
        .filter(|&i| gate_certifies(&cfg, alpha, s, 0.97, 0x9000_D000 + u64::from(i)))
        .count();
    assert!(
        certified >= 95,
        "only {certified}/{runs} genuinely-recovered streams certified"
    );
}

proptest! {
    #[test]
    fn sequential_test_never_fires_on_clean_oracle_streams(
        n in 1u64..400,
        limit in 0.02f64..0.5,
        level in 0.80f64..0.999,
    ) {
        // A clean oracle stream has zero violations: at no prefix, for no
        // limit, at no confidence may the breach side of the sequential
        // test conclude the quality target is being missed — and the
        // certify side must eventually grant a long-enough clean stream.
        let conf = Confidence::new(level).unwrap();
        let mut test = SequentialBinomial::new();
        for _ in 0..n {
            test.observe(true);
            prop_assert!(!test.refutes(1.0 - limit, conf).unwrap());
        }
        if n >= 60 {
            // ~29–45 consecutive passes certify S = 0.9 at α = 0.05; every
            // generated confidence here is no stricter than that.
            prop_assert!(test.certifies(0.9, Confidence::new(0.95).unwrap()).unwrap());
        }
    }
}

#[test]
fn guardband_restores_quality_under_heavy_faults() {
    // inversek2j's table keeps admitting under weight faults (sobel's
    // rejects nearly everything, starving the watchdog of samples), so
    // it exercises the full breach → fallback → restore ladder.
    let bench: Arc<dyn Benchmark> = suite::by_name("inversek2j").unwrap().into();
    let compiled = &compile(bench, &CompileConfig::smoke()).unwrap();
    let opts = SimOptions::default();
    let ds = compiled.function.dataset(71, DatasetScale::Smoke);
    let armed = FaultPlan {
        npu_weight_bit_rate: 0.02,
        lut_bit_rate: 0.002,
        ..FaultPlan::disarmed()
    }
    .arm(compiled, &ds)
    .unwrap();

    let mut off_cls = armed.classifier.clone();
    let off = run(
        compiled,
        &armed.profile,
        &mut off_cls,
        &opts,
        RunHooks::none(),
    )
    .unwrap();

    let mut watchdog = QualityWatchdog::new(WatchdogConfig::default());
    let mut on_cls = armed.classifier.clone();
    let on = run(
        compiled,
        &armed.profile,
        &mut on_cls,
        &opts,
        RunHooks::with_fifo_events(&armed.fifo_events).with_watchdog(&mut watchdog, 1),
    )
    .unwrap();

    let report = watchdog.report();
    assert!(report.breaches > 0, "{report:?}");
    assert!(
        on.quality_loss < off.quality_loss,
        "guarded {} vs unguarded {}",
        on.quality_loss,
        off.quality_loss
    );
    assert!(on.invoked < off.invoked);
}

//! The three workloads, end to end.
//!
//! Every workload runs the same user flow with its load placed
//! differently: obtain the jpeg/fft binary artifacts and the routed
//! inversek2j artifact (cold compiles on `compile-verify`, warm cache
//! loads on `serve-*`), serve datasets through the engine, and check the
//! certificates with the conformance harness.

use crate::accounting::Ops;
use crate::checks::{
    conform_reference, parse_json, reference_settings_mismatch, report_mismatches, route_reference,
};
use crate::layers;
use crate::programs::{compile_binary, compile_config, compile_routed, verify_pass, Certificates};
use crate::serving::{
    decision_counts, profile_endpoints, reference_results, run_session, schedule, start, Endpoint,
    Plan, Session,
};
use crate::settings::{
    repo_root, Args, Workload, BINARY_PAIR, MIN_SERVE_S, PINNED_TRIALS, QUALITY, QUEUE_DEPTH,
    ROUTED, SERVE_BATCH, SERVE_WORKERS, VERIFY_PASSES,
};
use crate::stats::median;
use crate::trace::{layer_totals, Tracer};
use mithra_core::pipeline::Compiled;
use mithra_core::route::RoutedCompiled;
use mithra_npu::kernel::KernelBackend;
use mithra_serve::{Request, ServeConfig, ServeReport};
use mithra_sim::system::RunResult;
use mithra_stats::descriptive::geomean;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Every program a serving deployment loads, in program-slot order.
pub const SUITE: [&str; 6] = [
    "blackscholes",
    "fft",
    "inversek2j",
    "jmeint",
    "jpeg",
    "sobel",
];
/// Served datasets per program on `compile-verify`'s deployment.
const CV_DATASETS: usize = 48;
/// Served datasets per program on `serve-bursty`.
const BURSTY_DATASETS: usize = 8;
/// Served datasets per binary program on `serve-interleaved`.
const INTERLEAVED_DATASETS: usize = 8;
/// Routed datasets on `serve-interleaved`.
const INTERLEAVED_ROUTED: usize = 8;
/// Sessions of a traced run over which traced and untraced sessions
/// alternate; later sessions are untraced, which bounds the trace size.
const TRACED_WINDOW: usize = 16;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operation accounting.
    pub ops: Ops,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// The recorded spans (traced runs).
    pub tracer: Tracer,
}

/// Artifacts obtained for one set-up.
struct Loaded {
    binary: Vec<(&'static str, Arc<Compiled>)>,
    routed: Arc<RoutedCompiled>,
    /// Wall spent obtaining the binary pair.
    compile_s: f64,
    /// Wall spent obtaining the routed artifact.
    compile_routed_s: f64,
}

impl Loaded {
    fn binary(&self, name: &str) -> &Arc<Compiled> {
        &self
            .binary
            .iter()
            .find(|(n, _)| *n == name)
            .expect("program is loaded")
            .1
    }
}

struct Run {
    args: Args,
    t: Tracer,
    ops: Ops,
    problems: Vec<String>,
    next_request: u64,
}

impl Run {
    fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }
}

/// Returns the allocator's free memory to the operating system.
///
/// A warm load spends much of its time faulting in fresh pages for about
/// 100 MB of profiles, and a conformance pass for its trial profiles.
/// Whether they must do so depends on what the run freed before them and
/// whether the allocator kept that memory, which varied from run to run
/// and made a load 1.6x and a pass 1.3x faster in some runs. Trimming
/// first makes every timed compile, load and pass start as it would in a
/// freshly started process.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases heap pages no allocation holds; any thread may call it
        // at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Compiles (`warm = false`, cache off) or cache-loads (`warm = true`)
/// the given binary programs plus the routed program, one request per
/// program, each from a trimmed heap. Loads are wrapped in
/// `core.cache_load` spans.
fn obtain(run: &mut Run, programs: &[&'static str], warm: bool) -> Option<Loaded> {
    let config = compile_config(warm);
    let mut binary = Vec::new();
    let mut compile_s = 0.0;
    for &name in programs {
        let request = run.request();
        release_free_memory();
        let span = warm.then(|| run.t.begin("core.cache_load", request));
        let t0 = Instant::now();
        let result = compile_binary(name, &config, &mut run.t, request);
        let wall = t0.elapsed().as_secs_f64();
        if let Some(span) = span {
            run.t.end(span);
        }
        run.ops.stage(&result);
        match result {
            Ok(c) => binary.push((name, Arc::new(c))),
            Err(e) => {
                run.fail(format!("compiling {name}: {e}"));
                return None;
            }
        }
        if BINARY_PAIR.contains(&name) {
            compile_s += wall;
        }
    }
    let request = run.request();
    release_free_memory();
    let span = warm.then(|| run.t.begin("core.cache_load", request));
    let t0 = Instant::now();
    let result = compile_routed(ROUTED, &config, &mut run.t, request);
    let compile_routed_s = t0.elapsed().as_secs_f64();
    if let Some(span) = span {
        run.t.end(span);
    }
    run.ops.stage(&result);
    let routed = match result {
        Ok(r) => Arc::new(r),
        Err(e) => {
            run.fail(format!("routed compile of {ROUTED}: {e}"));
            return None;
        }
    };
    Some(Loaded {
        binary,
        routed,
        compile_s,
        compile_routed_s,
    })
}

/// Loads every serving artifact once, untimed and untraced, so the
/// artifact cache is warm before anything is measured (the first run in
/// a fresh checkout compiles and stores them here). The memory it held is
/// returned and the peak resident set reset, so `peak_rss_mb` does not
/// depend on whether this run had to fill the cache.
fn warm_cache(run: &mut Run, programs: &[&'static str]) -> bool {
    let traced = run.t.enabled();
    run.t.set_enabled(false);
    let ops = run.ops;
    let ok = obtain(run, programs, true).is_some();
    run.ops = ops;
    run.t.set_enabled(traced);
    release_free_memory();
    // Writing 5 resets the `VmHWM` that `peak_rss_mb` reads (Linux 4.0+).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    ok
}

/// Conformance passes over the deployed certificates, spread evenly over
/// the serve loop so `verdict_s` samples the whole run rather than one
/// stretch of it (a shared host's speed can drift over seconds): each
/// pass timed, the first checked against the committed references, every
/// later one checked to repeat the first exactly.
struct Verifier {
    /// Add the seed-chosen extra trials to each pass.
    extra: bool,
    walls: Vec<f64>,
    first: Option<Vec<serde::Value>>,
}

impl Verifier {
    /// Runs passes until at least `progress` (0 to 1) of `VERIFY_PASSES`
    /// are done, and at least one.
    fn catch_up(&mut self, run: &mut Run, loaded: &Loaded, progress: f64) -> bool {
        let due = ((VERIFY_PASSES as f64 * progress).ceil() as usize).clamp(1, VERIFY_PASSES);
        while self.walls.len() < due {
            if !self.pass(run, loaded) {
                return false;
            }
        }
        true
    }

    fn pass(&mut self, run: &mut Run, loaded: &Loaded) -> bool {
        let certs = Certificates {
            binary: BINARY_PAIR
                .iter()
                .map(|&n| (n, &**loaded.binary(n)))
                .collect(),
            routed: (ROUTED, &*loaded.routed),
        };
        let request = run.request();
        release_free_memory();
        let root = run.t.begin("verify", request);
        let t0 = Instant::now();
        let pass = verify_pass(
            &certs,
            self.extra.then_some(run.args.seed),
            &mut run.t,
            request,
            &mut run.ops,
        );
        let wall = t0.elapsed().as_secs_f64();
        eprintln!("conformance pass {}: {wall:.4} s", self.walls.len());
        self.walls.push(wall);
        run.t.end(root);
        let pass = match pass {
            Ok(p) => p,
            Err(e) => {
                run.fail(format!("conformance validation: {e}"));
                return false;
            }
        };
        let values: Vec<serde::Value> = pass
            .pinned
            .iter()
            .chain(&pass.extra)
            .map(|(_, r)| serde::Serialize::serialize(r))
            .collect();
        match &self.first {
            None => {
                check_references(run, &pass.pinned);
                self.first = Some(values);
            }
            Some(f) if *f != values => {
                run.fail("conformance reports differ between passes".to_string())
            }
            Some(_) => {}
        }
        true
    }
}

/// The cold compiles of `compile-verify` (cache off): the binary pair
/// and the routed program, under one `compile` span.
fn compile_cold(run: &mut Run) -> Option<Loaded> {
    let request = run.request();
    let root = run.t.begin("compile", request);
    let loaded = obtain(run, &BINARY_PAIR, false);
    run.t.end(root);
    loaded
}

fn check_references(run: &mut Run, pinned: &[(String, mithra_conform::GuaranteeReport)]) {
    let root = repo_root();
    let load = |file: &str| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(root.join(file)).map_err(|e| format!("{file}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{file}: {e}"))
    };
    let (conform, route) = match (load("BENCH_conform.json"), load("BENCH_route.json")) {
        (Ok(c), Ok(r)) => (c, r),
        (Err(e), _) | (_, Err(e)) => return run.fail(format!("reference unreadable: {e}")),
    };
    for doc in [&conform, &route] {
        if let Some(m) = reference_settings_mismatch(doc, QUALITY, PINNED_TRIALS as u64) {
            run.fail(m);
        }
    }
    for (name, report) in pinned {
        let expected = if name == ROUTED {
            route_reference(&route, name)
        } else {
            conform_reference(&conform, name)
        };
        let Some(expected) = expected else {
            run.fail(format!("no committed reference for {name}"));
            continue;
        };
        let actual = serde::Serialize::serialize(report);
        for m in report_mismatches(name, &actual, expected) {
            run.fail(m);
        }
    }
}

/// Engine counters of one session, summed over endpoints.
#[derive(Debug, Clone, Copy)]
struct EngineCounts {
    served: u64,
    approx: u64,
    config_bursts: u64,
    npu_ns: u64,
}

impl EngineCounts {
    fn of(report: &ServeReport) -> Self {
        let mut c = Self {
            served: 0,
            approx: 0,
            config_bursts: 0,
            npu_ns: 0,
        };
        for e in &report.endpoints {
            c.served += e.counters.served;
            c.approx += e.counters.approx;
            c.config_bursts += e.counters.config_bursts;
            c.npu_ns += e.counters.approx_wall_nanos;
        }
        c
    }
}

/// The serve phase's measurements.
struct Served {
    setup_s: Vec<f64>,
    /// Per set-up: wall of obtaining the binary pair and the routed
    /// program.
    compile_s: Vec<f64>,
    compile_routed_s: Vec<f64>,
    /// Per session: served invocations per second, and whether traced.
    sessions: Vec<(f64, bool)>,
    endpoints: Vec<Endpoint>,
    schedule: Vec<Request>,
    results: Vec<RunResult>,
    /// Per session: the engine's own counters, summed over endpoints.
    engine: Vec<EngineCounts>,
    loaded: Loaded,
}

/// The first session's decision counts and results, which every later
/// session must repeat exactly.
type Fingerprint = (Vec<(u64, u64)>, Vec<RunResult>);

/// Checks one session's accounting and report; the first session's
/// fingerprint is kept for comparing the rest.
fn check_session(run: &mut Run, i: usize, session: &Session, first: &mut Option<Fingerprint>) {
    let c = session.counts;
    if c.served != c.offered || c.duplicates > 0 || c.worker_panicked || c.rejected_terminal > 0 {
        run.fail(format!(
            "session {i}: offered {} served {} duplicates {} rejected {} panicked {}",
            c.offered, c.served, c.duplicates, c.rejected_terminal, c.worker_panicked
        ));
    }
    let Some(report) = &session.report else {
        return;
    };
    let errors = report.snapshot().consistency_errors();
    if !errors.is_empty() {
        run.fail(format!("session {i}: metrics inconsistent: {errors:?}"));
    }
    let fingerprint = (
        decision_counts(report),
        report.endpoints.iter().filter_map(|e| e.result).collect(),
    );
    match first {
        None => *first = Some(fingerprint),
        Some(f) if *f != fingerprint => run.fail(format!(
            "session {i}: decisions or results differ from the first session"
        )),
        Some(_) => {}
    }
}

/// Set-ups and engine sessions until the run has measured `--seconds`
/// (and the serve phase has lasted at least `MIN_SERVE_S` and run
/// `plan.min_sessions` sessions), with the conformance passes spread
/// between the sessions. The first `plan.setups` sessions each follow a
/// full set-up, which obtains the artifacts (cold compiles when `cold`,
/// warm cache loads otherwise), profiles the served datasets and starts
/// the engine; later sessions restart the engine over the same endpoints.
fn serve(run: &mut Run, plan: &Plan, cold: bool, verifier: &mut Verifier) -> Option<Served> {
    let seed = run.args.seed;
    let measured_from = Instant::now();
    // Serve phase start and length, fixed once the first set-up is done.
    let mut phase: Option<(Instant, f64)> = None;
    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut compile_routed_s = Vec::new();
    let mut deployed: Option<(Loaded, Vec<Endpoint>, Vec<Request>)> = None;
    let mut sessions = Vec::new();
    let mut engine = Vec::new();
    let mut first = None;
    for i in 0.. {
        let progress = phase.map_or(0.0, |(from, budget)| from.elapsed().as_secs_f64() / budget);
        if i >= plan.min_sessions && progress >= 1.0 {
            break;
        }
        let request = run.request();
        let started = if i < plan.setups {
            let root = run.t.begin("setup", request);
            let t0 = Instant::now();
            let loaded = if cold {
                compile_cold(run)?
            } else {
                obtain(run, &SUITE, true)?
            };
            let routed = (plan.routed > 0).then(|| (ROUTED, &loaded.routed, loaded.binary(ROUTED)));
            let endpoints =
                profile_endpoints(plan, &loaded.binary, routed, seed, &mut run.t, request);
            let schedule = schedule(&endpoints, plan.shuffle, seed);
            let started = start(&endpoints, &plan.config, &mut run.t, request);
            setup_s.push(t0.elapsed().as_secs_f64());
            run.t.end(root);
            compile_s.push(loaded.compile_s);
            compile_routed_s.push(loaded.compile_routed_s);
            deployed = Some((loaded, endpoints, schedule));
            started
        } else {
            let root = run.t.begin("restart", request);
            let endpoints = &deployed.as_ref()?.1;
            let started = start(endpoints, &plan.config, &mut run.t, request);
            run.t.end(root);
            started
        };
        let started = match started {
            Ok(e) => e,
            Err(e) => {
                run.fail(format!("engine start: {e}"));
                return None;
            }
        };
        if phase.is_none() {
            let budget =
                (run.args.seconds - measured_from.elapsed().as_secs_f64()).max(MIN_SERVE_S);
            phase = Some((Instant::now(), budget));
        }
        // Traced runs alternate traced and untraced sessions over the
        // first `TRACED_WINDOW`; the difference is the tracing overhead.
        let traced = run.args.trace && i < TRACED_WINDOW && i % 2 == 0;
        run.t.set_enabled(traced);
        let schedule = &deployed.as_ref()?.2;
        let session = run_session(started, schedule, &mut run.t, request);
        run.t.set_enabled(run.args.trace);
        run.ops.session(&session.counts);
        check_session(run, i, &session, &mut first);
        if let Some(report) = &session.report {
            engine.push(EngineCounts::of(report));
        }
        let rate = session.counts.offered as f64 / session.wall.as_secs_f64();
        eprintln!(
            "session {i}: {} invocations in {:.4} s, {rate:.0}/s{}",
            session.counts.offered,
            session.wall.as_secs_f64(),
            if traced { " (traced)" } else { "" }
        );
        sessions.push((rate, traced));
        let progress = phase.map_or(0.0, |(from, budget)| from.elapsed().as_secs_f64() / budget);
        if !verifier.catch_up(run, &deployed.as_ref()?.0, progress) {
            return None;
        }
    }
    let (loaded, endpoints, schedule) = deployed?;
    if !verifier.catch_up(run, &loaded, 1.0) {
        return None;
    }
    let (_, results) = first?;
    match reference_results(&endpoints) {
        Ok(expected) if expected == results => {}
        Ok(_) => run.fail("served results differ from the sequential simulator".to_string()),
        Err(e) => run.fail(format!("reference simulation: {e}")),
    }
    Some(Served {
        setup_s,
        compile_s,
        compile_routed_s,
        sessions,
        endpoints,
        schedule,
        results,
        engine,
        loaded,
    })
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: SERVE_WORKERS,
        batch: SERVE_BATCH,
        queue_depth: QUEUE_DEPTH,
        ..ServeConfig::default()
    }
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::CompileVerify => Plan {
            binary: BINARY_PAIR.iter().map(|&n| (n, CV_DATASETS)).collect(),
            routed: 0,
            shuffle: false,
            config: serve_config(),
            // One set-up: the cold compiles.
            setups: 1,
            // The cold compiles leave the serve phase only a few seconds;
            // the fastest-session rate needs enough sessions to be steady.
            min_sessions: 48,
        },
        Workload::ServeBursty => Plan {
            binary: SUITE.iter().map(|&n| (n, BURSTY_DATASETS)).collect(),
            routed: 0,
            shuffle: false,
            config: serve_config(),
            setups: 3,
            min_sessions: 3,
        },
        Workload::ServeInterleaved => Plan {
            binary: SUITE.iter().map(|&n| (n, INTERLEAVED_DATASETS)).collect(),
            routed: INTERLEAVED_ROUTED,
            shuffle: true,
            config: serve_config(),
            setups: 5,
            min_sessions: 5,
        },
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    let mut run = Run {
        args: args.clone(),
        t: Tracer::new(args.trace),
        ops: Ops::default(),
        problems: Vec::new(),
        next_request: 0,
    };
    let metrics = workload(&mut run).unwrap_or_default();
    Outcome {
        correct: run.problems.is_empty() && !metrics.is_empty(),
        ops: run.ops,
        metrics,
        problems: run.problems,
        tracer: run.t,
    }
}

fn workload(run: &mut Run) -> Option<Vec<Metric>> {
    let w = run.args.workload;
    let cold = w == Workload::CompileVerify;
    if !cold && !warm_cache(run, &SUITE) {
        return None;
    }
    let mut verifier = Verifier {
        extra: cold,
        walls: Vec::new(),
        first: None,
    };
    let served = serve(run, &plan(w), cold, &mut verifier)?;

    let speedups: Vec<f64> = served.results.iter().map(RunResult::speedup).collect();
    if speedups.len() != served.endpoints.len() {
        run.fail("an endpoint produced no result".to_string());
        return None;
    }
    if !run.args.trace {
        let modeled_speedup = match geomean(&speedups) {
            Ok(g) => g,
            Err(e) => {
                run.fail(format!("modeled speedup: {e}"));
                return None;
            }
        };
        // Throughput is the fastest session's: a session serves for
        // 40-200 ms, and the host's speed moves by up to 2x between such
        // windows, so a median over sessions reads the share of the run
        // spent in slow spells (README.md).
        let best_rate = served.sessions.iter().map(|s| s.0).fold(0.0, f64::max);
        return Some(vec![
            metric("setup_s", median(&served.setup_s), "s"),
            metric("verdict_s", median(&verifier.walls), "s"),
            metric("serve_inv_per_s", best_rate, "1/s"),
            metric("modeled_speedup", modeled_speedup, "x"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]);
    }
    layer_metrics(run, &served)
}

/// Busy time of each span name per request it served (per compiled
/// program, per set-up or traced session, per conformance pass), in ms.
fn per_request_busy_ms(t: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut requests: BTreeMap<&'static str, BTreeSet<u64>> = BTreeMap::new();
    for s in t.spans() {
        requests.entry(s.name).or_default().insert(s.request);
    }
    layer_totals(t.spans())
        .into_iter()
        .map(|(name, totals)| {
            let n = requests.get(name).map_or(1, BTreeSet::len).max(1);
            (name, totals.busy_ns as f64 / 1e6 / n as f64)
        })
        .collect()
}

fn layer_metrics(run: &mut Run, served: &Served) -> Option<Vec<Metric>> {
    // compile-verify loads nothing from the cache on its own path; time a
    // warm load of the same programs, untraced, so the cache layer is
    // measured per program there too.
    let cache_load_ms = if run.args.workload == Workload::CompileVerify {
        if !warm_cache(run, &BINARY_PAIR) {
            return None;
        }
        run.t.set_enabled(false);
        let t0 = Instant::now();
        let loaded = obtain(run, &BINARY_PAIR, true);
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        run.t.set_enabled(true);
        loaded?;
        Some(wall / (BINARY_PAIR.len() + 1) as f64)
    } else {
        None
    };
    let busy = per_request_busy_ms(&run.t);
    // Obtaining the artifacts, per set-up: cold compiles on
    // compile-verify, warm loads on serve-*.
    let mut m = vec![
        metric("core.compile_ms", median(&served.compile_s) * 1e3, "ms"),
        metric(
            "core.compile_routed_ms",
            median(&served.compile_routed_s) * 1e3,
            "ms",
        ),
    ];
    for span in [
        "core.session.train_npu",
        "core.session.profile",
        "core.session.certify",
        "core.session.train_classifiers",
        "core.session.train_pool",
        "core.session.certify_routed",
        "core.session.train_router",
        "core.cache_load",
        "axbench.dataset",
        "core.profile_collect",
        "conform.validate",
        "conform.validate_routed",
        "serve.start",
        "serve.submit",
        "serve.backpressure_wait",
        "serve.join",
    ] {
        let value = match (span, cache_load_ms) {
            ("core.cache_load", Some(ms)) => ms,
            _ => busy.get(span).copied().unwrap_or(0.0),
        };
        m.push(metric(&format!("{span}_ms"), value, "ms"));
    }
    let totals = layer_totals(run.t.spans());
    for phase in ["setup", "session", "verify"] {
        let self_ms = totals
            .get(phase)
            .map_or(0.0, |x| x.self_ns as f64 / 1e6 / x.count.max(1) as f64);
        m.push(metric(&format!("phase.{phase}.self_ms"), self_ms, "ms"));
    }

    // Engine counters, per session.
    let per_session =
        |f: fn(&EngineCounts) -> f64| median(&served.engine.iter().map(f).collect::<Vec<_>>());
    m.push(metric(
        "serve.refused_offers",
        run.ops.refused_offers as f64 / served.sessions.len() as f64,
        "count",
    ));
    m.push(metric(
        "serve.approx_frac",
        per_session(|e| e.approx as f64 / e.served.max(1) as f64),
        "ratio",
    ));
    m.push(metric(
        "serve.config_bursts",
        per_session(|e| e.config_bursts as f64),
        "count",
    ));
    m.push(metric(
        "serve.npu_busy_ms",
        per_session(|e| e.npu_ns as f64 / 1e6),
        "ms",
    ));

    // Replays of single layer calls on this workload's own inputs.
    let loaded = &served.loaded;
    let (jpeg, fft) = (loaded.binary("jpeg"), loaded.binary("fft"));
    let (e, sched, routed) = (&served.endpoints, &served.schedule, &*loaded.routed);
    m.push(metric(
        "core.table_decide_ns",
        layers::table_decide_ns(e, sched),
        "ns",
    ));
    m.push(metric(
        "core.route_decide_ns",
        layers::route_decide_ns(e, sched, routed),
        "ns",
    ));
    match layers::watchdog_admit_ns(e, sched) {
        Ok(ns) => m.push(metric("core.watchdog_admit_ns", ns, "ns")),
        Err(err) => run.fail(format!("watchdog replay: {err}")),
    }
    m.push(metric(
        "npu.forward_batch_ns.scalar",
        layers::forward_batch_ns(e, sched, KernelBackend::Scalar),
        "ns",
    ));
    m.push(metric(
        "npu.forward_batch_ns.simd",
        layers::forward_batch_ns(e, sched, KernelBackend::Simd),
        "ns",
    ));
    m.push(metric(
        "npu.forward_one_ns",
        layers::forward_one_ns(e, sched),
        "ns",
    ));
    m.push(metric(
        "npu.config_stream_ns",
        layers::config_stream_ns(e),
        "ns",
    ));
    m.push(metric(
        "sim.charge_ns",
        layers::charge_ns(e, sched, routed),
        "ns",
    ));
    m.push(metric("serve.queue_ns", layers::queue_ns(sched), "ns"));
    match layers::cp_upper_ns() {
        Ok(ns) => m.push(metric("stats.cp_upper_ns", ns, "ns")),
        Err(err) => run.fail(format!("Clopper-Pearson replay: {err}")),
    }
    match layers::threshold_probe_ms(&[jpeg, fft]) {
        Ok(ms) => m.push(metric("core.threshold.probe_ms", ms, "ms")),
        Err(err) => run.fail(format!("threshold probe: {err}")),
    }
    match layers::sim_run_ms(jpeg, routed) {
        Ok((binary, routed)) => {
            m.push(metric("sim.run_ms", binary, "ms"));
            m.push(metric("sim.run_routed_ms", routed, "ms"));
        }
        Err(err) => run.fail(format!("simulator replay: {err}")),
    }
    match layers::train_classifiers_ms(jpeg) {
        Ok((table, neural)) => {
            m.push(metric("core.train_table_ms", table, "ms"));
            m.push(metric("core.train_neural_ms", neural, "ms"));
        }
        Err(err) => run.fail(format!("classifier re-training: {err}")),
    }

    // Tracing overhead: traced against untraced sessions of this run.
    let wall = |traced: bool| {
        let v: Vec<f64> = served
            .sessions
            .iter()
            .filter(|s| s.1 == traced)
            .map(|s| 1.0 / s.0)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let overhead = match (wall(true), wall(false)) {
        (Some(on), Some(off)) => (on / off - 1.0) * 100.0,
        _ => f64::NAN,
    };
    m.push(metric("trace.overhead_pct", overhead, "%"));
    m.push(metric("trace.spans", run.t.spans().len() as f64, "count"));
    Some(m)
}

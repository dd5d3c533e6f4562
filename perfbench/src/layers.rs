//! Per-layer timings taken by replaying a layer's public function on the
//! workload's own inputs (traced runs only).
//!
//! Each replay prepares its state untimed, times the layer call over many
//! inputs, and repeats; the reported figure is the median per-call time.

use crate::programs::spec;
use crate::serving::{calibrated_watchdog, Endpoint};
use crate::settings::{COMPILE_THREADS, QUEUE_DEPTH, SERVE_BATCH, SUBMIT_CHUNK, WATCHDOG_PERIOD};
use crate::stats::median;
use mithra_axbench::dataset::DatasetScale;
use mithra_core::classifier::{Classifier, Decision};
use mithra_core::function::{AcceleratedFunction, InvokeScratch};
use mithra_core::neural::{NeuralClassifier, NeuralTrainConfig};
use mithra_core::pipeline::{quantizer_from_profiles, Compiled};
use mithra_core::profile::DatasetProfile;
use mithra_core::route::{RouteChoice, RoutedCompiled};
use mithra_core::seeds::CONFORM_SEED_BASE;
use mithra_core::table::{TableClassifier, TableDesign};
use mithra_core::threshold::ThresholdOptimizer;
use mithra_core::watchdog::QualityWatchdog;
use mithra_npu::fifo::QueueInterface;
use mithra_npu::kernel::KernelBackend;
use mithra_serve::{BoundedQueue, Request};
use mithra_sim::fault::FifoEvent;
use mithra_sim::system::{
    run, run_routed, InvocationModel, RoutedInvocationModel, RunHooks, SimOptions,
};
use mithra_stats::clopper_pearson::{upper_bound, Confidence};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replayed requests are capped so a replay stays well under a second.
const MAX_REPLAY: usize = 60_000;
/// Minimum timed wall per replay metric.
const MIN_TIMED: Duration = Duration::from_millis(40);

/// Median nanoseconds per unit over repeated timed rounds. `round`
/// prepares untimed state, then returns the timed wall and the units of
/// work it covered.
fn per_unit_ns(mut round: impl FnMut() -> (Duration, usize)) -> f64 {
    let mut samples = Vec::new();
    let mut total = Duration::ZERO;
    while samples.len() < 5 || (total < MIN_TIMED && samples.len() < 200) {
        let (wall, units) = round();
        total += wall;
        samples.push(wall.as_nanos() as f64 / units.max(1) as f64);
    }
    median(&samples)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The replayed slice of the schedule: binary endpoints only.
fn binary_requests<'a>(endpoints: &'a [Endpoint], schedule: &'a [Request]) -> Vec<Request> {
    schedule
        .iter()
        .filter(|r| endpoints[r.endpoint].routed.is_none())
        .take(MAX_REPLAY)
        .copied()
        .collect()
}

fn input<'a>(endpoints: &'a [Endpoint], r: &Request) -> &'a [f32] {
    endpoints[r.endpoint].profile.dataset().input(r.invocation)
}

/// Raw table decisions for `requests`, in order.
fn decisions(endpoints: &[Endpoint], requests: &[Request]) -> Vec<Decision> {
    let mut tables: Vec<TableClassifier> =
        endpoints.iter().map(|e| e.compiled.table.clone()).collect();
    requests
        .iter()
        .map(|r| tables[r.endpoint].classify(r.invocation, input(endpoints, r)))
        .collect()
}

/// `TableClassifier::classify` per invocation.
pub fn table_decide_ns(endpoints: &[Endpoint], schedule: &[Request]) -> f64 {
    let requests = binary_requests(endpoints, schedule);
    per_unit_ns(|| {
        let mut tables: Vec<TableClassifier> =
            endpoints.iter().map(|e| e.compiled.table.clone()).collect();
        let t0 = Instant::now();
        for r in &requests {
            black_box(tables[r.endpoint].classify(r.invocation, input(endpoints, r)));
        }
        (t0.elapsed(), requests.len())
    })
}

/// The routed inputs to replay: the workload's routed endpoints in arrival
/// order, or else the routed artifact's first compile datasets.
fn routed_inputs<'a>(
    endpoints: &'a [Endpoint],
    schedule: &[Request],
    routed: &'a RoutedCompiled,
) -> Vec<(usize, &'a [f32])> {
    let served: Vec<(usize, &[f32])> = schedule
        .iter()
        .filter(|r| endpoints[r.endpoint].routed.is_some())
        .take(MAX_REPLAY)
        .map(|r| (r.invocation, input(endpoints, r)))
        .collect();
    if !served.is_empty() {
        return served;
    }
    routed
        .member_profiles
        .last()
        .into_iter()
        .flatten()
        .take(8)
        .flat_map(|p| p.dataset().iter().enumerate())
        .collect()
}

/// `RouteClassifier::classify_route` per invocation.
pub fn route_decide_ns(
    endpoints: &[Endpoint],
    schedule: &[Request],
    routed: &RoutedCompiled,
) -> f64 {
    let inputs = routed_inputs(endpoints, schedule, routed);
    per_unit_ns(|| {
        let mut router = routed.router.clone();
        let t0 = Instant::now();
        for &(i, x) in &inputs {
            black_box(router.classify_route(i, x));
        }
        (t0.elapsed(), inputs.len())
    })
}

/// `QualityWatchdog::admit` plus `record` on sampled invocations, per
/// invocation.
///
/// # Errors
///
/// Watchdog calibration or statistics errors, as text.
pub fn watchdog_admit_ns(endpoints: &[Endpoint], schedule: &[Request]) -> Result<f64, String> {
    let requests = binary_requests(endpoints, schedule);
    let raw = decisions(endpoints, &requests);
    // One calibration per artifact, forked per endpoint, as the engine
    // does.
    let mut protos: Vec<(*const Compiled, QualityWatchdog)> = Vec::new();
    let mut proto_of = Vec::with_capacity(endpoints.len());
    for e in endpoints {
        let key = Arc::as_ptr(&e.compiled);
        let index = match protos.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                protos.push((key, calibrated_watchdog(&e.compiled)?));
                protos.len() - 1
            }
        };
        proto_of.push(index);
    }
    let mut failure = None;
    let ns = per_unit_ns(|| {
        let mut dogs: Vec<_> = proto_of.iter().map(|&p| protos[p].1.fork()).collect();
        let t0 = Instant::now();
        for (r, &d) in requests.iter().zip(&raw) {
            let dog = &mut dogs[r.endpoint];
            black_box(dog.admit(d));
            if d == Decision::Approximate && r.invocation % WATCHDOG_PERIOD == 0 {
                let e = &endpoints[r.endpoint];
                let violation = e.profile.max_error(r.invocation) > e.compiled.threshold.threshold;
                if let Err(err) = dog.record(violation) {
                    failure = Some(err.to_string());
                }
            }
        }
        (t0.elapsed(), requests.len())
    });
    failure.map_or(Ok(ns), Err)
}

/// Inputs of each binary endpoint's replayed invocations, flat, in
/// arrival order.
fn staged_inputs(endpoints: &[Endpoint], requests: &[Request]) -> Vec<Vec<f32>> {
    let mut staged = vec![Vec::new(); endpoints.len()];
    for r in requests {
        staged[r.endpoint].extend_from_slice(input(endpoints, r));
    }
    staged
}

/// `approx_batch_with` over sub-batches of `SERVE_BATCH`, per invocation,
/// on the given kernel.
pub fn forward_batch_ns(
    endpoints: &[Endpoint],
    schedule: &[Request],
    kernel: KernelBackend,
) -> f64 {
    let requests = binary_requests(endpoints, schedule);
    let staged = staged_inputs(endpoints, &requests);
    let functions: Vec<AcceleratedFunction> = endpoints
        .iter()
        .map(|e| e.compiled.function.clone().with_kernel(kernel))
        .collect();
    per_unit_ns(|| {
        let mut scratch = InvokeScratch::new();
        let mut out = Vec::new();
        let t0 = Instant::now();
        for (f, flat) in functions.iter().zip(&staged) {
            let dim = f.benchmark().input_dim();
            for chunk in flat.chunks(dim * SERVE_BATCH) {
                f.approx_batch_with(chunk, chunk.len() / dim, &mut out, &mut scratch);
                black_box(&out);
            }
        }
        (t0.elapsed(), requests.len())
    })
}

/// `approx_with`, one invocation at a time.
pub fn forward_one_ns(endpoints: &[Endpoint], schedule: &[Request]) -> f64 {
    let requests = binary_requests(endpoints, schedule);
    per_unit_ns(|| {
        let mut scratch = InvokeScratch::new();
        let mut out = Vec::new();
        let t0 = Instant::now();
        for r in &requests {
            endpoints[r.endpoint].compiled.function.approx_with(
                input(endpoints, r),
                &mut out,
                &mut scratch,
            );
            black_box(&out);
        }
        (t0.elapsed(), requests.len())
    })
}

/// `QueueInterface::stream_config`, per configuration stream (one per
/// endpoint image, repeated).
pub fn config_stream_ns(endpoints: &[Endpoint]) -> f64 {
    let images: Vec<Vec<u32>> = endpoints
        .iter()
        .map(|e| {
            let (w, b) = e.compiled.function.npu().to_parameters();
            w.iter().chain(&b).map(|x| x.to_bits()).collect()
        })
        .collect();
    per_unit_ns(|| {
        let mut queues = QueueInterface::new();
        let t0 = Instant::now();
        for _ in 0..16 {
            for image in &images {
                black_box(queues.stream_config(image));
            }
        }
        (t0.elapsed(), 16 * images.len())
    })
}

/// `InvocationModel::charge` and `RoutedInvocationModel::charge_route`,
/// per invocation, on the replayed decisions.
pub fn charge_ns(endpoints: &[Endpoint], schedule: &[Request], routed: &RoutedCompiled) -> f64 {
    let options = SimOptions::default();
    let requests = binary_requests(endpoints, schedule);
    let raw = decisions(endpoints, &requests);
    let models: Vec<InvocationModel> = endpoints
        .iter()
        .map(|e| InvocationModel::new(&e.compiled, &e.compiled.table.overhead(), &options))
        .collect();
    let routed_model = RoutedInvocationModel::new(routed, &options);
    let inputs = routed_inputs(endpoints, schedule, routed);
    let mut router = routed.router.clone();
    let routes: Vec<RouteChoice> = inputs
        .iter()
        .map(|&(i, x)| router.classify_route(i, x))
        .collect();
    per_unit_ns(|| {
        let t0 = Instant::now();
        for (r, &d) in requests.iter().zip(&raw) {
            black_box(models[r.endpoint].charge(d, FifoEvent::None, false));
        }
        for &route in &routes {
            black_box(routed_model.charge_route(route, FifoEvent::None, false));
        }
        (t0.elapsed(), requests.len() + routes.len())
    })
}

/// `BoundedQueue::try_push_batch` plus `pop_batch`, per request, as the
/// generator and one worker use them.
pub fn queue_ns(schedule: &[Request]) -> f64 {
    let requests = &schedule[..schedule.len().min(MAX_REPLAY)];
    per_unit_ns(|| {
        let queue = BoundedQueue::new(QUEUE_DEPTH);
        let mut batch = Vec::with_capacity(SERVE_BATCH);
        let t0 = Instant::now();
        for chunk in requests.chunks(SUBMIT_CHUNK) {
            let mut offered = chunk;
            while !offered.is_empty() {
                let accepted = queue.try_push_batch(offered).expect("queue stays open");
                offered = &offered[accepted..];
                while queue.len() >= QUEUE_DEPTH / 2 {
                    batch.clear();
                    queue.pop_batch(SERVE_BATCH, &mut batch);
                }
            }
        }
        queue.close();
        loop {
            batch.clear();
            if queue.pop_batch(SERVE_BATCH, &mut batch) == 0 {
                break;
            }
        }
        (t0.elapsed(), requests.len())
    })
}

/// `clopper_pearson::upper_bound`, per call, over every success count of
/// 100 and 250 trials.
///
/// # Errors
///
/// The bound's statistics error, as text.
pub fn cp_upper_ns() -> Result<f64, String> {
    let confidence = Confidence::new(0.95).map_err(|e| e.to_string())?;
    let mut failure = None;
    let ns = per_unit_ns(|| {
        let t0 = Instant::now();
        let mut calls = 0;
        for n in [100u64, 250] {
            for k in 0..=n {
                match upper_bound(k, n, confidence) {
                    Ok(b) => {
                        black_box(b);
                    }
                    Err(e) => failure = Some(e.to_string()),
                }
                calls += 1;
            }
        }
        (t0.elapsed(), calls)
    });
    failure.map_or(Ok(ns), Err)
}

/// One `ThresholdOptimizer::certify` probe at each binary artifact's
/// certified threshold, per probe, in ms.
///
/// # Errors
///
/// The probe's error, as text.
pub fn threshold_probe_ms(programs: &[&Compiled]) -> Result<f64, String> {
    let optimizer = ThresholdOptimizer::new(spec()).with_threads(Some(COMPILE_THREADS));
    let mut samples = Vec::new();
    for _ in 0..3 {
        for c in programs {
            let t0 = Instant::now();
            optimizer
                .certify(&c.function, &c.profiles, c.threshold.threshold)
                .map_err(|e| e.to_string())?;
            samples.push(ms(t0.elapsed()));
        }
    }
    Ok(median(&samples))
}

/// Re-trains the table and neural classifiers on a certified artifact's
/// training data, in ms each.
///
/// # Errors
///
/// A training error, as text.
pub fn train_classifiers_ms(compiled: &Compiled) -> Result<(f64, f64), String> {
    let quantizer = quantizer_from_profiles(&compiled.profiles);
    let t0 = Instant::now();
    TableClassifier::train_with_threads(
        TableDesign::paper_default(),
        quantizer,
        &compiled.training_data,
        Some(COMPILE_THREADS),
    )
    .map_err(|e| e.to_string())?;
    let table = ms(t0.elapsed());
    let t0 = Instant::now();
    NeuralClassifier::train_with_threads(
        compiled.function.benchmark().input_dim(),
        &compiled.training_data,
        &NeuralTrainConfig::default(),
        Some(COMPILE_THREADS),
    )
    .map_err(|e| e.to_string())?;
    Ok((table, ms(t0.elapsed())))
}

/// `sim::system::run` on the first conformance trial of `compiled`, and
/// `run_routed` on the first trial of `routed`, in ms each.
///
/// # Errors
///
/// A simulator error, as text.
pub fn sim_run_ms(compiled: &Compiled, routed: &RoutedCompiled) -> Result<(f64, f64), String> {
    let options = SimOptions::default();
    let dataset = compiled
        .function
        .dataset(CONFORM_SEED_BASE, DatasetScale::Full);
    let profile = DatasetProfile::collect(&compiled.function, dataset);
    let dataset = routed
        .pool
        .accurate()
        .dataset(CONFORM_SEED_BASE, DatasetScale::Full);
    let members: Vec<DatasetProfile> = routed
        .pool
        .members()
        .iter()
        .map(|m| DatasetProfile::collect(m, dataset.clone()))
        .collect();
    let refs: Vec<&DatasetProfile> = members.iter().collect();
    let (mut binary, mut routed_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut classifier = compiled.table.clone();
        let t0 = Instant::now();
        run(
            compiled,
            &profile,
            &mut classifier,
            &options,
            RunHooks::none(),
        )
        .map_err(|e| e.to_string())?;
        binary.push(ms(t0.elapsed()));
        let mut router = routed.router.clone();
        let t0 = Instant::now();
        run_routed(routed, &refs, &mut router, &options).map_err(|e| e.to_string())?;
        routed_ms.push(ms(t0.elapsed()));
    }
    Ok((median(&binary), median(&routed_ms)))
}

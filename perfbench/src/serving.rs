//! Deploying artifacts on the serving engine and driving it from the
//! benchmark's single generator thread.

use crate::accounting::SessionCounts;
use crate::settings::{arrival_seed, serve_dataset_seed, SUBMIT_CHUNK};
use crate::trace::Tracer;
use mithra_axbench::dataset::DatasetScale;
use mithra_core::pipeline::Compiled;
use mithra_core::profile::DatasetProfile;
use mithra_core::route::RoutedCompiled;
use mithra_core::watchdog::{self, QualityWatchdog};
use mithra_serve::{
    Backoff, EndpointSpec, Request, RoutedServeSpec, ServeConfig, ServeEngine, ServeError,
    ServeReport,
};
use mithra_sim::system::{run_routed, simulate, RunResult, SimOptions};
use mithra_stats::clopper_pearson::Confidence;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One registered endpoint: an artifact and the profiled dataset it
/// serves.
pub struct Endpoint {
    /// Program name.
    pub program: &'static str,
    /// The binary artifact (routed endpoints carry their program's too).
    pub compiled: Arc<Compiled>,
    /// The served dataset's profile (the accurate member's, if routed).
    pub profile: DatasetProfile,
    /// The routed artifact and every member's profile of the dataset.
    pub routed: Option<(Arc<RoutedCompiled>, Vec<DatasetProfile>)>,
}

impl Endpoint {
    /// The engine spec; profiles are cloned, the engine owns its copy.
    pub fn spec(&self) -> EndpointSpec {
        EndpointSpec {
            name: self.program.to_string(),
            compiled: Arc::clone(&self.compiled),
            profile: self.profile.clone(),
            routed: self.routed.as_ref().map(|(r, members)| RoutedServeSpec {
                routed: Arc::clone(r),
                member_profiles: members.clone(),
            }),
        }
    }
}

/// What a workload deploys: served datasets per binary program (in
/// program-slot order), routed datasets, arrival order, engine settings.
#[derive(Debug)]
pub struct Plan {
    /// `(program, datasets)` per binary program.
    pub binary: Vec<(&'static str, usize)>,
    /// Datasets served through the routed artifact.
    pub routed: usize,
    /// Shuffle arrivals uniformly across endpoints (otherwise each
    /// dataset arrives as one contiguous, in-order burst).
    pub shuffle: bool,
    /// Engine settings.
    pub config: ServeConfig,
    /// Sessions that each follow a full set-up; `setup_s` is the median
    /// of these set-ups.
    pub setups: usize,
    /// Fewest sessions a run serves, however long its other phases took
    /// (at least `setups`).
    pub min_sessions: usize,
}

/// Generates and profiles every served dataset, binary programs
/// round-robin, routed datasets last. `routed` pairs the routed artifact
/// with its program's binary artifact.
pub fn profile_endpoints(
    plan: &Plan,
    binary: &[(&'static str, Arc<Compiled>)],
    routed: Option<(&'static str, &Arc<RoutedCompiled>, &Arc<Compiled>)>,
    seed: u64,
    t: &mut Tracer,
    request: u64,
) -> Vec<Endpoint> {
    let rounds = plan.binary.iter().map(|p| p.1).max().unwrap_or(0);
    let mut endpoints = Vec::new();
    for d in 0..rounds {
        for (slot, &(program, count)) in plan.binary.iter().enumerate() {
            if d >= count {
                continue;
            }
            let compiled = &binary
                .iter()
                .find(|(name, _)| *name == program)
                .expect("every planned program is loaded")
                .1;
            let ds_seed = serve_dataset_seed(seed, slot, d);
            let dataset = t.span("axbench.dataset", request, || {
                compiled.function.dataset(ds_seed, DatasetScale::Full)
            });
            let profile = t.span("core.profile_collect", request, || {
                DatasetProfile::collect(&compiled.function, dataset)
            });
            endpoints.push(Endpoint {
                program,
                compiled: Arc::clone(compiled),
                profile,
                routed: None,
            });
        }
    }
    if let Some((program, routed, compiled)) = routed {
        for d in 0..plan.routed {
            let ds_seed = serve_dataset_seed(seed, plan.binary.len(), d);
            let dataset = t.span("axbench.dataset", request, || {
                routed.pool.accurate().dataset(ds_seed, DatasetScale::Full)
            });
            let members: Vec<DatasetProfile> = routed
                .pool
                .members()
                .iter()
                .map(|m| {
                    t.span("core.profile_collect", request, || {
                        DatasetProfile::collect(m, dataset.clone())
                    })
                })
                .collect();
            endpoints.push(Endpoint {
                program,
                compiled: Arc::clone(compiled),
                profile: members.last().expect("pool is non-empty").clone(),
                routed: Some((Arc::clone(routed), members)),
            });
        }
    }
    endpoints
}

/// The arrival schedule: every invocation of every endpoint once.
pub fn schedule(endpoints: &[Endpoint], shuffle: bool, seed: u64) -> Vec<Request> {
    let mut requests: Vec<Request> = endpoints
        .iter()
        .enumerate()
        .flat_map(|(endpoint, e)| {
            (0..e.profile.invocation_count()).map(move |invocation| Request {
                endpoint,
                invocation,
            })
        })
        .collect();
    if shuffle {
        requests.shuffle(&mut rand::rngs::StdRng::seed_from_u64(arrival_seed(seed)));
    }
    requests
}

/// CPU placement of the generator and the engine's worker.
///
/// The generator spins while the queue is full (see `run_session`), so
/// it must never share the worker's CPU. While an engine runs, its worker
/// is pinned to one allowed CPU and the generator to another; between
/// sessions the benchmark's thread gets every allowed CPU back, so
/// compiles and conformance passes run as before. With a single allowed
/// CPU nothing is pinned and the generator backs off instead.
mod placement {
    use std::sync::OnceLock;

    /// Bytes of a `cpu_set_t`.
    const SET_BYTES: usize = 128;

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    /// Whether the generator and the worker get a CPU each.
    pub fn apart() -> bool {
        allowed().len() >= 2
    }

    /// The CPUs the process may run on when first asked.
    pub fn allowed() -> &'static [usize] {
        static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
        CPUS.get_or_init(|| {
            let mut mask = [0u8; SET_BYTES];
            #[cfg(target_os = "linux")]
            // SAFETY: `mask` is a writable buffer of the size passed.
            if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
                return Vec::new();
            }
            (0..SET_BYTES * 8)
                .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
                .collect()
        })
    }

    /// Restricts the calling thread to `cpus`; threads it spawns inherit
    /// the restriction.
    pub fn pin(cpus: &[usize]) {
        let mut mask = [0u8; SET_BYTES];
        for &c in cpus {
            mask[c / 8] |= 1 << (c % 8);
        }
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a readable buffer of the size passed. Failure
        // only leaves the placement to the scheduler.
        unsafe {
            sched_setaffinity(0, SET_BYTES, mask.as_ptr());
        }
    }
}

/// Whether engine sessions pin the worker and the generator to CPUs of
/// their own (two or more allowed CPUs).
pub fn pinned_apart() -> bool {
    placement::apart()
}

/// Starts an engine over `endpoints`, its worker pinned apart from the
/// calling (generator) thread when two CPUs are allowed.
///
/// # Errors
///
/// The engine's refusal.
pub fn start(
    endpoints: &[Endpoint],
    config: &ServeConfig,
    t: &mut Tracer,
    request: u64,
) -> Result<ServeEngine, ServeError> {
    let specs = endpoints.iter().map(Endpoint::spec).collect();
    let cpus = placement::allowed();
    let apart = placement::apart();
    if apart {
        placement::pin(&cpus[1..2]);
    }
    let engine = t.span("serve.start", request, || ServeEngine::start(specs, config));
    if apart {
        placement::pin(if engine.is_ok() { &cpus[..1] } else { cpus });
    }
    engine
}

/// One engine session, from first submission to drained join.
pub struct Session {
    /// First submission to drained `join`.
    pub wall: Duration,
    /// Offered/served/rejected accounting.
    pub counts: SessionCounts,
    /// The engine's report (`None` when a worker panicked).
    pub report: Option<ServeReport>,
}

/// Offers `schedule` to `engine` in `SUBMIT_CHUNK` slices, waiting out a
/// full queue, then drains it. Slot folding and quality scoring run
/// after the clock stops.
pub fn run_session(
    engine: ServeEngine,
    schedule: &[Request],
    t: &mut Tracer,
    request: u64,
) -> Session {
    let root = t.begin("session", request);
    let mut counts = SessionCounts {
        offered: schedule.len() as u64,
        ..SessionCounts::default()
    };
    let started = Instant::now();
    let mut offset = 0;
    // On a CPU of its own the generator spins, so it re-offers the moment
    // the worker frees a slot. The engine's `Backoff` parks for up to
    // 1 ms, longer than the worker takes to drain a full queue (about
    // 0.5 ms at 2 M invocations/s), and the measured rate then followed
    // the host's timer wake-ups: 0.4-2.1 M/s between sessions of one run.
    // Sharing the worker's CPU, it backs off as the engine's callers do.
    let spin = placement::apart();
    let mut backoff = Backoff::new();
    // One span per stretch of refused offers, from the first refusal to
    // the accepting submission (the retries nest inside it).
    let mut waiting = None;
    while offset < schedule.len() {
        let end = (offset + SUBMIT_CHUNK).min(schedule.len());
        match t.span("serve.submit", request, || {
            engine.submit_batch(&schedule[offset..end])
        }) {
            Ok(0) => {
                counts.refused_offers += (end - offset) as u64;
                if waiting.is_none() {
                    waiting = Some(t.begin("serve.backpressure_wait", request));
                }
                if spin {
                    for _ in 0..16 {
                        std::hint::spin_loop();
                    }
                } else {
                    backoff.wait();
                }
            }
            Ok(accepted) => {
                counts.refused_offers += (end - offset - accepted) as u64;
                if let Some(w) = waiting.take() {
                    t.end(w);
                }
                offset += accepted;
                backoff.reset();
            }
            Err(_) => {
                counts.rejected_terminal = (schedule.len() - offset) as u64;
                break;
            }
        }
    }
    if let Some(w) = waiting.take() {
        t.end(w);
    }
    let drained = t.span("serve.join", request, || engine.join());
    let wall = started.elapsed();
    placement::pin(placement::allowed());
    t.end(root);
    let report = match drained {
        Ok(drained) => drained.report().ok(),
        Err(_) => {
            counts.worker_panicked = true;
            None
        }
    };
    if let Some(report) = &report {
        for e in &report.endpoints {
            counts.served += e.counters.served;
            counts.duplicates += e.counters.duplicates;
        }
    }
    Session {
        wall,
        counts,
        report,
    }
}

/// Per endpoint: approximate and fallback counts — the decision path's
/// fingerprint, which must repeat exactly across sessions of one
/// deployment.
pub fn decision_counts(report: &ServeReport) -> Vec<(u64, u64)> {
    report
        .endpoints
        .iter()
        .map(|e| (e.counters.approx, e.counters.fallback))
        .collect()
}

/// The watchdog a serving engine calibrates for `compiled`.
///
/// # Errors
///
/// Calibration's statistics error, as text.
pub fn calibrated_watchdog(compiled: &Compiled) -> Result<QualityWatchdog, String> {
    let confidence = Confidence::new(0.95).map_err(|e| e.to_string())?;
    let mut classifier = compiled.table.clone();
    let config = watchdog::calibrate(
        &mut classifier,
        &compiled.profiles,
        compiled.threshold.threshold,
        confidence,
    )
    .map_err(|e| e.to_string())?;
    Ok(QualityWatchdog::new(config))
}

/// What the sequential simulator says each endpoint's result must be:
/// `simulate` for binary endpoints, `run_routed` for routed ones.
///
/// # Errors
///
/// A simulator error, as text.
pub fn reference_results(endpoints: &[Endpoint]) -> Result<Vec<RunResult>, String> {
    let options = SimOptions::default();
    endpoints
        .iter()
        .map(|e| match &e.routed {
            Some((routed, members)) => {
                let refs: Vec<&DatasetProfile> = members.iter().collect();
                let mut router = routed.router.clone();
                run_routed(routed, &refs, &mut router, &options)
                    .map(|r| r.run)
                    .map_err(|err| err.to_string())
            }
            None => {
                let mut classifier = e.compiled.table.clone();
                Ok(simulate(&e.compiled, &e.profile, &mut classifier, &options))
            }
        })
        .collect()
}

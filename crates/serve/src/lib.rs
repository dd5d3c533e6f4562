//! `mithra-serve`: a batched, sharded invocation-serving runtime over
//! compiled MITHRA artifacts.
//!
//! MITHRA's decision — NPU or precise core, per invocation — is a
//! *runtime* mechanism, and this crate deploys it as one: each compiled
//! benchmark becomes an **endpoint**, requests flow through a bounded
//! MPMC queue with explicit admission control, and a pool of sharded
//! workers drains them in batches:
//!
//! ```text
//!  clients ──▶ submit() ──▶ [bounded queue] ──▶ worker 0 ─┐
//!              │ reject:                  ╲──▶ worker 1 ─┤──▶ slot
//!              │ full / invalid            ╲─▶ worker N ─┘    table
//!              ▼                               (own FIFOs,      │
//!           metrics ◀──── counters, latency,    classifier,     ▼
//!           registry      watchdog stats        watchdog)   RunResult
//! ```
//!
//! Every endpoint routes over a pool of approximators: a binary endpoint
//! is a pool of one whose router is its table classifier, and an
//! endpoint with a [`RoutedServeSpec`] routes over the compiled pool. One
//! sub-batch function serves both. Each worker owns a private NPU
//! context per endpoint (FIFOs, a router clone, a forked
//! [`QualityWatchdog`]), decides and admits each invocation
//! individually, runs one batched forward per pool member present, and
//! streams a member's configuration only when the served member switches
//! within a sub-batch. Cost accounting reuses the sequential simulator's
//! [`RoutedInvocationModel`] constants and folds per-invocation charges
//! in index order, so a fully-served endpoint's [`RunResult`] is
//! bit-identical to `mithra_sim::system::simulate` (binary) or
//! `run_routed` (routed) for any worker count, batch size, and arrival
//! order (watchdog off) — sharding buys wall-clock throughput, never
//! different numbers. The watchdog guards routed endpoints too: shadow
//! samples judge the routed member, and its limit is calibrated over the
//! pool ([`mithra_core::watchdog::calibrate_pool`]).
//!
//! [`QualityWatchdog`]: mithra_core::watchdog::QualityWatchdog
//! [`RoutedInvocationModel`]: mithra_sim::system::RoutedInvocationModel
//! [`RunResult`]: mithra_sim::system::RunResult

#![warn(missing_docs)]

pub mod backoff;
pub mod endpoint;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod queue;

pub use backoff::Backoff;
pub use endpoint::{EndpointSpec, RoutedServeSpec};
pub use engine::{DrainedEngine, EndpointReport, Request, ServeConfig, ServeEngine, ServeReport};
pub use error::{RejectReason, ServeError};
pub use metrics::{EndpointCounters, GuardLogEntry, LatencyHistogram, MetricsSnapshot};
pub use queue::{BoundedQueue, PushError};

//! System-level timing and energy simulation.
//!
//! The paper measures MITHRA on MARSSx86 (a cycle-accurate x86 simulator
//! modeling a Nehalem-class core) with McPAT/CACTI energy models. This
//! crate substitutes an analytical event model with the same accounting
//! structure: per-invocation core cycles, NPU cycles from the 8-PE
//! schedule, classifier overheads on the decision path, enqueue/dequeue
//! and special-branch ISA costs, and a 45 nm energy constants table. The
//! reported figures of merit — speedup, energy reduction, invocation rate,
//! energy-delay product — are ratios over the all-precise baseline, so the
//! classifier-vs-oracle comparisons the paper plots are preserved.
//!
//! The [`fault`] module adds a seeded, deterministic fault-injection layer
//! (bit flips in the accelerator's weights and sigmoid LUT, corrupted
//! classifier tables and MISR configurations, FIFO stalls/drops, input
//! drift); [`system::run_pool`] — the one simulation loop, binary
//! systems being pools of one — threads the resulting fault streams and
//! an optional quality watchdog through every invocation, charging the
//! cycle and energy cost of every guard action.
//!
//! # Example
//!
//! ```no_run
//! use mithra_sim::system::{simulate, SimOptions};
//! use mithra_core::pipeline::{compile, CompileConfig};
//! use mithra_core::profile::DatasetProfile;
//! use mithra_axbench::{suite, dataset::DatasetScale};
//! use std::sync::Arc;
//!
//! let bench: Arc<_> = suite::by_name("sobel").unwrap().into();
//! let compiled = compile(bench, &CompileConfig::smoke())?;
//! let ds = compiled.function.dataset(999, DatasetScale::Smoke);
//! let profile = DatasetProfile::collect(&compiled.function, ds);
//! let mut table = compiled.table.clone();
//! let run = simulate(&compiled, &profile, &mut table, &SimOptions::default());
//! println!("speedup {:.2}x", run.speedup());
//! # Ok::<(), mithra_core::MithraError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod energy;
pub mod fault;
pub mod overlap;
pub mod report;
pub mod software;
pub mod system;
pub mod trace;

mod error;

pub use error::SimError;

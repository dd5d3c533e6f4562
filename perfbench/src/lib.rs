//! Measurement harness for MITHRA.
//!
//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! runs one workload and prints its end-to-end metrics (untraced) or its
//! per-layer metrics (traced) as the last line of standard output. See
//! `README.md` in this directory for the workloads, the metrics, and the
//! layer → metric → workload map.

pub mod accounting;
pub mod checks;
pub mod compare;
pub mod layers;
pub mod programs;
pub mod runner;
pub mod serving;
pub mod settings;
pub mod stats;
pub mod trace;

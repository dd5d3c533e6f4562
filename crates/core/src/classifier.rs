//! The runtime classifier abstraction.
//!
//! MITHRA's microarchitectural component "maps an accelerator input vector
//! with multiple elements to a single-bit binary decision" (paper §IV).
//! Every design — table-based, neural, oracle, random — implements
//! [`Classifier`]; the system simulator is generic over it. A binary
//! design is the one-member case of multi-approximator routing: its
//! default [`Classifier::classify_route`] maps accept to pool member 0,
//! so the runtime layers decide through one K-ary path.

use crate::route::RouteChoice;
use mithra_npu::topology::Topology;

/// The single-bit decision MITHRA makes per invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Delegate this invocation to the approximate accelerator
    /// (the paper's training label `0`).
    Approximate,
    /// Run the original precise function on the core
    /// (the paper's training label `1`; the special branch is taken).
    Precise,
}

impl Decision {
    /// The paper's binary encoding: `false` = approximate, `true` =
    /// precise (filtered out).
    pub fn from_reject(reject: bool) -> Self {
        if reject {
            Decision::Precise
        } else {
            Decision::Approximate
        }
    }

    /// Whether this decision falls back to the precise function.
    pub fn is_precise(&self) -> bool {
        matches!(self, Decision::Precise)
    }
}

/// Per-invocation cost footprint of a classifier, interpreted by the
/// system simulator's timing/energy model.
///
/// The table design's hashing overlaps with input enqueue (the paper sends
/// inputs "to both the accelerator and the classifier simultaneously"), so
/// only a small fixed decision latency lands on the critical path; the
/// neural design executes a whole extra network on the NPU.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassifierOverhead {
    /// Cycles on the critical path after the last input element arrives.
    pub decision_cycles: u64,
    /// MISR shift operations per invocation (energy accounting).
    pub misr_shifts: u64,
    /// Single-bit table reads per invocation (energy accounting).
    pub table_bit_reads: u64,
    /// If the classifier is itself a network run on the NPU, its topology
    /// (the simulator charges a full NPU invocation for it).
    pub npu_topology: Option<Topology>,
}

/// A runtime quality-control classifier.
///
/// `classify` takes the invocation index alongside the input vector: the
/// oracle uses the index (it has per-invocation ground truth), hardware
/// designs use only the input — mirroring that the oracle is "ideal but
/// infeasible" while the realistic designs rely exclusively on information
/// local to the invocation.
pub trait Classifier: std::fmt::Debug {
    /// Short display name (`"table"`, `"neural"`, `"oracle"`, …).
    fn name(&self) -> &'static str;

    /// Decides whether invocation `index` with `input` goes to the
    /// accelerator or the precise function.
    fn classify(&mut self, index: usize, input: &[f32]) -> Decision;

    /// Routes invocation `index` over a pool of approximators. A binary
    /// design routes over a pool of one: accept is member 0, reject is
    /// the precise fallback.
    fn classify_route(&mut self, index: usize, input: &[f32]) -> RouteChoice {
        match self.classify(index, input) {
            Decision::Approximate => RouteChoice::Member(0),
            Decision::Precise => RouteChoice::Precise,
        }
    }

    /// The per-invocation cost footprint of this design.
    fn overhead(&self) -> ClassifierOverhead;

    /// Observes the measured outcome of a sampled invocation (the online
    /// update path of the table design; a no-op for the others).
    ///
    /// `reject` is `true` when the measured accelerator error exceeded the
    /// threshold.
    fn observe(&mut self, index: usize, input: &[f32], reject: bool) {
        let _ = (index, input, reject);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_encoding_matches_paper() {
        assert_eq!(Decision::from_reject(false), Decision::Approximate);
        assert_eq!(Decision::from_reject(true), Decision::Precise);
        assert!(Decision::Precise.is_precise());
        assert!(!Decision::Approximate.is_precise());
    }

    #[test]
    fn default_overhead_is_free() {
        let o = ClassifierOverhead::default();
        assert_eq!(o.decision_cycles, 0);
        assert!(o.npu_topology.is_none());
    }
}

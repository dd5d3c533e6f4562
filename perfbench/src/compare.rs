//! Paired comparison of two sets of benchmark runs.
//!
//! A gain is claimed only when the change wins at least nine tenths of
//! all pairs (ties count for neither side) **and** the medians differ by
//! more than the parent's own interquartile distance. Otherwise the
//! change is judged against the metric's regression bound: "no worse"
//! when its median is within the bound of the parent's, "worse" when it
//! is beyond it, and "unresolved" when the parent's run-to-run spread is
//! itself wider than the bound (unless every run of the change reads
//! better than every run of the parent).

use crate::stats::{median, quartiles};

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, speedup).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Self::Lower),
            "higher" => Some(Self::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Self::Lower => a < b,
            Self::Higher => a > b,
        }
    }
}

/// The outcome of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of pairs and beats the parent's spread.
    Improved,
    /// The change's median is within the bound of the parent's.
    NoWorse,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The spread is too wide to tell.
    Unresolved,
}

impl Verdict {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::NoWorse => "no worse",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// One side's summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median of the side's runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    /// Summarises a side's runs.
    pub fn of(values: &[f64]) -> Self {
        let [q1, _, q3] = if values.len() >= 2 {
            quartiles(values)
        } else {
            [values[0]; 3]
        };
        Self {
            median: median(values),
            q1,
            q3,
        }
    }
}

/// The full comparison of one (workload, metric) pair set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The parent's runs.
    pub parent: Side,
    /// The change's runs.
    pub change: Side,
    /// Pairs the parent won.
    pub parent_wins: usize,
    /// Pairs the change won.
    pub change_wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired runs (`parent[i]` pairs with `change[i]`) of one
/// metric whose regression bound is `bound`, a share of the parent's
/// median.
///
/// # Panics
///
/// Panics when the two sides differ in length or are empty.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    assert_eq!(parent.len(), change.len(), "runs must pair up");
    assert!(!parent.is_empty(), "nothing to compare");
    let pairs = parent.len();
    let change_wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    let parent_wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**p, **c))
        .count();
    let p = Side::of(parent);
    let c = Side::of(change);
    let parent_iqr = p.q3 - p.q1;
    let gap = (c.median - p.median).abs();
    let wins_enough = |wins: usize| wins * 10 >= pairs * 9;
    let verdict =
        if wins_enough(change_wins) && gap > parent_iqr && better.beats(c.median, p.median) {
            Verdict::Improved
        } else {
            let all_better = change
                .iter()
                .all(|c| parent.iter().all(|p| better.beats(*c, *p)));
            let spread = parent_iqr / p.median.abs();
            let worse_by = match better {
                Better::Lower => (c.median - p.median) / p.median.abs(),
                Better::Higher => (p.median - c.median) / p.median.abs(),
            };
            if spread > bound && !all_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::NoWorse
            }
        };
    Comparison {
        parent: p,
        change: c,
        parent_wins,
        change_wins,
        pairs,
        verdict,
    }
}

impl Comparison {
    /// Withholds a gain from a change that failed more operations than
    /// its parent: an improved verdict becomes unresolved.
    #[must_use]
    pub fn counting_failures(mut self, parent_failed: u64, change_failed: u64) -> Self {
        if self.verdict == Verdict::Improved && change_failed > parent_failed {
            self.verdict = Verdict::Unresolved;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn nine_of_ten_wins_and_a_clear_gap_is_an_improvement() {
        let parent = ten(100.0, 1.0); // 100..109, IQR 5.5
        let mut change = ten(90.0, 1.0); // 90..99
        change[9] = 120.0; // one lost pair: 9/10 wins still suffices
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.change_wins, 9);
        assert_eq!(c.parent_wins, 1);
        assert_eq!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn eight_of_ten_wins_is_not_an_improvement() {
        let parent = ten(100.0, 1.0);
        let mut change = ten(90.0, 1.0);
        change[8] = 120.0;
        change[9] = 120.0;
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.change_wins, 8);
        assert_ne!(c.verdict, Verdict::Improved);
        assert_eq!(c.verdict, Verdict::NoWorse);
    }

    #[test]
    fn winning_every_pair_inside_the_parent_spread_is_not_an_improvement() {
        let parent = ten(100.0, 2.0); // IQR 11
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let c = compare(&parent, &change, Better::Lower, 0.2);
        assert_eq!(c.change_wins, 10);
        assert_eq!(c.verdict, Verdict::NoWorse);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = ten(100.0, 1.0);
        let c = compare(&parent, &parent, Better::Higher, 0.1);
        assert_eq!((c.change_wins, c.parent_wins), (0, 0));
        assert_eq!(c.verdict, Verdict::NoWorse);
    }

    #[test]
    fn beyond_the_bound_is_worse_and_a_wide_parent_is_unresolved() {
        let parent = ten(100.0, 0.5);
        let change = ten(80.0, 0.5); // throughput fell 20 %
        assert_eq!(
            compare(&parent, &change, Better::Higher, 0.1).verdict,
            Verdict::Worse
        );
        let wide = ten(50.0, 10.0); // spread far beyond a 10 % bound
        let change = ten(52.0, 10.0);
        assert_eq!(
            compare(&wide, &change, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_gain_with_more_failed_operations_does_not_count() {
        let parent = ten(100.0, 1.0);
        let change = ten(80.0, 1.0);
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.counting_failures(0, 0).verdict, Verdict::Improved);
        assert_eq!(c.counting_failures(3, 2).verdict, Verdict::Improved);
        assert_eq!(c.counting_failures(0, 1).verdict, Verdict::Unresolved);
    }
}

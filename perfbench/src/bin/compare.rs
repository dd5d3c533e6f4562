//! Paired comparison of two sets of benchmark runs.
//!
//! ```text
//! compare <parent-dir> <change-dir>
//! ```
//!
//! Each directory holds one file per run: the benchmark's standard output
//! (its settings line names the workload and seed; its last line is the
//! result). Runs pair up by workload and seed. For every workload and
//! end-to-end metric the tool prints each side's median and quartiles,
//! the pairs each side won, and a verdict: improved, no worse (within
//! the metric's bound from the repository's `BENCHMARK.json`), worse,
//! or unresolved. A run that failed an output check or an operation is
//! left out of the pairs, and each side's failed operations are printed;
//! a change that fails more operations than its parent is never judged
//! improved. `pairs.sh` in this directory records such sets of runs.

use mithra_perfbench::checks::{as_f64, parse_json};
use mithra_perfbench::compare::{compare, Better, Comparison};
use serde::{get_field, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A run's key: workload and seed.
type RunKey = (String, u64);
/// One run's result.
struct RunResult {
    /// Every output check passed.
    correct: bool,
    /// Failed operations.
    failed: u64,
    /// Metric name → value.
    values: BTreeMap<String, f64>,
}

impl RunResult {
    /// Whether the run may be paired: correct, with no failed operation.
    fn clean(&self) -> bool {
        self.correct && self.failed == 0
    }
}

/// Every run of one side.
type Runs = BTreeMap<RunKey, RunResult>;

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn read_run(path: &Path) -> Result<(RunKey, RunResult), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines: Vec<&str> = body.lines().filter(|l| l.starts_with('{')).collect();
    let bad = |what: &str| format!("{}: {what}", path.display());
    let settings = lines
        .iter()
        .find(|l| l.starts_with("{\"settings\""))
        .ok_or_else(|| bad("no settings line"))?;
    let settings = parse_json(settings).map_err(|e| bad(&e))?;
    let settings = get_field(&settings, "settings").map_err(|e| bad(&e.to_string()))?;
    let workload = get_field(settings, "workload")
        .ok()
        .and_then(text)
        .ok_or_else(|| bad("no workload"))?
        .to_string();
    let seed = get_field(settings, "seed")
        .ok()
        .and_then(as_f64)
        .ok_or_else(|| bad("no seed"))? as u64;
    let result =
        parse_json(lines.last().ok_or_else(|| bad("no result line"))?).map_err(|e| bad(&e))?;
    let Ok(&Value::Bool(correct)) = get_field(&result, "correct") else {
        return Err(bad("no correct flag"));
    };
    let failed = get_field(&result, "failed")
        .ok()
        .and_then(as_f64)
        .ok_or_else(|| bad("no failed count"))? as u64;
    let Ok(Value::Object(metrics)) = get_field(&result, "metrics") else {
        return Err(bad("no metrics"));
    };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), get_field(m, "value").ok().and_then(as_f64)?)))
        .collect();
    let run = RunResult {
        correct,
        failed,
        values,
    };
    Ok(((workload, seed), run))
}

fn read_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "out"))
    {
        let (key, run) = read_run(path)?;
        runs.insert(key, run);
    }
    Ok(runs)
}

/// `(name, better, bound)` of every end-to-end metric.
fn end_to_end(benchmark: &Path) -> Result<Vec<(String, Better, f64)>, String> {
    let body =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = parse_json(&body)?;
    let Ok(Value::Array(metrics)) = get_field(&doc, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let name = get_field(m, "name").ok().and_then(text);
            let better = get_field(m, "better")
                .ok()
                .and_then(text)
                .and_then(Better::parse);
            let bound = get_field(m, "bound").ok().and_then(as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b, x)),
                _ => Err("malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

fn print_row(workload: &str, metric: &str, c: &Comparison) {
    println!(
        "{workload:<18} {metric:<17} {:>14.6e} [{:.6e}, {:.6e}]  {:>14.6e} [{:.6e}, {:.6e}]  {:>2}/{:<2} of {:<2} {}",
        c.parent.median,
        c.parent.q1,
        c.parent.q3,
        c.change.median,
        c.change.q1,
        c.change.q3,
        c.change_wins,
        c.parent_wins,
        c.pairs,
        c.verdict.label()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 2 {
        eprintln!("usage: compare <parent-dir> <change-dir>");
        std::process::exit(2);
    }
    let benchmark = mithra_perfbench::settings::repo_root().join("BENCHMARK.json");
    let loaded = (|| -> Result<_, String> {
        Ok((
            read_runs(Path::new(&args[0]))?,
            read_runs(Path::new(&args[1]))?,
            end_to_end(&benchmark)?,
        ))
    })();
    let (parent, change, metrics) = loaded.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut workloads: Vec<&String> = parent.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    println!(
        "{:<18} {:<17} {:>14} {:<29} {:>14} {:<29} wins change/parent, verdict",
        "workload", "metric", "parent median", "[q1, q3]", "change median", "[q1, q3]"
    );
    for workload in workloads {
        let mine = |runs: &Runs| -> (u64, usize) {
            let runs = runs.iter().filter(|((w, _), _)| w == workload);
            let failed = runs.clone().map(|(_, r)| r.failed).sum();
            (failed, runs.filter(|(_, r)| !r.clean()).count())
        };
        let ((parent_failed, parent_left_out), (change_failed, change_left_out)) =
            (mine(&parent), mine(&change));
        println!(
            "{workload}: failed operations parent {parent_failed}, change {change_failed}; \
             runs left out (incorrect or failed) parent {parent_left_out}, change {change_left_out}"
        );
        let seeds: Vec<u64> = parent
            .iter()
            .filter(|((w, s), r)| {
                w == workload
                    && r.clean()
                    && change.get(&(w.clone(), *s)).is_some_and(RunResult::clean)
            })
            .map(|((_, s), _)| *s)
            .collect();
        if seeds.is_empty() {
            eprintln!("{workload}: no paired runs");
            continue;
        }
        for (name, better, bound) in &metrics {
            let side = |runs: &Runs| -> Option<Vec<f64>> {
                seeds
                    .iter()
                    .map(|s| runs[&(workload.clone(), *s)].values.get(name).copied())
                    .collect()
            };
            match (side(&parent), side(&change)) {
                (Some(p), Some(c)) => {
                    let c = compare(&p, &c, *better, *bound)
                        .counting_failures(parent_failed, change_failed);
                    print_row(workload, name, &c);
                }
                _ => eprintln!("{workload}: {name} missing from some runs"),
            }
        }
    }
}

//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run settings as one JSON line, then the result as the last
//! line: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an
//! output check fails and 2 on a bad command line. Traced runs also write
//! their spans and per-layer totals under `out/traces/`.

use mithra_npu::kernel::host_simd_features;
use mithra_perfbench::runner::{run, Outcome};
use mithra_perfbench::serving::pinned_apart;
use mithra_perfbench::settings::{
    out_dir, Args, COMPILE_THREADS, CONFIDENCE, QUALITY, QUEUE_DEPTH, SERVE_BATCH, SERVE_WORKERS,
    SUBMIT_CHUNK, SUCCESS_RATE, USAGE,
};
use mithra_perfbench::trace::layer_totals;
use std::fmt::Write as _;

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A finite float with every digit; non-finite values become `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn settings_line(args: &Args) -> String {
    let simd: Vec<String> = host_simd_features().iter().map(|s| json_str(s)).collect();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"settings\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"quality_target\":{},\"confidence\":{},\"success_rate\":{},\"kernel\":\"scalar\",\
         \"host_threads\":{host_threads},\"host_simd\":[{}],\"compile_threads\":{COMPILE_THREADS},\
         \"conform_threads\":{COMPILE_THREADS},\"serve_workers\":{SERVE_WORKERS},\
         \"generator_threads\":1,\"pinned_apart\":{},\"serve_batch\":{SERVE_BATCH},\"queue_depth\":{QUEUE_DEPTH},\
         \"submit_chunk\":{SUBMIT_CHUNK}}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_num(QUALITY),
        json_num(CONFIDENCE),
        json_num(SUCCESS_RATE),
        simd.join(","),
        pinned_apart(),
    )
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct,
        outcome.ops.attempted.max(1),
        outcome.ops.failed()
    )
}

/// Writes the spans and a per-name summary of a traced run.
fn write_trace(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    let dir = out_dir().join("traces");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    outcome
        .tracer
        .write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    let mut summary = String::from("{");
    for (i, (name, t)) in layer_totals(outcome.tracer.spans()).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            summary,
            "{sep}{}:{{\"count\":{},\"busy_ms\":{},\"self_ms\":{}}}",
            json_str(name),
            t.count,
            json_num(t.busy_ns as f64 / 1e6),
            json_num(t.self_ns as f64 / 1e6)
        );
    }
    summary.push('}');
    std::fs::write(dir.join(format!("{stem}.layers.json")), summary)?;
    eprintln!("trace written to {}", dir.join(&stem).display());
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The benchmark pins the bit-exact scalar kernel; the environment
    // override the NPU kernel dispatch honours must not move it.
    std::env::remove_var("MITHRA_KERNEL");
    println!("{}", settings_line(&args));
    let outcome = run(&args);
    if args.trace {
        if let Err(e) = write_trace(&args, &outcome) {
            eprintln!("cannot write the trace: {e}");
        }
    }
    for p in &outcome.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    println!("{}", result_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}

//! Command line, pinned run settings, and the seed → input mapping.

use mithra_core::seeds::{CONFORM_SEED_BASE, DRIFT_CONFORM_SEED_BASE, SERVE_SEED_BASE};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold compiles, conformance verdicts, a short deployment.
    CompileVerify,
    /// Warm artifacts, in-order bursts per dataset, watchdog on.
    ServeBursty,
    /// Warm artifacts plus routed endpoints, shuffled arrivals.
    ServeInterleaved,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CompileVerify,
        Workload::ServeBursty,
        Workload::ServeInterleaved,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileVerify => "compile-verify",
            Workload::ServeBursty => "serve-bursty",
            Workload::ServeInterleaved => "serve-interleaved",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Quality target q (a fraction, not a percent).
pub const QUALITY: f64 = 0.05;
/// Certification confidence β.
pub const CONFIDENCE: f64 = 0.95;
/// Target success rate S.
pub const SUCCESS_RATE: f64 = 0.90;
/// Threads for compile stages and conformance fan-out.
pub const COMPILE_THREADS: usize = 2;
/// Serving workers; the generator is the benchmark's own thread.
pub const SERVE_WORKERS: usize = 1;
/// Requests a worker drains per queue visit.
pub const SERVE_BATCH: usize = 32;
/// Engine request-queue capacity.
pub const QUEUE_DEPTH: usize = 1024;
/// Requests offered per `submit_batch` call.
pub const SUBMIT_CHUNK: usize = 64;
/// Shadow-sampling period of the replayed watchdog
/// (`core.watchdog_admit_ns`).
pub const WATCHDOG_PERIOD: usize = 16;
/// Routed pool size.
pub const POOL_SIZE: usize = 3;
/// Conformance trials pinned to the committed references.
pub const PINNED_TRIALS: usize = 100;
/// Extra, seed-chosen conformance trials per certificate on
/// `compile-verify`.
pub const EXTRA_TRIALS: usize = 100;
/// Conformance passes per run; `verdict_s` is their median.
pub const VERIFY_PASSES: usize = 9;
/// Shortest serve phase, in seconds, whatever `--seconds` says.
pub const MIN_SERVE_S: f64 = 8.0;

/// The programs every workload compiles or loads: the binary pair and
/// the routed program.
pub const BINARY_PAIR: [&str; 2] = ["jpeg", "fft"];
/// The routed program.
pub const ROUTED: &str = "inversek2j";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// Usage line printed on argument errors.
pub const USAGE: &str =
    "usage: perfbench --workload <compile-verify|serve-bursty|serve-interleaved> \
                         --seed <n> --seconds <n> --trace <0|1>";

impl Args {
    /// Parses `--workload W --seed N --seconds N --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Dataset seed of served dataset `index` of program slot `program`.
///
/// Inside the serve window, disjoint across programs and indices, and a
/// function of the workload seed.
pub fn serve_dataset_seed(workload_seed: u64, program: usize, index: usize) -> u64 {
    assert!(program < 10 && index < 100, "slot outside the seed layout");
    SERVE_SEED_BASE + (workload_seed % 1000) * 1000 + (program * 100 + index) as u64
}

/// First conformance seed of the extra trials on `compile-verify`: past
/// the pinned trials, inside the conformance window.
pub fn extra_trials_seed_base(workload_seed: u64) -> u64 {
    let base =
        CONFORM_SEED_BASE + PINNED_TRIALS as u64 + (workload_seed % 1000) * EXTRA_TRIALS as u64;
    assert!(base + EXTRA_TRIALS as u64 <= DRIFT_CONFORM_SEED_BASE);
    base
}

/// Seed of the arrival shuffle on `serve-interleaved`.
pub fn arrival_seed(workload_seed: u64) -> u64 {
    workload_seed ^ 0xA221_5EED
}

/// The benchmark's package directory.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark builds from.
pub fn repo_root() -> PathBuf {
    package_dir().join("..")
}

/// Where runs keep the artifact cache and traces.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The artifact cache of this build: `out/cache/<hash of the running
/// executable>`.
///
/// The core cache keys an artifact by its configuration only, never by
/// the code that built it, so a cache shared across builds would serve a
/// changed program the artifacts of an earlier one. Keying the directory
/// by the executable's contents makes every build compile and store its
/// own artifacts (once, in its first warm run) and read only those.
pub fn cache_dir() -> PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let exe = std::env::current_exe().expect("the running executable has a path");
        let bytes = std::fs::read(&exe).expect("the running executable is readable");
        out_dir()
            .join("cache")
            .join(format!("{:016x}", fnv1a(&bytes)))
    })
    .clone()
}

/// FNV-1a 64-bit hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&strings(&[
            "--workload",
            "serve-bursty",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeBursty);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25.0, true));
        assert!(Args::parse(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(Args::parse(&strings(&["--seed", "1"])).is_err());
        assert!(Args::parse(&strings(&["--workload", "serve-bursty", "--seed"])).is_err());
    }

    #[test]
    fn seeds_stay_in_their_windows() {
        for seed in [0u64, 1, 999, 123_456_789] {
            let lo = serve_dataset_seed(seed, 0, 0);
            let hi = serve_dataset_seed(seed, 9, 99);
            assert!(lo >= SERVE_SEED_BASE && hi < CONFORM_SEED_BASE);
            let extra = extra_trials_seed_base(seed);
            assert!(extra >= CONFORM_SEED_BASE + PINNED_TRIALS as u64);
        }
        assert_ne!(serve_dataset_seed(1, 0, 0), serve_dataset_seed(2, 0, 0));
    }

    #[test]
    fn cache_is_keyed_by_the_build() {
        // The core cache's own key hash, applied to bytes: equal inputs
        // share a directory, any changed byte moves it.
        assert_eq!(fnv1a(b"abc"), mithra_core::cache::fingerprint("abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        let dir = cache_dir();
        assert!(dir.starts_with(out_dir().join("cache")));
        assert_eq!(dir, cache_dir());
    }
}

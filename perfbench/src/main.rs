//! The repository benchmark: simulator throughput on fixed cell lists,
//! and cold, warm and cluster regeneration of the figure suite.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process per run. An untraced run (`--trace 0`) prints every
//! end-to-end metric; a traced run (`--trace 1`) prints every per-layer
//! metric. Both check the program's outputs; human-readable lines come
//! first and the last line of stdout is the JSON result. The exit code
//! is nonzero when any check fails; a failed reference check prints the
//! line that would replace the stored one, for a change that is meant to
//! alter results. See `perfbench/README.md` for the workloads and the
//! metric map.

mod report;
mod simwl;
mod suite;

use std::path::{Path, PathBuf};
use std::time::Duration;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Input seed; 0 reproduces the repository's canonical traces.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sim_memory", "sim_compute", "suite_remote"];

const USAGE: &str =
    "usage: qprac-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.to_string());
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Pass/fail bookkeeping: every check is an attempted operation, every
/// failed one is counted and explained on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Count `n` operations whose outcome `ok` summarises; a failure
    /// counts once and prints `what`.
    pub fn check(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n.max(1);
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Failed operations over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// 64-bit FNV-1a, the digest of stored references.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(std::fs::canonicalize(dir)?))
    }

    /// The directory's absolute path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the shared parent only when no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Drop every `QPRAC_*` knob inherited from the caller's environment, so
/// runs do not depend on it; workloads set the ones they need. Called
/// before any thread starts.
fn scrub_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("QPRAC_"))
        .map(|(k, _)| k)
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    scrub_env();
    let work = WorkDir::create().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the work directory: {e}");
        std::process::exit(2);
    });
    let mut checks = Checks::default();
    let mut notes: Vec<String> = Vec::new();
    let report: Report = match args.workload.as_str() {
        "sim_memory" => simwl::run(simwl::Kind::Memory, &args, &mut checks, &mut notes),
        "sim_compute" => simwl::run(simwl::Kind::Compute, &args, &mut checks, &mut notes),
        "suite_remote" => suite::run(&args, &work, &mut checks, &mut notes),
        other => unreachable!("parse_args admitted {other}"),
    };
    drop(work);
    for note in &notes {
        println!("{note}");
    }
    print!("{}", report.lines(&args.workload));
    println!(
        "{:<12} {:<40} = {} ratio ({} of {} operations failed)",
        args.workload,
        "fail_ratio",
        checks.fail_ratio(),
        checks.failed,
        checks.attempted
    );
    println!("{}", report.json_line(checks.attempted, checks.failed));
    if checks.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload suite_remote --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "suite_remote");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload sim_memory --trace 2",
            "--workload sim_memory --seconds 0",
            "--workload sim_memory --seed",
            "--workload sim_memory --frobnicate 1",
            "--workload sim_memory --bless",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_name_is_legal() {
        for w in WORKLOADS {
            assert!(report::valid_name(w), "{w}");
            assert!(include_str!("../../BENCHMARK.json").contains(&format!("\"name\": \"{w}\"")));
        }
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.check(3, true, || unreachable!());
        c.check(1, false, || "expected".into());
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert_eq!(c.fail_ratio(), 0.25);
    }
}

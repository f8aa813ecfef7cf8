//! Smoke coverage for every experiment spec: `run_all <name>` must run
//! end to end — construct the spec's configs, drive its (shrunken)
//! cells, and write its CSVs — without panicking, once for each name in
//! `run_all_specs()`. `every_spec_is_smoked_once` pins the smoke list
//! to that spec list, so a new spec cannot go unsmoked.
//! `QPRAC_INSTR` / `QPRAC_ATTACK_WINDOW` shrink the simulations so the
//! whole suite stays fast; the numbers are meaningless at these lengths
//! and are not checked, only the exit status and that stdout shows
//! every column of every CSV the run wrote.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use qprac_bench::experiments::run_all_specs;

/// Instructions per core for the shrunken runs.
const SMOKE_INSTR: &str = "400";
/// Memory-cycle window for the shrunken bandwidth attacks.
const SMOKE_WINDOW: &str = "20000";

fn results_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qprac-smoke-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Run `run_all args…` at smoke scale with results under `dir`.
fn spawn_run_all(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("QPRAC_INSTR", SMOKE_INSTR)
        .env("QPRAC_ATTACK_WINDOW", SMOKE_WINDOW)
        .env("QPRAC_RESULTS_DIR", dir)
        // A developer's persistent cache, thread cap, remote server or
        // scale knobs must not leak into the smoke runs.
        .env_remove("QPRAC_RUN_CACHE")
        .env_remove("QPRAC_JOBS")
        .env_remove("QPRAC_REMOTE")
        .env_remove("QPRAC_FULL_SUITE")
        .env_remove("QPRAC_NO_FASTFORWARD")
        .output()
        .expect("spawn run_all")
}

fn smoke(args: &[&str], test: &str) {
    let dir = results_dir(test);
    let out = spawn_run_all(args, &dir);
    assert!(
        out.status.success(),
        "run_all {args:?} failed with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    // Every spec reports its series on stdout: each column of each CSV
    // it wrote is printed under the CSV's own header name.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut csvs = 0;
    for entry in std::fs::read_dir(&dir).expect("results dir") {
        let path = entry.expect("results entry").path();
        let text = std::fs::read_to_string(&path).expect("read csv");
        let header = text.lines().next().unwrap_or_default();
        for field in header.split(',') {
            assert!(
                stdout.contains(field),
                "run_all {args:?}: column {field:?} of {} is not on stdout",
                path.display()
            );
        }
        csvs += 1;
    }
    assert!(csvs > 0, "run_all {args:?} wrote no CSV");
    let _ = std::fs::remove_dir_all(&dir);
}

macro_rules! spec_smoke {
    ($($name:ident),+ $(,)?) => {
        /// Every smoked spec name, in `run_all_specs()` order.
        const SMOKED: &[&str] = &[$(stringify!($name)),+];
        $(
            #[test]
            fn $name() {
                smoke(&[stringify!($name)], stringify!($name));
            }
        )+
    };
}

spec_smoke!(
    table01,
    table02,
    table04,
    fig02,
    fig03,
    fig06,
    fig07,
    fig08,
    fig11,
    fig12,
    fig13,
    fig23,
    wave_validate,
    fig19,
    fig16,
    fig17,
    fig18,
    fig20,
    fig21_22,
    table03,
    fig14_15,
    ablation_psq_size,
    ablation_opportunistic,
    ablation_tie_policy,
    mix_speedup,
    compare_mitigations,
);

/// The smoke list is exactly the spec list: a spec added to (or
/// renamed in) `run_all_specs()` fails here until it is smoked. Names
/// must be unique, because `run_all` selects specs by name, and
/// `run_all`'s usage header must name every one of them.
#[test]
fn every_spec_is_smoked_once() {
    let specs = run_all_specs();
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    let unique: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate spec names: {names:?}");
    assert_eq!(SMOKED, names.as_slice(), "smoke list != run_all_specs()");
    let header = include_str!("../src/bin/run_all.rs");
    for name in names {
        assert!(
            header.contains(&format!("`{name}`")),
            "run_all.rs header does not list {name}"
        );
    }
}

/// An unknown spec name or flag is rejected before any cell runs: a
/// non-zero exit, the valid names on stderr, and no CSV written.
#[test]
fn unknown_spec_or_flag_exits_before_any_cell_runs() {
    for (arg, test) in [("no_such_spec", "bad-spec"), ("--proifle", "bad-flag")] {
        let dir = results_dir(test);
        let out = spawn_run_all(&[arg], &dir);
        assert_eq!(out.status.code(), Some(2), "run_all {arg} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(arg), "stderr must name {arg}: {stderr}");
        for name in SMOKED {
            assert!(stderr.contains(name), "stderr must list {name}: {stderr}");
        }
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "run_all {arg} wrote {written:?}");
        assert!(out.stdout.is_empty(), "run_all {arg} started the sweep");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Run `load_test args…` with no shard list in the environment and no
/// idle connections, so the first thing it does on the network is ask
/// the named shard for its counters.
fn spawn_load_test(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_load_test"))
        .args(args)
        .env("QPRAC_LOAD_IDLE", "0")
        .env_remove("QPRAC_REMOTE")
        .output()
        .expect("spawn load_test")
}

/// `--profile` may come before or after the shard list: either way the
/// shard list is the first argument that is not a flag, so a run
/// against a closed port fails naming that port, not the flag.
#[test]
fn load_test_takes_the_first_non_flag_argument_as_shards() {
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("probe a free port")
        .to_string();
    for args in [
        ["--profile", closed.as_str()],
        [closed.as_str(), "--profile"],
    ] {
        let out = spawn_load_test(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "load_test {args:?} succeeded");
        assert!(
            stderr.contains(&format!("shard {closed} unreachable")),
            "load_test {args:?} must fail on shard {closed}: {stderr}"
        );
    }
}

/// An unknown flag exits 2 with the usage line, as `run_all` does,
/// before any cell is collected or any shard contacted.
#[test]
fn load_test_rejects_unknown_flags() {
    let out = spawn_load_test(&["--proifle", "127.0.0.1:9"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "load_test --proifle must exit 2"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--proifle"),
        "stderr must name the flag: {stderr}"
    );
    assert!(
        stderr.contains("usage: load_test"),
        "no usage line: {stderr}"
    );
    assert!(out.stdout.is_empty(), "load_test --proifle started the run");
}

/// Bare `run_all` re-runs every spec above (through the global
/// dedupe/scheduler, so cheaper than the sum of its parts, but still
/// pure duplication of this suite) — ignored by default, but kept
/// runnable (`cargo test -p qprac-bench --test bin_smoke -- --ignored`)
/// because it is the command users reach for first. The CI workflow
/// additionally runs it twice (cold then warm `QPRAC_RUN_CACHE`) and
/// asserts the warm pass reports cache hits.
#[test]
#[ignore = "duplicates every other smoke test; run explicitly with --ignored"]
fn run_all() {
    smoke(&[], "run_all");
}

//! Local/remote equivalence for the spec runner: the same spec suite
//! executed through the in-process pool and through a `qprac-serve`
//! daemon must emit identical tables and CSVs (the acceptance criterion of
//! the service subsystem, at test scale), and a second remote pass must
//! be answered entirely from the server's caches.

use std::path::{Path, PathBuf};

use attack_engine::EngineSpec;
use cpu_model::WorkloadSpec;
use qprac_bench::{tables_with, ExperimentSpec, Job, LocalExecutor, RemoteExecutor, Table};
use qprac_serve::{Client, Server, ServerConfig};
use sim::{geomean, MitigationKind, RunCache, SystemConfig};

const INSTR: u64 = 500;

/// The engine cell: the cheapest real attack-engine run.
const PROBE: EngineSpec = EngineSpec::Wave {
    nmit: 1,
    nbo: 8,
    psq: 5,
    r1: 4,
};

/// A small but heterogeneous suite: workload cells under two
/// mitigations (sharing one baseline), a bandwidth-attack cell, and an
/// attack-engine cell.
fn make_specs() -> Vec<ExperimentSpec> {
    let base = SystemConfig::paper_default()
        .with_instruction_limit(INSTR)
        .with_mitigation(MitigationKind::None);
    let qprac = base.clone().with_mitigation(MitigationKind::Qprac);
    let noop = base.clone().with_mitigation(MitigationKind::QpracNoOp);
    let workloads = ["ycsb/a_like", "ycsb/c_like"];
    let mut jobs = Vec::new();
    for w in workloads {
        let spec = WorkloadSpec::by_name(w).unwrap();
        for cfg in [&base, &qprac, &noop] {
            jobs.push(Job::Workload {
                cfg: cfg.clone(),
                workload: spec.clone(),
            });
        }
    }
    jobs.push(Job::Attack {
        cfg: qprac.clone(),
        banks: 4,
        window: 20_000,
    });
    jobs.push(PROBE.into());
    vec![ExperimentSpec::new("remote_equiv", jobs, move |r| {
        let mut t = Table::new(
            "remote_equiv",
            "remote_equiv",
            &["workload", "qprac", "noop", "probe", "attack_acts"],
        );
        // Per workload the baseline, QPRAC and NoOp cells, then the
        // attack cell and the probe.
        let (runs, tail) = r.split_at(r.len() - 2);
        let (attack, probe) = (tail[0].attack(), tail[1].count());
        let mut ratios = Vec::new();
        for (w, cells) in workloads.iter().zip(runs.chunks(3)) {
            let b = cells[0].stats();
            let q = cells[1].stats().normalized_perf(b);
            let n = cells[2].stats().normalized_perf(b);
            ratios.push(q);
            t.rows.push(vec![
                w.to_string(),
                format!("{q:.6}"),
                format!("{n:.6}"),
                probe.to_string(),
                attack.acts.to_string(),
            ]);
        }
        t.rows.push(vec![
            "geomean".into(),
            format!("{:.6}", geomean(ratios)),
            String::new(),
            String::new(),
            String::new(),
        ]);
        vec![t]
    })]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qprac-remote-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn remote_execution_is_byte_identical_to_local() {
    // Local pass, no persistent cache (every cell simulates here).
    let (local, report) = tables_with(&make_specs(), &LocalExecutor, &RunCache::disabled(), false);
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.executed, 8, "6 workload cells + attack + engine");

    // Remote pass against a fresh in-process server.
    let addr = Server::bind("127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let remote = RemoteExecutor::new(&addr.to_string());
    let remote_pass = || tables_with(&make_specs(), &remote, &RunCache::disabled(), false).0;
    assert_eq!(
        remote_pass(),
        local,
        "remote tables must be identical to local execution"
    );

    // The server simulated all 8 cells, the engine cell included.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stat("simulated").unwrap(), 8);

    // A second remote pass is answered entirely from the server's
    // caches: tables identical, simulated counter unchanged.
    assert_eq!(remote_pass(), local);
    assert_eq!(
        client.stat("simulated").unwrap(),
        8,
        "warm pass re-simulated"
    );
    assert!(client.stat("mem_hits").unwrap() >= 8);
}

/// The mitigation arena end to end, local vs `QPRAC_REMOTE`: every
/// registered design — including the three zoo additions — must
/// round-trip the key-only wire protocol (`RunKey::parse_text` →
/// `CellSpec::run` on the server) and produce byte-identical CSVs.
/// Runs `run_all compare_mitigations` as subprocesses so the
/// env-driven remote selection path is the one exercised, without
/// mutating this process' environment.
#[test]
fn compare_mitigations_is_byte_identical_local_vs_remote() {
    let addr = Server::bind("127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let exe = env!("CARGO_BIN_EXE_run_all");
    let run = |dir: &Path, remote: Option<&str>| {
        let mut cmd = std::process::Command::new(exe);
        cmd.arg("compare_mitigations")
            .env("QPRAC_INSTR", "400")
            .env("QPRAC_RESULTS_DIR", dir)
            .env_remove("QPRAC_RUN_CACHE")
            .env_remove("QPRAC_JOBS")
            .env_remove("QPRAC_FULL_SUITE");
        match remote {
            Some(addr) => cmd.env("QPRAC_REMOTE", addr),
            None => cmd.env_remove("QPRAC_REMOTE"),
        };
        let out = cmd.output().expect("spawn run_all compare_mitigations");
        assert!(
            out.status.success(),
            "compare_mitigations failed ({:?}):\n{}",
            remote,
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let local_dir = temp_dir("cmp-local");
    let remote_dir = temp_dir("cmp-remote");
    run(&local_dir, None);
    run(&remote_dir, Some(&addr.to_string()));

    let mut names: Vec<String> = std::fs::read_dir(&local_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(
        names.contains(&"compare_summary.csv".to_string()),
        "summary CSV missing: {names:?}"
    );
    // One per-design CSV and one summary row per registry entry.
    assert_eq!(names.len(), mitigations::registry().len() + 1, "{names:?}");
    let summary = std::fs::read_to_string(local_dir.join("compare_summary.csv")).unwrap();
    for spec in mitigations::registry() {
        assert!(
            summary.contains(&format!("\n{},", spec.stem)),
            "{} missing from summary",
            spec.stem
        );
    }
    for name in &names {
        let local = std::fs::read_to_string(local_dir.join(name)).unwrap();
        let remote = std::fs::read_to_string(remote_dir.join(name)).unwrap();
        assert_eq!(local, remote, "{name} diverged between local and remote");
    }

    // Every simulated cell crossed the wire: the server answered all
    // registered designs, zoo additions included.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.stat("simulated").unwrap() > 0);
    assert_eq!(client.stat("unknown_mitigation").unwrap(), 0);

    for d in [local_dir, remote_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

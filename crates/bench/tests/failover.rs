//! Fault-tolerance integration for the spec runner: a flaky two-shard
//! cluster (one shard dead, deterministic chaos on the survivor) must
//! emit tables identical to local execution — with only the dead
//! shard's keys degrading to the local pool — and an all-shards-down
//! cluster must degrade entirely and still complete — the figure never
//! has holes.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::time::Duration;

use attack_engine::EngineSpec;
use cpu_model::WorkloadSpec;
use qprac_bench::{
    tables_with, CellExecutor, ExperimentSpec, Job, LocalExecutor, RemoteExecutor, Table,
};
use qprac_serve::{ChaosSpec, Client, RetryPolicy, Server, ServerConfig};
use sim::{MitigationKind, RunCache, RunKey, SystemConfig};

const INSTR: u64 = 400;

/// The engine cell: the cheapest real attack-engine run.
const PROBE: EngineSpec = EngineSpec::Wave {
    nmit: 1,
    nbo: 8,
    psq: 5,
    r1: 4,
};

/// A small heterogeneous suite: two workloads under two mitigations
/// (sharing baselines) plus an attack-engine cell.
fn make_specs() -> Vec<ExperimentSpec> {
    let base = SystemConfig::paper_default()
        .with_instruction_limit(INSTR)
        .with_mitigation(MitigationKind::None);
    let qprac = base.clone().with_mitigation(MitigationKind::Qprac);
    let workloads = ["ycsb/a_like", "ycsb/c_like"];
    let mut jobs = Vec::new();
    for w in workloads {
        let spec = WorkloadSpec::by_name(w).unwrap();
        for cfg in [&base, &qprac] {
            jobs.push(Job::Workload {
                cfg: cfg.clone(),
                workload: spec.clone(),
            });
        }
    }
    jobs.push(PROBE.into());
    vec![ExperimentSpec::new("failover", jobs, move |r| {
        let mut t = Table::new("failover", "failover", &["workload", "qprac", "probe"]);
        // Per workload a baseline and a QPRAC cell, then the probe.
        let (runs, probe) = r.split_at(r.len() - 1);
        let probe = probe[0].count();
        for (w, pair) in workloads.iter().zip(runs.chunks(2)) {
            let q = pair[1].stats().normalized_perf(pair[0].stats());
            t.rows
                .push(vec![w.to_string(), format!("{q:.6}"), probe.to_string()]);
        }
        vec![t]
    })]
}

/// The suite's tables, resolved on `executor` with no persistent cache.
fn tables_on(executor: &dyn CellExecutor) -> Vec<Table> {
    tables_with(&make_specs(), executor, &RunCache::disabled(), false).0
}

/// An address that refuses connections: bind an ephemeral port, then
/// free it (the closed port stands in for a killed shard).
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

#[test]
fn flaky_cluster_emits_byte_identical_csvs() {
    // Ground truth: a pure local pass.
    let local = tables_on(&LocalExecutor);

    // A two-shard cluster where one shard is dead and the survivor
    // runs seeded chaos: delayed reads, truncated frames, and one
    // single-flight leader killed mid-simulation. Every fault is
    // retryable; the cluster may be slow but must never be wrong. The
    // dead shard's keys (and only those) degrade to the local pool.
    let survivor = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            chaos: Some(ChaosSpec::parse("7:delay=0.2/10,trunc=0.1,kill=1").unwrap()),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap()
    .to_string();
    let remote = RemoteExecutor::new(&format!("{},{survivor}", dead_addr()))
        .with_timeout(Duration::from_secs(10))
        .with_retry(RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
        });
    assert_eq!(
        tables_on(&remote),
        local,
        "a chaotic cluster must slow results down, never change them"
    );
    // Exactly the dead shard's keys degrade to the local pool; which
    // keys those are follows deterministically from the shard map.
    let specs = make_specs();
    let dead_owned = specs[0]
        .jobs
        .iter()
        .filter(|j| remote.shard_map().shard_for(&j.key()) == 0)
        .count() as u64;
    let stats = remote.fault_stats();
    assert_eq!(
        stats.local_fallbacks.load(Ordering::Relaxed),
        dead_owned,
        "only the dead shard's keys may degrade"
    );
    if dead_owned > 0 {
        assert_eq!(stats.shard_downs.load(Ordering::Relaxed), 1, "dead shard");
    }
}

#[test]
fn all_shards_down_degrades_to_the_local_pool() {
    let local = tables_on(&LocalExecutor);

    // Two shards, both refusing connections: every cell
    // must exhaust its shard's ladder fast (or hit the down table)
    // and complete on the local pool.
    let remote = RemoteExecutor::new(&format!("{},{}", dead_addr(), dead_addr()))
        .with_timeout(Duration::from_millis(200))
        .with_retry(RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        });
    assert_eq!(
        tables_on(&remote),
        local,
        "graceful degradation must preserve results exactly"
    );
    assert_eq!(
        remote.fault_stats().local_fallbacks.load(Ordering::Relaxed),
        5,
        "all 5 cells degrade locally, the engine cell included"
    );
}

/// `n` distinct cheap workload cells, enough for lanes many keys long.
fn lane_cells(n: u64) -> Vec<(Job, RunKey)> {
    (0..n)
        .map(|i| {
            let job = Job::Workload {
                cfg: SystemConfig::paper_default()
                    .with_mitigation(MitigationKind::Qprac)
                    .with_instruction_limit(100 + i),
                workload: WorkloadSpec::by_name("ycsb/c_like").unwrap(),
            };
            let key = job.key();
            (job, key)
        })
        .collect()
}

fn chaos_shard(faults: &str) -> String {
    let config = ServerConfig {
        chaos: Some(ChaosSpec::parse(faults).unwrap()),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap()
        .to_string()
}

/// One counter of a shard, by registry name. The reply may be cut by
/// the shard's own chaos, so the probe retries.
fn shard_stat(addr: &str, name: &str) -> u64 {
    (0..10)
        .find_map(|_| Client::connect(addr).ok()?.stat(name).ok())
        .unwrap_or_else(|| panic!("{name} not read from {addr} within ten tries"))
}

/// Seeded `trunc` chaos cuts replies mid-batch: the lane drops the
/// connection, re-drives the keys behind the cut, and the results equal
/// a local run's. With only `trunc` armed, the shard draws once per
/// reply frame, and seed 2 cuts draws 20, 28 and 37: at least three
/// cuts land before the 40 keys are all answered.
#[test]
fn truncated_lanes_are_re_driven_to_local_results() {
    let cells = lane_cells(40);
    let cells: Vec<(&Job, RunKey)> = cells.iter().map(|(j, k)| (j, k.clone())).collect();
    let truth = LocalExecutor.execute_cells(&cells);
    let shard = chaos_shard("2:trunc=0.05");
    let remote = RemoteExecutor::new(&shard)
        .with_timeout(Duration::from_secs(10))
        .with_retry(RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
        });
    assert!(
        remote.execute_cells(&cells) == truth,
        "cut lanes changed results"
    );
    assert!(
        shard_stat(&shard, "qprac_chaos_truncated_total") > 0,
        "no frame was cut"
    );
    assert!(
        remote.fault_stats().retries.load(Ordering::Relaxed) > 0,
        "a cut lane must be re-driven"
    );
}

/// A warm-only pass never leaves the reactor thread unless chaos
/// delays it: the `delay` draw must still reach those requests.
#[test]
fn warm_pass_under_delay_chaos_still_fires_delays() {
    let cells = lane_cells(12);
    let cells: Vec<(&Job, RunKey)> = cells.iter().map(|(j, k)| (j, k.clone())).collect();
    let shard = chaos_shard("5:delay=0.5/2");
    let remote = RemoteExecutor::new(&shard).with_timeout(Duration::from_secs(10));
    let cold = remote.execute_cells(&cells);
    let (delayed, simulated) = (
        shard_stat(&shard, "qprac_chaos_delayed_total"),
        shard_stat(&shard, "qprac_simulated_total"),
    );
    let warm = remote.execute_cells(&cells);
    assert!(warm == cold, "delays must not change results");
    assert_eq!(
        shard_stat(&shard, "qprac_simulated_total"),
        simulated,
        "warm only"
    );
    assert!(
        shard_stat(&shard, "qprac_chaos_delayed_total") > delayed,
        "no warm request was delayed"
    );
}

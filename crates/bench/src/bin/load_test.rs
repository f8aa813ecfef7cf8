//! Cluster load-test harness: replay the full `run_all` key population
//! against a sharded `qprac-serve` cluster and prove the tentpole
//! properties end to end.
//!
//! What one run does:
//!
//! 1. collects every cell of [`run_all_specs`] and dedupes by canonical
//!    [`RunKey`];
//! 2. opens `QPRAC_LOAD_IDLE` (default 1024) extra idle connections
//!    spread across the shards and **holds them open for the whole
//!    run** — the poll-readiness server must serve the load through
//!    them without a thread per socket;
//! 3. replays every key from `QPRAC_LOAD_CLIENTS` (default 64)
//!    concurrent clients, each key from **two distinct clients**, all
//!    routed through the same consistent-hash [`ShardMap`] the bench
//!    runner uses;
//! 4. sums per-shard `qprac_simulated_total` deltas, each read from
//!    that shard's `METRICS`, and asserts cluster-wide
//!    `simulated == unique keys`: shard affinity plus
//!    server-side single-flight turned 2x request fan-in into exactly
//!    one simulation per cell, with zero cross-shard duplication.
//!
//! 5. scrapes every shard's `METRICS` exposition before and after the
//!    load, merges the snapshots, and asserts the merged view agrees
//!    with the per-shard sum: the cluster-wide
//!    `qprac_run_requests_total` delta equals the requests this run
//!    sent and the `qprac_simulated_total` delta equals the unique key
//!    count. The merged post-load snapshot is written to
//!    `results/metrics_cluster.txt`.
//!
//! Output ends with one greppable line:
//! `load-test: shards=.. clients=.. idle=.. unique=.. requests=.. simulated=.. wall_ms=.. rps=..`
//!
//! Shard list comes from `QPRAC_REMOTE` or the first argument that is
//! not a flag; `--profile` (before or after it) prints the per-phase
//! wall-time table (here: remote round trips). Any other `--flag`
//! exits 2 with a usage line. Exit code is nonzero on any failed
//! request or a broken invariant — CI runs this against a 3-shard
//! cluster.

use std::collections::HashSet;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qprac_bench::experiments::run_all_specs;
use qprac_bench::{profile, scrape_cluster, write_cluster_metrics};
use qprac_serve::{timeout_from_env, Client, ShardMap};
use sim::RunKey;

/// Per-shard `qprac_simulated_total` (the cluster may be warm or
/// shared; only the delta belongs to this run).
fn per_shard_simulated(shards: &[String]) -> Vec<u64> {
    shards
        .iter()
        .map(|addr| {
            let mut c = Client::connect_timeout(addr.as_str(), timeout_from_env())
                .unwrap_or_else(|e| panic!("shard {addr} unreachable: {e}"));
            c.stat("qprac_simulated_total")
                .unwrap_or_else(|e| panic!("shard {addr} METRICS failed: {e}"))
        })
        .collect()
}

const USAGE: &str = "usage: load_test [--profile] <host:port[,host:port...]> (or set QPRAC_REMOTE)";

/// The shard list argument: the first argument that is not a flag.
/// Exits 2 with the usage line on an unknown `--flag`.
fn shard_arg() -> Option<String> {
    let mut shards = None;
    for arg in std::env::args().skip(1) {
        if arg == "--profile" {
            continue;
        }
        if arg.starts_with("--") {
            eprintln!("load_test: unknown flag {arg}\n{USAGE}");
            std::process::exit(2);
        }
        shards.get_or_insert(arg);
    }
    shards
}

fn main() {
    let shard_arg = shard_arg();
    let addrs = sim::env_opt("QPRAC_REMOTE")
        .or(shard_arg)
        .unwrap_or_else(|| {
            eprintln!("load_test: no shards\n{USAGE}");
            std::process::exit(2);
        });
    let map = ShardMap::from_list(&addrs);
    assert!(!map.is_empty(), "no shards in {addrs:?}");
    let shards = map.shards().to_vec();
    let clients_n = sim::env_usize("QPRAC_LOAD_CLIENTS", 64).max(2);
    let idle_target = sim::env_usize("QPRAC_LOAD_IDLE", 1024);

    // The key population: every run_all cell, deduplicated.
    let specs = run_all_specs();
    let mut cells = 0usize;
    let mut seen: HashSet<RunKey> = HashSet::new();
    let mut keys: Vec<RunKey> = Vec::new();
    for job in specs.iter().flat_map(|spec| &spec.jobs) {
        cells += 1;
        let key = job.key();
        if seen.insert(key.clone()) {
            keys.push(key);
        }
    }
    let unique = keys.len();
    println!(
        "load-test: population {cells} cells -> {unique} unique remotable keys, \
         {} shard(s), {clients_n} clients",
        shards.len()
    );

    // Idle-connection phase: these sockets stay open (and silent) for
    // the entire load — ~thousands of registered fds the event loop
    // must carry while serving.
    #[cfg(unix)]
    let fd_limit = qprac_serve::raise_nofile_limit(2 * idle_target as u64 + 2048)
        .unwrap_or_else(|e| panic!("raise_nofile_limit: {e}"));
    #[cfg(not(unix))]
    let fd_limit = u64::MAX;
    let idle_n = idle_target.min((fd_limit.saturating_sub(1024) / 2) as usize);
    let idle: Vec<TcpStream> = (0..idle_n)
        .map(|i| {
            let addr = &shards[i % shards.len()];
            TcpStream::connect(addr.as_str())
                .unwrap_or_else(|e| panic!("idle conn {i} to {addr}: {e}"))
        })
        .collect();
    if idle_n < idle_target {
        println!("load-test: fd limit {fd_limit} capped idle connections at {idle_n}");
    }
    println!("load-test: holding {idle_n} idle connections across the cluster");

    let base = per_shard_simulated(&shards);
    let metrics_base = scrape_cluster(&shards)
        .unwrap_or_else(|e| panic!("baseline cluster METRICS scrape failed: {e}"));

    // Load phase: the doubled key list round-robins over the client
    // pool, so copies 2k and 2k+1 of a key land on *distinct* clients
    // (clients_n >= 2) — cluster-wide coalescing is proven by real
    // concurrent duplicate requests, not by sending each key once.
    let failures = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients_n {
            let keys = &keys;
            let map = &map;
            let shards = &shards;
            let failures = &failures;
            let requests = &requests;
            scope.spawn(move || {
                // One connection per shard, opened lazily; each request
                // waits for its reply.
                let mut conns: Vec<Option<Client>> = shards.iter().map(|_| None).collect();
                for (i, key) in keys.iter().enumerate() {
                    for copy in 0..2usize {
                        if (2 * i + copy) % clients_n != c {
                            continue;
                        }
                        let shard = map.shard_for(key);
                        let slot = &mut conns[shard];
                        // A request may race another client's cold
                        // simulation; transport hiccups get one
                        // reconnect before counting as a failure.
                        let mut attempts = 0;
                        loop {
                            attempts += 1;
                            if slot.is_none() {
                                match Client::connect_timeout(
                                    shards[shard].as_str(),
                                    timeout_from_env(),
                                ) {
                                    Ok(cl) => *slot = Some(cl),
                                    Err(e) => {
                                        qprac_obs::warn!(
                                            "client {c}: connect {}: {e}",
                                            shards[shard]
                                        );
                                        failures.fetch_add(1, Ordering::Relaxed);
                                        break;
                                    }
                                }
                            }
                            requests.fetch_add(1, Ordering::Relaxed);
                            let t_req = Instant::now();
                            match slot.as_mut().unwrap().run(key) {
                                Ok(_) => {
                                    profile::record("remote_roundtrip", t_req.elapsed());
                                    break;
                                }
                                Err(e) => {
                                    *slot = None; // drop the sick connection
                                    if attempts >= 3 {
                                        qprac_obs::warn!("client {c}: {key} failed: {e}");
                                        failures.fetch_add(1, Ordering::Relaxed);
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    drop(idle);

    let after = per_shard_simulated(&shards);
    let mut simulated = 0u64;
    for (i, addr) in shards.iter().enumerate() {
        let delta = after[i] - base[i];
        simulated += delta;
        println!("load-test: shard {i} ({addr}) simulated {delta}");
    }
    let requests = requests.load(Ordering::Relaxed);
    let failed = failures.load(Ordering::Relaxed);
    let rps = requests as f64 / wall.as_secs_f64();
    println!(
        "load-test: shards={} clients={clients_n} idle={idle_n} unique={unique} \
         requests={requests} simulated={simulated} wall_ms={} rps={rps:.0}",
        shards.len(),
        wall.as_millis(),
    );
    assert_eq!(failed, 0, "{failed} request(s) failed");
    assert_eq!(
        simulated, unique as u64,
        "cluster-wide simulated must equal unique keys: shard affinity or \
         single-flight is broken (or the cluster was not cold)"
    );

    // The merged cluster scrape must agree with the per-shard reads:
    // its deltas account for exactly this run's traffic.
    let metrics_after = scrape_cluster(&shards)
        .unwrap_or_else(|e| panic!("post-load cluster METRICS scrape failed: {e}"));
    let run_delta = metrics_after.counter("qprac_run_requests_total")
        - metrics_base.counter("qprac_run_requests_total");
    let sim_delta = metrics_after.counter("qprac_simulated_total")
        - metrics_base.counter("qprac_simulated_total");
    println!(
        "load-test: metrics run_requests_delta={run_delta} simulated_delta={sim_delta} \
         (expect {requests} and {unique})"
    );
    assert_eq!(
        run_delta, requests,
        "merged qprac_run_requests_total delta must equal the requests sent"
    );
    assert_eq!(
        sim_delta, unique as u64,
        "merged qprac_simulated_total delta must equal the unique key count"
    );
    match write_cluster_metrics(&metrics_after) {
        Ok(path) => println!("load-test: merged cluster metrics -> {}", path.display()),
        Err(e) => panic!("writing metrics_cluster.txt failed: {e}"),
    }
    profile::print_if_requested();
}

//! Event-driven-core integration tests: the properties the poll
//! readiness loop was built for. A thousand idle connections must cost
//! buffers, not OS threads; the connection ceiling must refuse (and
//! count) the excess; and per-verb latency histograms must surface in
//! `STATS`/`HEALTH`.
//!
//! These tests are unix-only by construction (the poll core is) and
//! read `/proc/self/status` for the thread count, so the ceiling test
//! is additionally Linux-gated.

#![cfg(unix)]

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qprac_serve::{ChaosSpec, Client, Server, ServerConfig};
use sim::{MitigationKind, RunKey, SystemConfig};

fn small_key(instr: u64) -> RunKey {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::Qprac)
        .with_instruction_limit(instr);
    RunKey::workload(&cfg, "ycsb/a_like")
}

fn spawn_server(config: ServerConfig) -> SocketAddr {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// Threads in this process, from `/proc/self/status` (Linux only).
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// The headline property: one shard under the poll loop sustains
/// ≥ 1024 concurrently-open idle connections while the process' thread
/// count stays fixed (the event loop plus its bounded dispatch pool —
/// no thread per connection). Armed chaos runs on the same loop.
#[cfg(target_os = "linux")]
#[test]
fn poll_loop_sustains_1024_idle_connections_on_a_fixed_thread_count() {
    for chaos in [None, Some(ChaosSpec::parse("7:delay=1/5").unwrap())] {
        sustain_idle_connections(chaos);
    }
}

#[cfg(target_os = "linux")]
fn sustain_idle_connections(chaos: Option<ChaosSpec>) {
    const IDLE: usize = 1024;
    // Both socket ends live in this process: budget generously.
    let limit = qprac_serve::raise_nofile_limit(4 * IDLE as u64 + 256).expect("raise nofile");
    assert!(
        limit >= 2 * IDLE as u64 + 64,
        "fd limit {limit} too low to even attempt the ceiling"
    );
    let config = ServerConfig {
        workers: 2,
        max_conns: 2 * IDLE,
        chaos,
        ..ServerConfig::default()
    };
    let addr = spawn_server(config);
    let mut probe = Client::connect(addr).expect("probe connect");
    probe.ping().expect("server up");
    let threads_before = process_threads();

    let mut idle = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let conn = TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}"));
        idle.push(conn);
    }
    // The server is still responsive with every idle socket open...
    probe
        .ping()
        .expect("server responsive under 1024 idle conns");
    let key = small_key(200);
    probe.run(&key).expect("run resolves under load");
    // ...every connection is actually registered (accepted + polled)...
    let connections = wait_for_health_gauge(addr, "connections=", IDLE as u64 + 1);
    assert!(
        connections > IDLE as u64,
        "HEALTH reports {connections} connections, expected > {IDLE}"
    );
    // ...and no thread was spawned per connection: the thread count is
    // what it was before (modulo unrelated test-harness noise).
    let threads_after = process_threads();
    assert!(
        threads_after <= threads_before + 4,
        "thread count grew {threads_before} -> {threads_after} under idle connections \
         (thread-per-connection would add ~{IDLE}; chaos {chaos:?})"
    );
    drop(idle);
}

/// Wait (bounded) for a `HEALTH` gauge to reach `want`; returns the
/// last observed value. Gauges settle asynchronously with the reactor's
/// accept/close processing.
fn wait_for_health_gauge(addr: SocketAddr, field: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = 0;
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(health) = c.health() {
                last = health
                    .lines()
                    .find_map(|l| l.strip_prefix(field))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                if last >= want {
                    return last;
                }
            }
        }
        if Instant::now() > deadline {
            return last;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Past `max_conns`, new connections are hung up on without a byte and
/// the refusal is counted — the bound that keeps the poll loop's fd set
/// (and memory) finite under a connection flood.
#[test]
fn connection_ceiling_refuses_and_counts_the_excess() {
    let config = ServerConfig {
        max_conns: 8,
        ..ServerConfig::default()
    };
    let addr = spawn_server(config);
    let mut held: Vec<Client> = (0..8)
        .map(|i| {
            let mut c = Client::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}"));
            c.ping().unwrap_or_else(|e| panic!("ping {i}: {e}")); // registered, not just SYN-acked
            c
        })
        .collect();

    // The 9th connects at the kernel level (listen backlog) but the
    // server hangs up before answering anything.
    let mut ninth = TcpStream::connect(addr).expect("kernel-level connect");
    ninth
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    use std::io::Write as _;
    let _ = ninth.write_all(b"PING\n");
    let mut buf = [0u8; 16];
    let n = ninth.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "over-ceiling connection got bytes: {buf:?}");

    // Releasing one slot readmits new clients, and the refusal shows up
    // in HEALTH.
    held.pop();
    let rejected = wait_for_health_gauge(addr, "rejected_conns=", 1);
    assert!(rejected >= 1, "refusals not counted (rejected_conns=0)");
    // Readmission races the server noticing closed sockets (ours and
    // the HEALTH probes'); retry until a fresh client serves.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = match Client::connect(addr) {
            Ok(mut c) => c.ping().map_err(|e| format!("{e:?}")),
            Err(e) => Err(format!("{e:?}")),
        };
        match served {
            Ok(()) => break,
            Err(e) => {
                assert!(Instant::now() < deadline, "never readmitted: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Per-verb latency histograms appear in
/// `STATS` and `HEALTH` once a verb has traffic, and quiet verbs stay
/// silent.
#[test]
fn stats_and_health_expose_per_verb_latency_quantiles() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let key = small_key(300);
    client.run(&key).expect("run");
    client.run(&key).expect("run again (warm)");
    let stats = client.stats().expect("stats");
    for field in [
        "lat_runb_count=2",
        "lat_runb_p50_us=",
        "lat_runb_p95_us=",
        "lat_runb_p99_us=",
    ] {
        assert!(stats.contains(field), "{field} missing from STATS: {stats}");
    }
    // HEALTH had no traffic before this STATS render: quiet verbs stay
    // silent.
    assert!(
        !stats.contains("lat_health_"),
        "quiet verb rendered: {stats}"
    );
    let health = client.health().expect("health");
    assert!(
        health.contains("lat_runb_count=2"),
        "HEALTH lacks histograms: {health}"
    );
    assert!(health.contains("connections="), "{health}");
    assert!(health.contains("max_conns="), "{health}");
}

/// The `METRICS` verb serves a parseable Prometheus exposition whose
/// counters agree with `STATS` — both render the same registry
/// snapshot, so any drift is a bug.
#[test]
fn metrics_exposition_parses_and_matches_stats() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let key = small_key(250);
    client.run(&key).expect("run");
    client.run(&key).expect("run again (warm)");
    let simulated = client.stat("simulated").expect("stats counter");
    let text = client.metrics().expect("metrics");
    let snap = qprac_obs::Snapshot::parse_prometheus(&text)
        .unwrap_or_else(|e| panic!("METRICS payload must parse: {e}\n{text}"));
    assert_eq!(snap.counter("qprac_simulated_total"), simulated);
    assert_eq!(snap.counter("qprac_run_requests_total"), 2);
    assert_eq!(snap.counter("qprac_mem_hits_total"), 1, "warm rerun hit");
    assert!(snap.gauge("qprac_workers") >= 1, "{text}");
    assert!(snap.gauge("qprac_uptime_ms") >= 0, "{text}");
    // Per-verb latency travels as real histograms.
    let runb = snap.hists.get("qprac_lat_runb_us").expect("runb histogram");
    assert_eq!(runb.count(), 2);
    // A second scrape counts the first: the METRICS verb observes
    // itself like any other.
    let text2 = client.metrics().expect("second scrape");
    let snap2 = qprac_obs::Snapshot::parse_prometheus(&text2).expect("parses");
    assert_eq!(snap2.hists["qprac_lat_metrics_us"].count(), 1);
    // Cross-shard aggregation: merging two scrapes of the same shard
    // doubles counters — the operation load_test applies across shards.
    let mut merged = snap.clone();
    merged.merge(&snap2);
    assert_eq!(
        merged.counter("qprac_simulated_total"),
        2 * simulated,
        "merge must sum counters"
    );
}

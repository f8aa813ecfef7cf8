//! End-to-end service tests on an ephemeral port: single-flight
//! coalescing under concurrent clients, the three cache tiers'
//! hit counters, engine cells, pipelined batches and the reply-backlog
//! cap, the load gauges `METRICS` reports, and graceful handling of
//! malformed and truncated requests.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use qprac_obs::Snapshot;
use qprac_serve::protocol::{read_response, write_response, Response};
use qprac_serve::{ChaosSpec, Client, ClientError, Server, ServerConfig, REPLY_BACKLOG_CAP};
use sim::{encode_cell, CellResult, MitigationKind, RunCache, RunKey, SystemConfig};

/// A tiny-but-real workload cell (~milliseconds of simulation).
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

#[test]
fn concurrent_clients_with_one_key_simulate_once() {
    let addr = spawn_server(ServerConfig::default());
    let key = small_key(700);
    const CLIENTS: usize = 8;
    let results: Vec<CellResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let key = key.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.run(&key).expect("run cell")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All clients observe the identical result...
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    assert!(matches!(results[0], CellResult::Stats(_)));
    // ...and the server ran the simulation exactly once: every other
    // request either coalesced onto the in-flight run or hit the LRU.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.stat("qprac_simulated_total").unwrap(),
        1,
        "single-flight"
    );
    let mem_hits = client.stat("qprac_mem_hits_total").unwrap();
    let coalesced = client.stat("qprac_coalesced_total").unwrap();
    assert_eq!(
        mem_hits + coalesced,
        (CLIENTS - 1) as u64,
        "the other {} requests must be shared, not re-simulated",
        CLIENTS - 1
    );
    assert_eq!(client.stat("qprac_in_flight").unwrap(), 0);
}

#[test]
fn lru_and_disk_tiers_report_hits() {
    let dir = std::env::temp_dir().join(format!("qprac-serve-test-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = small_key(600);

    // Server A simulates once, then answers from memory.
    let addr_a = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr_a).unwrap();
    let first = client.run(&key).expect("cold run");
    let again = client.run(&key).expect("warm run");
    assert_eq!(first, again);
    assert_eq!(client.stat("qprac_simulated_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_mem_hits_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_disk_hits_total").unwrap(), 0);

    // Server B shares the disk tier: a fresh process-equivalent resolves
    // the same key from disk without simulating.
    let addr_b = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client_b = Client::connect(addr_b).unwrap();
    assert_eq!(client_b.run(&key).expect("disk-tier run"), first);
    assert_eq!(client_b.stat("qprac_simulated_total").unwrap(), 0);
    assert_eq!(client_b.stat("qprac_disk_hits_total").unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_err_and_the_connection_survives() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // Unknown verb.
    let err = client.run_key_text("").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    // Unparseable key.
    let err = client.run_key_text("workload:missing-config").unwrap_err();
    assert!(err.to_string().contains("malformed"), "{err}");
    // Well-formed key naming an unknown workload.
    let cfg = SystemConfig::paper_default().with_instruction_limit(100);
    let ghost = RunKey::workload(&cfg, "nope/nope");
    let err = client.run_key_text(ghost.as_str()).unwrap_err();
    assert!(err.to_string().contains("unknown workload"), "{err}");
    // An engine key whose pool would overflow the bank.
    let err = client
        .run_key_text("engine:wave;nmit=1;nbo=32;psq=5;r1=20000")
        .unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert!(err.to_string().contains("r1=20000"), "{err}");
    assert!(!err.to_string().contains("panicked"), "{err}");
    // The same connection still works for a valid request afterwards.
    client.ping().expect("connection survived the ERRs");
    assert!(client.stat("qprac_errors_total").unwrap() >= 4);

    // The retired verbs (`RUN` and the two `name=value` state dumps)
    // are just unknown requests, and their connection survives too.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    writeln!(raw, "RUN {}", small_key(100)).unwrap();
    raw.write_all(b"STATS\nHEALTH\n").unwrap();
    for _ in 0..3 {
        match read_response(&mut reader).unwrap() {
            Response::Err(msg) => assert!(msg.contains("unknown request"), "{msg}"),
            other => panic!("a retired verb must be refused: {other:?}"),
        }
    }
    raw.write_all(b"PING\n").unwrap();
    assert_eq!(
        read_response(&mut reader).unwrap(),
        Response::Ok("pong".into())
    );
}

#[test]
fn engine_keys_are_served_byte_identical_to_a_local_run() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let spec = RunKey::parse_text("engine:wave;nmit=1;nbo=8;psq=5;r1=4").unwrap();
    let served = client.run(&spec.key()).expect("engine cell served");
    assert_eq!(encode_cell(&served), encode_cell(&spec.run()));
    assert_eq!(client.stat("qprac_simulated_total").unwrap(), 1);
}

#[test]
fn unknown_mitigation_keys_get_a_counted_clean_err() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // A key a newer build could legitimately mint: canonical in every
    // respect except the mitigation token.
    let known = small_key(100);
    let future = known.as_str().replace("mit=qprac;", "mit=hydra-prac;");
    let err = client.run_key_text(&future).unwrap_err();
    // The ERR is authoritative (a Server error, not a transport fault,
    // and not a worker panic the client would retry elsewhere).
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert!(err.to_string().contains("unknown mitigation"), "{err}");
    assert!(!err.to_string().contains("panicked"), "{err}");
    // Counted under its own counter, distinct from plain errors.
    assert_eq!(client.stat("qprac_unknown_mitigation_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_errors_total").unwrap(), 1);
    // A malformed key is an error but NOT an unknown mitigation.
    let err = client.run_key_text("workload:missing-config").unwrap_err();
    assert!(err.to_string().contains("malformed"), "{err}");
    assert_eq!(client.stat("qprac_unknown_mitigation_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_errors_total").unwrap(), 2);
    // The connection survives and the server still simulates.
    client.ping().expect("connection survived the ERRs");
}

#[test]
fn truncated_connections_do_not_wedge_the_server() {
    let addr = spawn_server(ServerConfig::default());
    // A client that dies mid-request: no trailing newline, then EOF.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"RUNB half-a-key").unwrap();
        // Dropped here: the server sees EOF mid-line and closes.
    }
    // And one that sends garbage bytes with a newline.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\x00\xffgarbage\n").unwrap();
    }
    // The server keeps serving fresh connections.
    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("server alive after truncated peers");
}

#[test]
fn corrupt_binary_disk_entries_are_a_miss_never_a_panic() {
    let dir = std::env::temp_dir().join(format!("qprac-serve-test-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = small_key(500);

    // Server A populates the binary disk tier.
    let addr_a = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr_a).unwrap();
    let first = client.run(&key).expect("cold run");

    // Flip one byte in every cache entry on disk.
    let mut flipped = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        flipped += 1;
    }
    assert!(flipped > 0, "server A must have written disk entries");

    // A fresh server on the damaged tier must re-simulate (a clean
    // miss), never crash or serve silently wrong statistics.
    let addr_b = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client_b = Client::connect(addr_b).unwrap();
    assert_eq!(client_b.run(&key).expect("resolve past corruption"), first);
    assert_eq!(
        client_b.stat("qprac_disk_hits_total").unwrap(),
        0,
        "corrupt = miss"
    );
    assert_eq!(client_b.stat("qprac_simulated_total").unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The satellite-d pin: a single-flight leader killed mid-simulation
/// (chaos `kill=1`) must not strand its followers. The leader's
/// connection dies (EOF — a retryable transport error), followers
/// observe the poison `ERR ... panicked` (retryable by
/// [`ClientError::is_retryable`]), and every client that re-drives the
/// key gets the real result — simulated exactly once more.
#[test]
fn chaos_killed_leader_poisons_followers_who_redrive() {
    let addr = spawn_server(ServerConfig {
        chaos: Some(ChaosSpec::parse("1:kill=1").unwrap()),
        ..ServerConfig::default()
    });
    let key = small_key(650);
    const CLIENTS: usize = 6;
    let (results, retries): (Vec<CellResult>, Vec<u32>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let key = key.clone();
                s.spawn(move || {
                    let mut retries = 0u32;
                    loop {
                        let mut client = Client::connect(addr).expect("connect");
                        match client.run(&key) {
                            Ok(result) => return (result, retries),
                            Err(e) => {
                                assert!(e.is_retryable(), "chaos fault not retryable: {e}");
                                retries += 1;
                                assert!(retries < 8, "cell never converged: {e}");
                            }
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).unzip()
    });
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    assert!(matches!(results[0], CellResult::Stats(_)));
    // Exactly one leader died; at least that client had to re-drive.
    assert!(
        retries.iter().sum::<u32>() >= 1,
        "a kill must force a retry"
    );
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stat("qprac_chaos_killed_total").unwrap(), 1);
    assert_eq!(
        client.stat("qprac_simulated_total").unwrap(),
        1,
        "the re-driven flight simulates once; everyone else shares it"
    );
}

/// An idle shard's `METRICS`: not draining, at least one worker, no
/// load, and no chaos counters while chaos is off.
#[test]
fn metrics_report_status_and_load_gauges() {
    let addr = spawn_server(ServerConfig::default());
    let snap = scrape(&mut Client::connect(addr).unwrap());
    assert_eq!(snap.gauge("qprac_draining"), 0);
    assert!(snap.gauge("qprac_workers") >= 1);
    for idle in ["qprac_active", "qprac_queue_depth", "qprac_in_flight"] {
        assert_eq!(snap.gauges.get(idle), Some(&0), "{idle}");
    }
    assert!(snap.gauges.contains_key("qprac_uptime_ms"));
    // Chaos counters only appear when chaos is armed.
    assert!(
        !snap.counters.keys().any(|name| name.contains("chaos")),
        "quiet server, no fault counters: {:?}",
        snap.counters.keys()
    );
}

/// `qprac_queue_depth` counts misses the dispatch pool has not taken
/// yet: with one worker stalled on a delayed miss, the other distinct
/// misses wait in the queue, and `METRICS` (answered inline) sees them
/// there.
#[test]
fn health_reports_the_dispatch_queue_depth() {
    let addr = spawn_server(ServerConfig {
        workers: 1,
        chaos: Some(ChaosSpec::parse("1:delay=1/250").unwrap()),
        ..ServerConfig::default()
    });
    let queue_depth = || {
        Client::connect(addr)
            .unwrap()
            .stat("qprac_queue_depth")
            .unwrap()
    };
    assert_eq!(queue_depth(), 0);
    std::thread::scope(|s| {
        let misses: Vec<_> = [300, 301, 302]
            .map(|instr| s.spawn(move || Client::connect(addr).unwrap().run(&small_key(instr))))
            .into_iter()
            .collect();
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut peak = 0;
        while peak == 0 && Instant::now() < deadline {
            peak = queue_depth();
        }
        assert!(peak >= 1, "no miss was seen waiting for the one worker");
        for miss in misses {
            assert!(matches!(miss.join().unwrap(), Ok(CellResult::Stats(_))));
        }
    });
    assert_eq!(queue_depth(), 0, "every queued miss was taken");
}

/// Graceful teardown: `SHUTDOWN` answers `draining`, in-flight work
/// completes with a real result, and `serve()` returns so the daemon
/// process can exit 0.
#[test]
fn shutdown_drains_in_flight_work_and_serve_returns() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let serve_thread = std::thread::spawn(move || server.serve());
    let key = small_key(30_000);
    let runner = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.run(&key)
    });
    // Let the RUN get in flight, then ask for teardown.
    std::thread::sleep(Duration::from_millis(50));
    let mut ctl = Client::connect(addr).expect("control connection");
    ctl.shutdown().expect("draining reply");
    serve_thread
        .join()
        .unwrap()
        .expect("serve() returns cleanly after the drain");
    // The in-flight cell completed despite the shutdown racing it.
    let result = runner.join().unwrap().expect("drained run completes");
    assert!(matches!(result, CellResult::Stats(_)));
    // The listener is gone: fresh connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "accepting must stop");
}

/// The acceptance-criteria hang test: a server that accepts and never
/// replies must cost a client one bounded timeout, not a stalled
/// worker.
#[test]
fn hung_server_times_out_instead_of_stalling() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // Accept and hold connections forever, never writing a byte.
        let mut held = Vec::new();
        for conn in listener.incoming() {
            held.push(conn);
        }
    });
    let t0 = Instant::now();
    let mut client =
        Client::connect_timeout(addr, Duration::from_millis(200)).expect("connect succeeds");
    let err = client.run(&small_key(100)).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "{err}");
    assert!(err.is_retryable(), "a timeout is transient");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the deadline must bound the stall (took {:?})",
        t0.elapsed()
    );
}

/// The `qprac-client` binary against a listener that accepts and never
/// answers: `QPRAC_REMOTE_TIMEOUT_MS` bounds its connect, read and
/// write, so it exits nonzero within a few seconds instead of hanging.
#[test]
fn client_cli_exits_nonzero_on_a_silent_shard() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for conn in listener.incoming() {
            held.push(conn);
        }
    });
    let t0 = Instant::now();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_qprac-client"))
        .args(["--addr", &addr.to_string(), "ping"])
        .env("QPRAC_REMOTE_TIMEOUT_MS", "300")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn qprac-client");
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("qprac-client still hung after {:?}", t0.elapsed());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "a silent shard must fail the command");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the deadline must bound the stall (took {:?})",
        t0.elapsed()
    );
}

/// The server's registry as one `METRICS` scrape.
fn scrape(client: &mut Client) -> Snapshot {
    Snapshot::parse_prometheus(&client.metrics().unwrap()).expect("valid exposition")
}

/// One pipelined batch on one connection: warm hits, a cold key
/// mid-batch, duplicates, a malformed key and an unknown-mitigation
/// key. Replies come back in key order, each equal to a local run of
/// its key, and every `RUNB` is counted exactly once whether the
/// reactor answered it inline or the dispatch pool resolved it.
#[test]
fn pipelined_batch_answers_in_order_with_exact_accounting() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let (warm_a, warm_b, cold) = (small_key(300), small_key(310), small_key(320));
    client.run(&warm_a).unwrap();
    client.run(&warm_b).unwrap();
    let unknown = warm_a.as_str().replace("mit=qprac;", "mit=hydra-prac;");
    let batch = [
        warm_a.as_str(),
        warm_b.as_str(),
        cold.as_str(),
        warm_a.as_str(),
        "workload:missing-config",
        cold.as_str(),
        &unknown,
        warm_b.as_str(),
    ];
    let before = scrape(&mut client);
    let mut replies = Vec::new();
    client.run_many(&batch, |reply| replies.push(reply));
    let after = scrape(&mut client);
    assert_eq!(replies.len(), batch.len(), "one reply per key");
    for (key, reply) in batch.iter().zip(&replies) {
        match RunKey::parse_text(key) {
            Ok(spec) => assert_eq!(reply.as_ref().unwrap(), &spec.run(), "{key}"),
            Err(e) => match reply {
                Err(ClientError::Server(msg)) => assert_eq!(msg, &e.to_string()),
                other => panic!("{key}: expected a clean ERR, got {other:?}"),
            },
        }
    }
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("qprac_run_requests_total"), 8);
    // warm_a twice, warm_b twice, and the cold key's duplicate, which
    // is read only after the cold key was answered.
    assert_eq!(delta("qprac_mem_hits_total"), 5);
    assert_eq!(delta("qprac_simulated_total"), 1);
    assert_eq!(delta("qprac_errors_total"), 2);
    assert_eq!(delta("qprac_unknown_mitigation_total"), 1);
    // The batch plus the second METRICS scrape itself.
    assert_eq!(delta("qprac_requests_total"), 9);
    let lat = |s: &Snapshot| s.hists["qprac_lat_runb_us"].count();
    assert_eq!(lat(&after) - lat(&before), 8, "every RUNB is timed");
}

/// A peer that pipelines thousands of warm keys and never reads its
/// replies must stall on TCP backpressure: the server's unflushed reply
/// bytes stay within one reply of the cap. Once the peer reads, every
/// reply arrives intact and in order, and the backlog drains to zero.
#[test]
fn reply_backlog_stays_capped_for_a_peer_that_never_reads() {
    const KEYS: usize = 20_000;
    let addr = spawn_server(ServerConfig::default());
    let mut control = Client::connect(addr).unwrap();
    let keys: Vec<RunKey> = (0..4).map(|i| small_key(200 + i)).collect();
    let frames: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| encode_cell(&control.run(k).unwrap()))
        .collect();
    // The most one reply, header included, can add past the cap.
    let reply_max = frames
        .iter()
        .map(|f| {
            let mut wire = Vec::new();
            write_response(&mut wire, &Response::OkBin(f.clone())).unwrap();
            wire.len()
        })
        .max()
        .unwrap();
    let flood = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(flood.try_clone().unwrap());
    let lines = keys.clone();
    let sender = std::thread::spawn(move || {
        for i in 0..KEYS {
            writeln!(writer, "RUNB {}", lines[i % lines.len()]).unwrap();
        }
        writer.flush().unwrap();
    });
    // Watch the server until it stops answering: the flood is stalled.
    let (mut peak, mut answered, mut still) = (0, 0, 0);
    let deadline = Instant::now() + Duration::from_secs(60);
    while still < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let snap = scrape(&mut control);
        peak = peak.max(snap.gauge("qprac_reply_backlog_bytes"));
        let now = snap.counter("qprac_run_requests_total") - keys.len() as u64;
        still = if now == answered && now > 0 {
            still + 1
        } else {
            0
        };
        answered = now;
    }
    assert!(
        (answered as usize) < KEYS,
        "the server answered all {KEYS} keys to a peer that reads nothing"
    );
    assert!(
        peak as usize <= REPLY_BACKLOG_CAP + reply_max,
        "reply backlog {peak} B exceeds the {REPLY_BACKLOG_CAP} B cap by more than one reply"
    );
    let mut reader = BufReader::new(flood);
    for i in 0..KEYS {
        match read_response(&mut reader).unwrap() {
            Response::OkBin(frame) => assert_eq!(frame, frames[i % frames.len()], "reply {i}"),
            other => panic!("reply {i}: {other:?}"),
        }
    }
    sender.join().unwrap();
    assert_eq!(scrape(&mut control).gauge("qprac_reply_backlog_bytes"), 0);
}

/// Send one raw `RUNB` line and read its frame, so a test sees the exact
/// payload bytes the server wrote.
fn runb_frame(addr: SocketAddr, key_text: &str) -> Response {
    let mut raw = TcpStream::connect(addr).unwrap();
    writeln!(raw, "RUNB {key_text}").unwrap();
    read_response(&mut BufReader::new(raw)).unwrap()
}

/// `key` with its first two config fields swapped: the same cell, but
/// not its canonical spelling.
fn respelled(key: &RunKey) -> String {
    let mut fields: Vec<&str> = key.as_str().split(';').collect();
    fields.swap(1, 2);
    fields.join(";")
}

/// The memory tier serves the bytes it encoded once on admission: a
/// warm hit's payload equals the cold reply, a disk-tier reply and the
/// encoding of the disk tier's own result.
#[test]
fn warm_hits_serve_the_cold_reply_bytes() {
    let dir = std::env::temp_dir().join(format!("qprac-serve-test-payload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = small_key(450);
    let disk = || ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    };
    let addr_a = spawn_server(disk());
    let cold = runb_frame(addr_a, key.as_str());
    let warm = runb_frame(addr_a, key.as_str());
    let stored = encode_cell(&RunCache::at(&dir).load(&key).expect("stored on disk"));
    assert_eq!(cold, Response::OkBin(stored.clone()));
    assert_eq!(warm, cold, "a warm hit is byte-identical to the cold reply");
    let mut client = Client::connect(addr_a).unwrap();
    assert_eq!(client.stat("qprac_mem_hits_total").unwrap(), 1);

    // A second shard on the same disk admits the result from there.
    let addr_b = spawn_server(disk());
    assert_eq!(runb_frame(addr_b, key.as_str()), cold, "disk-tier reply");
    assert_eq!(runb_frame(addr_b, key.as_str()), cold, "its warm hit");
    let mut client_b = Client::connect(addr_b).unwrap();
    assert_eq!(client_b.stat("qprac_disk_hits_total").unwrap(), 1);
    assert_eq!(client_b.stat("qprac_mem_hits_total").unwrap(), 1);
    assert_eq!(client_b.stat("qprac_simulated_total").unwrap(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The raw-text probe only matches canonical spellings: a re-spelling
/// of a cached key misses it, fails to parse and is an `ERR`, counted
/// as an error and never as a memory hit.
#[test]
fn non_canonical_respelling_of_a_cached_key_is_an_err() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let key = small_key(460);
    client.run(&key).unwrap();
    client.run(&key).unwrap();
    let before = scrape(&mut client);
    let err = client.run_key_text(&respelled(&key)).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert!(err.to_string().contains("expected field"), "{err}");
    let after = scrape(&mut client);
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("qprac_errors_total"), 1);
    assert_eq!(delta("qprac_mem_hits_total"), 0);
    assert_eq!(delta("qprac_run_requests_total"), 1);
}

/// Keys that fail to parse never enter the memory tier: sent again,
/// each is parsed and refused again, with its counters moving again.
#[test]
fn rejected_keys_never_enter_the_memory_tier() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let unknown = small_key(100)
        .as_str()
        .replace("mit=qprac;", "mit=hydra-prac;");
    for round in 1..=2 {
        for bad in ["workload:missing-config", unknown.as_str()] {
            assert!(
                matches!(client.run_key_text(bad), Err(ClientError::Server(_))),
                "{bad}"
            );
        }
        assert_eq!(client.stat("qprac_errors_total").unwrap(), 2 * round);
        assert_eq!(
            client.stat("qprac_unknown_mitigation_total").unwrap(),
            round
        );
        assert_eq!(client.stat("qprac_mem_hits_total").unwrap(), 0);
    }
    assert_eq!(client.stat("qprac_simulated_total").unwrap(), 0);
}

/// With every `RUNB` delayed, warm requests still take one delay draw
/// each, before they are answered: none is served from the raw probe
/// inline, and a malformed key draws nothing.
#[test]
fn armed_delay_stalls_every_warm_runb_once() {
    let addr = spawn_server(ServerConfig {
        chaos: Some(ChaosSpec::parse("7:delay=1/20").unwrap()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let key = small_key(470);
    let first = client.run(&key).unwrap();
    for _ in 0..3 {
        let t0 = Instant::now();
        assert_eq!(client.run(&key).unwrap(), first);
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "a warm RUNB escaped the armed delay"
        );
    }
    assert!(client.run_key_text("workload:missing-config").is_err());
    assert_eq!(client.stat("qprac_chaos_delayed_total").unwrap(), 4);
    // The delayed warm requests are still memory hits, counted on the pool.
    assert_eq!(client.stat("qprac_mem_hits_total").unwrap(), 3);
    assert_eq!(client.stat("qprac_run_requests_total").unwrap(), 5);
}

/// The memory tier stays capped at `lru_entries`: past the cap the
/// least recently used key is evicted, and asking for it again misses
/// (and, with no disk tier, simulates again).
#[test]
fn memory_tier_entry_cap_still_evicts() {
    let addr = spawn_server(ServerConfig {
        lru_entries: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let (a, b, c) = (small_key(480), small_key(481), small_key(482));
    for key in [&a, &b, &c] {
        client.run(key).unwrap();
    }
    assert_eq!(client.stat("qprac_simulated_total").unwrap(), 3);
    // `a` was evicted by `c`; `c` is still held.
    client.run(&a).unwrap();
    assert_eq!(client.stat("qprac_simulated_total").unwrap(), 4);
    assert_eq!(client.stat("qprac_mem_hits_total").unwrap(), 0);
    client.run(&a).unwrap();
    assert_eq!(client.stat("qprac_mem_hits_total").unwrap(), 1);
}

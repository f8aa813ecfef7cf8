//! End-to-end service tests on an ephemeral port: single-flight
//! coalescing under concurrent clients, the three cache tiers'
//! hit counters, engine cells, pipelined batches and the reply-backlog
//! cap, the dispatch queue depth `HEALTH` reports, and graceful handling
//! of malformed and truncated requests.

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
    assert_eq!(client.stat("simulated").unwrap(), 1, "single-flight");
    let mem_hits = client.stat("mem_hits").unwrap();
    let coalesced = client.stat("coalesced").unwrap();
    assert_eq!(
        mem_hits + coalesced,
        (CLIENTS - 1) as u64,
        "the other {} requests must be shared, not re-simulated",
        CLIENTS - 1
    );
    assert_eq!(client.stat("in_flight").unwrap(), 0);
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
    assert_eq!(client.stat("simulated").unwrap(), 1);
    assert_eq!(client.stat("mem_hits").unwrap(), 1);
    assert_eq!(client.stat("disk_hits").unwrap(), 0);

    // Server B shares the disk tier: a fresh process-equivalent resolves
    // the same key from disk without simulating.
    let addr_b = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client_b = Client::connect(addr_b).unwrap();
    assert_eq!(client_b.run(&key).expect("disk-tier run"), first);
    assert_eq!(client_b.stat("simulated").unwrap(), 0);
    assert_eq!(client_b.stat("disk_hits").unwrap(), 1);
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
    assert!(client.stat("errors").unwrap() >= 4);

    // The retired text verb is just an unknown request, and its
    // connection survives too.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    writeln!(raw, "RUN {}", small_key(100)).unwrap();
    match read_response(&mut reader).unwrap() {
        Response::Err(msg) => assert!(msg.contains("unknown request"), "{msg}"),
        other => panic!("RUN must be refused: {other:?}"),
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
    assert_eq!(client.stat("simulated").unwrap(), 1);
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
    // Counted under its own STATS reason, distinct from plain errors.
    assert_eq!(client.stat("unknown_mitigation").unwrap(), 1);
    assert_eq!(client.stat("errors").unwrap(), 1);
    // A malformed key is an error but NOT an unknown mitigation.
    let err = client.run_key_text("workload:missing-config").unwrap_err();
    assert!(err.to_string().contains("malformed"), "{err}");
    assert_eq!(client.stat("unknown_mitigation").unwrap(), 1);
    assert_eq!(client.stat("errors").unwrap(), 2);
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
    assert_eq!(client_b.stat("disk_hits").unwrap(), 0, "corrupt = miss");
    assert_eq!(client_b.stat("simulated").unwrap(), 1);
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
    assert!(client.health().unwrap().contains("chaos_killed=1"));
    assert_eq!(
        client.stat("simulated").unwrap(),
        1,
        "the re-driven flight simulates once; everyone else shares it"
    );
}

#[test]
fn health_reports_status_and_load_signals() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let health = client.health().expect("health");
    let field = |name: &str| -> String {
        health
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("{name} missing in {health:?}"))
            .to_string()
    };
    assert_eq!(field("status"), "ok");
    assert!(field("workers").parse::<u64>().unwrap() >= 1);
    assert_eq!(field("active"), "0");
    assert_eq!(field("queue_depth"), "0");
    assert_eq!(field("in_flight"), "0");
    let _uptime: u64 = field("uptime_ms").parse().unwrap();
    // Chaos counters only appear when chaos is armed.
    assert!(!health.contains("chaos_"), "quiet server, quiet health");
}

/// `queue_depth` counts misses the dispatch pool has not taken yet: with
/// one worker stalled on a delayed miss, the other distinct misses wait
/// in the queue, and `HEALTH` (answered inline) sees them there.
#[test]
fn health_reports_the_dispatch_queue_depth() {
    let addr = spawn_server(ServerConfig {
        workers: 1,
        chaos: Some(ChaosSpec::parse("1:delay=1/250").unwrap()),
        ..ServerConfig::default()
    });
    let queue_depth = || {
        let health = Client::connect(addr).unwrap().health().unwrap();
        health
            .lines()
            .find_map(|l| l.strip_prefix("queue_depth="))
            .unwrap_or_else(|| panic!("queue_depth missing in {health:?}"))
            .parse::<u64>()
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

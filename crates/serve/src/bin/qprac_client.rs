//! The `qprac-client` command-line client.
//!
//! ```text
//! qprac-client [--addr host:port] <command>
//!
//! commands:
//!   ping           liveness probe (exit 0 iff the server answers)
//!   metrics        print the server's counters, gauges and latency
//!                  histograms as Prometheus text (METRICS verb)
//!   shutdown       ask the server to drain and exit gracefully
//!   run <key>      submit one canonical run key, print the payload
//!   batch          read keys from stdin (one per line), submit each in
//!                  order, print `=== <key>` headers + payloads
//! ```
//!
//! The address defaults to `QPRAC_REMOTE` (first shard if it is a
//! comma-separated list), then `127.0.0.1:7117` — the same knob the
//! bench runner uses, so `QPRAC_REMOTE=host:port qprac-client metrics`
//! inspects exactly the server a sweep talks to. One counter is one
//! line of that text: `qprac-client metrics | grep '^qprac_simulated_total '`.
//!
//! Every connect, read and write is bounded by `QPRAC_REMOTE_TIMEOUT_MS`
//! (the runner's knob, 30 s by default), so a shard that accepts and
//! never answers makes the client exit nonzero instead of hanging.

use std::io::BufRead;
use std::process::ExitCode;

use qprac_serve::{timeout_from_env, Client, DEFAULT_ADDR};

fn usage() -> ExitCode {
    eprintln!("usage: qprac-client [--addr host:port] <ping|metrics|shutdown|run <key>|batch>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = sim::env_opt("QPRAC_REMOTE")
        .and_then(|list| {
            list.split(',')
                .map(str::trim)
                .find(|s| !s.is_empty())
                .map(String::from)
        })
        .unwrap_or_else(|| DEFAULT_ADDR.to_string());
    if args.first().map(String::as_str) == Some("--addr") {
        if args.len() < 2 {
            return usage();
        }
        addr = args[1].clone();
        args.drain(..2);
    }
    let Some(command) = args.first().cloned() else {
        return usage();
    };
    let mut client = match Client::connect_timeout(addr.as_str(), timeout_from_env()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("qprac-client: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match (command.as_str(), args.get(1)) {
        ("ping", None) => client.ping().map(|()| println!("pong from {addr}")),
        ("metrics", None) => client.metrics().map(|s| print!("{s}")),
        ("shutdown", None) => client.shutdown().map(|()| println!("draining {addr}")),
        ("run", Some(key)) => client.run_key_text(key).map(|r| {
            println!("{}", r.payload());
        }),
        ("batch", None) => {
            let stdin = std::io::stdin();
            let mut failed = 0usize;
            for line in stdin.lock().lines() {
                let Ok(key) = line else { break };
                let key = key.trim();
                if key.is_empty() {
                    continue;
                }
                println!("=== {key}");
                match client.run_key_text(key) {
                    Ok(r) => println!("{}", r.payload()),
                    Err(e) => {
                        failed += 1;
                        println!("error: {e}");
                    }
                }
            }
            if failed == 0 {
                Ok(())
            } else {
                Err(qprac_serve::ClientError::Server(format!(
                    "{failed} batch key(s) failed"
                )))
            }
        }
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qprac-client: {e}");
            ExitCode::FAILURE
        }
    }
}

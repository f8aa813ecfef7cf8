//! Remote sweep: drive a mitigation comparison through the
//! `qprac-serve` simulation service instead of simulating in-process.
//!
//! The example spins up an in-process server on an ephemeral port (so
//! it is self-contained), but the client code is exactly what you would
//! run against a long-lived daemon started with
//! `cargo run --release -p qprac-serve --bin qprac-serve` — point
//! `Client::connect` (or the bench binaries via `QPRAC_REMOTE`) at its
//! address. Note how the second sweep costs no simulations at all: the
//! server answers every cell from its in-memory cache, and concurrent
//! clients asking for the same cell coalesce onto one run.
//!
//! ```sh
//! cargo run --release --example remote_sweep
//! ```

use qprac_serve::{Client, Server, ServerConfig};
use sim::{CellResult, MitigationKind, RunKey, SystemConfig};

fn main() {
    // A real deployment runs `qprac-serve` as its own process; binding
    // in-process keeps the example runnable with no setup.
    let addr = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server");
    println!("qprac-serve listening on {addr}\n");

    let instr = sim::env_u64("QPRAC_INSTR", 20_000);
    let designs = [
        ("baseline", MitigationKind::None),
        ("QPRAC", MitigationKind::Qprac),
        ("QPRAC+Pro-EA", MitigationKind::QpracProactiveEa),
    ];
    let workload = "ycsb/a_like";

    for pass in ["cold", "warm"] {
        let mut client = Client::connect(addr).expect("connect");
        let t0 = std::time::Instant::now();
        let mut baseline_ipc = 0.0;
        println!("{pass} sweep of {workload} ({instr} instrs/core):");
        for (label, mitigation) in designs {
            let cfg = SystemConfig::paper_default()
                .with_mitigation(mitigation)
                .with_instruction_limit(instr);
            // The wire request is nothing but the canonical run key;
            // the response payload is the lossless RunStats text form.
            let key = RunKey::workload(&cfg, workload);
            let CellResult::Stats(stats) = client.run(&key).expect("remote run") else {
                panic!("workload cell must return stats");
            };
            if mitigation == MitigationKind::None {
                baseline_ipc = stats.ipc_sum();
            }
            println!(
                "  {label:<13} IPC sum {:.3}  (normalized {:.4}, {} alerts)",
                stats.ipc_sum(),
                stats.ipc_sum() / baseline_ipc,
                stats.device.alerts,
            );
        }
        let mut counter = |name: &str| client.stat(name).expect("server counter");
        let (simulated, mem_hits, coalesced) = (
            counter("qprac_simulated_total"),
            counter("qprac_mem_hits_total"),
            counter("qprac_coalesced_total"),
        );
        println!(
            "  -> {:.2?}; server: simulated={simulated} mem_hits={mem_hits} coalesced={coalesced}\n",
            t0.elapsed(),
        );
    }
}

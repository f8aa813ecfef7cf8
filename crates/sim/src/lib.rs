//! # sim
//!
//! The full-system simulator of the QPRAC reproduction: trace-driven
//! out-of-order cores, shared LLC, FR-FCFS memory controller and the
//! PRAC-enabled DRAM device with a hosted Rowhammer mitigation.
//!
//! - [`SystemConfig`]/[`MitigationKind`] select the evaluated design
//!   (paper §V);
//! - [`System`] binds the substrates and runs until every core retires
//!   its instruction budget;
//! - [`run_workload`] is the one-call entry used by the figure binaries;
//! - [`attack`] implements the §VI-E multi-bank performance attack
//!   (Fig 19).
//!
//! ## Example
//!
//! ```
//! use sim::{run_workload, MitigationKind, SystemConfig};
//! use cpu_model::WorkloadSpec;
//!
//! let cfg = SystemConfig::paper_default()
//!     .with_mitigation(MitigationKind::Qprac)
//!     .with_instruction_limit(3_000);
//! let stats = run_workload(&cfg, &WorkloadSpec::by_name("ycsb/c_like").unwrap());
//! assert!(stats.ipc_sum() > 0.0);
//! ```

pub mod attack;
pub mod codec;
pub mod config;
pub mod runcache;
pub mod runkey;
pub mod serdes;
pub mod stats;
pub mod system;

pub use attack::{run_bandwidth_attack, run_bandwidth_attack_with, BwAttackStats};
pub use codec::{decode_cell, encode_cell};
pub use config::{env_dir, env_flag, env_opt, env_u64, env_usize, MitigationKind, SystemConfig};
pub use dram_core::{EventKind, Recorder, TraceHandle};
pub use runcache::{GcReport, RunCache};
pub use runkey::{CellSpec, KeyError, RunKey};
pub use serdes::CellResult;
pub use stats::{geomean, RunStats};
pub use system::System;

use cpu_model::{TraceSource, WorkloadMix, WorkloadSpec};

/// Run `cfg.cores` homogeneous copies of `workload` and return the run
/// statistics (the paper's methodology: four copies per workload).
pub fn run_workload(cfg: &SystemConfig, workload: &WorkloadSpec) -> RunStats {
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(workload.source(i as u64)) as Box<dyn TraceSource>)
        .collect();
    System::new(cfg.clone(), traces, workload.params.mlp).run()
}

/// Run a workload under a mitigation and under the insecure baseline,
/// returning `(mitigated, baseline)` — the pair every performance figure
/// needs.
pub fn run_vs_baseline(cfg: &SystemConfig, workload: &WorkloadSpec) -> (RunStats, RunStats) {
    let base_cfg = cfg.clone().with_mitigation(MitigationKind::None);
    let mitigated = run_workload(cfg, workload);
    let baseline = run_workload(&base_cfg, workload);
    (mitigated, baseline)
}

/// Run a heterogeneous multi-programmed mix: core `i` runs `mix`'s
/// `i`-th workload with that workload's own MLP cap. The mix must have
/// exactly `cfg.cores` slots.
pub fn run_mix(cfg: &SystemConfig, mix: &WorkloadMix) -> RunStats {
    let specs = mix.specs();
    assert_eq!(
        specs.len(),
        cfg.cores,
        "mix {} has {} slots but the system has {} cores",
        mix.name,
        specs.len(),
        cfg.cores
    );
    let traces: Vec<Box<dyn TraceSource>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
        .collect();
    let mlps: Vec<usize> = specs.iter().map(|spec| spec.params.mlp).collect();
    System::new_with_mlps(cfg.clone(), traces, &mlps).run()
}

/// The "alone" IPC of one workload: a single core running it with the
/// whole memory system to itself, under the same configuration (channel
/// count, timings, mitigation). This is the denominator of the weighted
/// speedup metric for heterogeneous mixes.
pub fn run_alone_ipc(cfg: &SystemConfig, workload: &WorkloadSpec) -> f64 {
    let alone_cfg = SystemConfig {
        cores: 1,
        ..cfg.clone()
    };
    run_workload(&alone_cfg, workload).core_ipc[0]
}

//! # qprac-bench
//!
//! Benchmark harness and figure/table regeneration for the QPRAC
//! reproduction. One binary, `run_all`, regenerates the paper's
//! figures and tables: `run_all fig14_15 table03` runs the named
//! specs, bare `run_all` the whole sweep (see
//! [`experiments::run_all_specs`] for the names). `load_test` and
//! `trace_smoke` drive a `qprac-serve` cluster and the event tracer;
//! Criterion micro-benchmarks live in `benches/`.
//!
//! Every figure/table is declared as an [`ExperimentSpec`] (a grid of
//! [`Job`] cells plus an emitter returning [`Table`]s) in [`experiments`]; the
//! [`runner`] dedupes cells globally by `sim::RunKey`, resolves them
//! from the optional persistent cache (`QPRAC_RUN_CACHE`), executes the
//! remainder through a pluggable [`CellExecutor`] — the in-process work
//! pool (`QPRAC_JOBS` caps its width) or a shared `qprac-serve` daemon
//! (`QPRAC_REMOTE=host:port`) — and writes each spec's tables. `run_all`
//! schedules all selected specs' cells together, so cells shared across
//! figures — notably the unmitigated baselines — simulate exactly
//! once. See README "Experiment orchestration" and "Simulation
//! service".
//!
//! Every spec prints its regenerated series and writes CSVs to
//! `results/` (override with `QPRAC_RESULTS_DIR`). Simulation length is
//! controlled by `QPRAC_INSTR` (instructions per core, default 100000);
//! `QPRAC_FULL_SUITE=1` makes the sensitivity figures use all 57
//! workloads instead of the 12-workload representative subset.

pub mod csv;
pub mod experiments;
pub mod harness;
pub mod profile;
pub mod runner;
pub mod spec;

pub use csv::Table;
pub use runner::{
    execute, execute_with, executor_from_env, scrape_cluster, scrape_cluster_from_env, tables_with,
    write_cluster_metrics, CellExecutor, FaultStats, LocalExecutor, RemoteExecutor, RunReport,
};
pub use spec::{ExperimentSpec, Job, JobResult, ResultSet};

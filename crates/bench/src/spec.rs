//! Declarative experiment specs.
//!
//! A figure or table is an [`ExperimentSpec`]: a list of [`Job`] cells
//! (the simulations and attack-engine runs it needs, each plain data
//! named by its [`RunKey`]) plus a pure `emit` closure that turns the
//! resolved [`ResultSet`] into [`Table`]s.
//! Specs never run or write anything themselves — the [`crate::runner`]
//! collects every spec's cells, dedupes them globally by [`RunKey`],
//! executes the union once through one work pool (with an optional
//! persistent cache), calls each spec's emitter in order, and writes
//! every table it gets back as a CSV and a stdout block.
//!
//! Adding a new figure is therefore a spec constructor, listed in
//! [`crate::experiments::run_all_specs`], which makes it runnable as
//! `run_all <name>` and puts it under the `bin_smoke` suite. A figure
//! that measures designs against the insecure baseline over a workload
//! set is a [`crate::sweep::Sweep`]: it lists its designs, and the sweep
//! derives the cells and computes the aggregates. Other cell kinds
//! (mixes, bandwidth attacks, attack-engine runs) are listed as `jobs`
//! directly and looked up in the [`ResultSet`] by the same values. See
//! `experiments/perf_figs.rs` for templates and the README section
//! "Experiment orchestration".

use std::collections::HashMap;

use attack_engine::EngineSpec;
use cpu_model::{WorkloadMix, WorkloadSpec};
use sim::{BwAttackStats, RunKey, RunStats, SystemConfig};

use crate::csv::Table;

/// One schedulable cell of an experiment: the shared [`sim::CellSpec`]
/// (a workload, mix, bandwidth-attack or attack-engine cell), so the
/// same declarative value is keyed, cached, run in the pool and shipped
/// to `qprac-serve`.
pub use sim::CellSpec as Job;

/// The value a [`Job`] produces: the shared [`sim::CellResult`] that
/// flows through the in-process pool, the persistent [`sim::RunCache`]
/// files and the `qprac-serve` wire protocol.
pub use sim::CellResult as JobResult;

/// An emitter: one spec's tables, computed from resolved cells.
pub type EmitFn = Box<dyn Fn(&ResultSet) -> Vec<Table>>;

/// One declared figure/table.
pub struct ExperimentSpec {
    /// The name `run_all` selects the spec by (unique across
    /// `run_all_specs()`; usually the CSV stem).
    pub name: &'static str,
    /// Every cell the emitter will look up. Cells may repeat across
    /// specs (and within one) — the runner dedupes globally.
    pub jobs: Vec<Job>,
    /// Builds the spec's tables from the resolved cells. Must only
    /// request cells listed in `jobs`.
    pub emit: EmitFn,
}

impl ExperimentSpec {
    /// Build a spec. `jobs` may be empty for purely analytical figures.
    pub fn new(
        name: &'static str,
        jobs: Vec<Job>,
        emit: impl Fn(&ResultSet) -> Vec<Table> + 'static,
    ) -> Self {
        ExperimentSpec {
            name,
            jobs,
            emit: Box::new(emit),
        }
    }
}

impl std::fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("name", &self.name)
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

/// Resolved cells, indexed by canonical key. Emitters look their cells
/// up with the same `(config, ...)` values they declared.
pub struct ResultSet<'a> {
    map: &'a HashMap<RunKey, JobResult>,
}

impl<'a> ResultSet<'a> {
    /// Wrap a resolved key → result map.
    pub fn new(map: &'a HashMap<RunKey, JobResult>) -> Self {
        ResultSet { map }
    }

    fn get(&self, key: &RunKey) -> &JobResult {
        self.map.get(key).unwrap_or_else(|| {
            panic!("cell {key} was not declared in any spec's job list");
        })
    }

    /// Stats of a workload cell.
    pub fn stats(&self, cfg: &SystemConfig, workload: &WorkloadSpec) -> &RunStats {
        match self.get(&RunKey::workload(cfg, workload.name)) {
            JobResult::Stats(s) => s,
            other => panic!("cell type mismatch for workload cell: {other:?}"),
        }
    }

    /// Stats of a mix cell.
    pub fn mix(&self, cfg: &SystemConfig, mix: &WorkloadMix) -> &RunStats {
        match self.get(&RunKey::mix(cfg, mix.name)) {
            JobResult::Stats(s) => s,
            other => panic!("cell type mismatch for mix cell: {other:?}"),
        }
    }

    /// Result of a bandwidth-attack cell.
    pub fn attack(&self, cfg: &SystemConfig, banks: usize, window: u64) -> &BwAttackStats {
        match self.get(&RunKey::attack(cfg, banks, window)) {
            JobResult::Attack(s) => s,
            other => panic!("cell type mismatch for attack cell: {other:?}"),
        }
    }

    /// Count of an attack-engine cell.
    pub fn engine(&self, spec: EngineSpec) -> u64 {
        match self.get(&Job::from(spec).key()) {
            JobResult::Count(c) => *c,
            other => panic!("cell type mismatch for engine cell {spec:?}: {other:?}"),
        }
    }
}

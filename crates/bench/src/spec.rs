//! Declarative experiment specs.
//!
//! A figure or table is an [`ExperimentSpec`]: a list of [`Job`] cells
//! (the simulations and attack-engine runs it needs, each plain data
//! named by its `sim::RunKey`) plus a pure `emit` closure that turns
//! the results of exactly those cells into [`Table`]s. The emitter gets
//! one result per job, in `jobs` order (a job listed twice gets its
//! result twice), so it reads its cells by position and never names a
//! cell a second time; each result's kind is checked by its
//! [`JobResult::stats`]/[`attack`](JobResult::attack)/
//! [`count`](JobResult::count) accessor.
//! Specs never run or write anything themselves — the [`crate::runner`]
//! collects every spec's cells, dedupes them globally by key, executes
//! the union once through one work pool (with an optional persistent
//! cache), calls each spec's emitter with its own results, in order,
//! and writes every table it gets back as a CSV and a stdout block.
//!
//! Adding a new figure is therefore a spec constructor, listed in
//! [`crate::experiments::run_all_specs`], which makes it runnable as
//! `run_all <name>` and puts it under the `bin_smoke` suite. A figure
//! that measures designs against the insecure baseline over a workload
//! set is a [`crate::sweep::Sweep`]: it lists its designs, and the sweep
//! derives the cells and computes the aggregates. Other cell kinds
//! (mixes, bandwidth attacks, attack-engine runs) are listed as `jobs`
//! directly, usually by mapping a grid, and the emitter zips the same
//! grid with its results. See `experiments/security_figs.rs` for
//! templates and the README section "Experiment orchestration".

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

/// An emitter: one spec's tables, computed from the results of its
/// jobs, one per job in `jobs` order.
pub type EmitFn = Box<dyn Fn(&[&JobResult]) -> Vec<Table>>;

/// One declared figure/table.
pub struct ExperimentSpec {
    /// The name `run_all` selects the spec by (unique across
    /// `run_all_specs()`; usually the CSV stem).
    pub name: &'static str,
    /// Every cell the emitter reads. Cells may repeat across specs (and
    /// within one) — the runner dedupes globally.
    pub jobs: Vec<Job>,
    /// Builds the spec's tables from its jobs' results, given in `jobs`
    /// order.
    pub emit: EmitFn,
}

impl ExperimentSpec {
    /// Build a spec. `jobs` may be empty for purely analytical figures.
    pub fn new(
        name: &'static str,
        jobs: Vec<Job>,
        emit: impl Fn(&[&JobResult]) -> Vec<Table> + 'static,
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

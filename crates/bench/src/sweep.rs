//! Design × workload sweeps: the one shape behind Figs 14–18, 20–22,
//! Table III, the opportunistic-bit ablation and the mitigation arena.
//!
//! A [`Sweep`] declares a workload set and a list of labelled designs.
//! Every design is paired with its baseline by one rule: the same
//! config with `MitigationKind::None`. The sweep derives the spec's
//! cells from that pairing — each distinct design and baseline config
//! (distinct as its `RunKey` sees it, [`SystemConfig::canonical`]) once
//! per workload — so baselines shared by many designs are declared
//! once. Its emitter sees a [`SweepResults`], built straight from the
//! spec's results in job order, which reads a [`Metric`] of one design
//! against its baseline per workload and folds it with one [`Agg`]
//! rule; a figure only picks rows, columns and labels, and cannot read
//! a cell it did not declare.

use cpu_model::WorkloadSpec;
use sim::{geomean, MitigationKind, RunStats, SystemConfig};

use crate::csv::{f, Table};
use crate::spec::{ExperimentSpec, Job, JobResult};

/// A per-workload quantity of a design, read from its run and its
/// baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Performance normalized to the baseline run.
    NormPerf,
    /// Alerts per tREFI of the design's run.
    AlertsPerTrefi,
    /// Energy over the baseline's, as a fraction of the baseline's.
    EnergyOverhead,
    /// Row-buffer misses per kilo-instruction of the baseline run.
    BaseRbmpki,
}

/// How a metric is folded over a workload set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// [`sim::geomean`] in workload order.
    Geomean,
    /// The sum in workload order divided by the count (by 1 when the
    /// set is empty).
    Mean,
}

/// The workloads an aggregate covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subset {
    /// Every workload of the sweep.
    All,
    /// The memory-intensive ones: baseline rbmpki >= 2.
    MemIntensive,
}

impl Subset {
    /// The name aggregate rows carry.
    pub fn label(self) -> &'static str {
        match self {
            Subset::All => "all",
            Subset::MemIntensive => "rbmpki>=2",
        }
    }
}

/// A workload set × a list of `(label, config)` designs, each measured
/// against its unmitigated baseline.
pub struct Sweep {
    workloads: Vec<WorkloadSpec>,
    labels: Vec<String>,
    /// The distinct configs the sweep runs, each once per workload.
    cells: Vec<SystemConfig>,
    /// Per design: its cell and its baseline's cell in `cells`.
    pairs: Vec<(usize, usize)>,
}

impl Sweep {
    /// Declare `designs` over `workloads`, both in output order.
    pub fn new(
        workloads: &[WorkloadSpec],
        designs: impl IntoIterator<Item = (String, SystemConfig)>,
    ) -> Sweep {
        let mut sweep = Sweep {
            workloads: workloads.to_vec(),
            labels: Vec::new(),
            cells: Vec::new(),
            pairs: Vec::new(),
        };
        let mut canonical = Vec::new();
        let mut cell = |cfg: SystemConfig, cells: &mut Vec<SystemConfig>| {
            let c = cfg.canonical();
            canonical.iter().position(|k| *k == c).unwrap_or_else(|| {
                canonical.push(c);
                cells.push(cfg);
                cells.len() - 1
            })
        };
        for (label, cfg) in designs {
            let base = SystemConfig {
                mitigation: MitigationKind::None,
                ..cfg.clone()
            };
            let base = cell(base, &mut sweep.cells);
            let run = cell(cfg, &mut sweep.cells);
            sweep.labels.push(label);
            sweep.pairs.push((run, base));
        }
        sweep
    }

    /// The spec `name` running this sweep's cells, workload-major (cell
    /// `c` on workload `w` is job `w * cells + c`); `emit` builds its
    /// tables from the resolved sweep.
    pub fn spec(
        self,
        name: &'static str,
        emit: impl Fn(&SweepResults) -> Vec<Table> + 'static,
    ) -> ExperimentSpec {
        let jobs = self
            .workloads
            .iter()
            .flat_map(|w| {
                self.cells.iter().map(|cfg| Job::Workload {
                    cfg: cfg.clone(),
                    workload: w.clone(),
                })
            })
            .collect();
        ExperimentSpec::new(name, jobs, move |r| emit(&SweepResults::new(&self, r)))
    }
}

/// A sweep's resolved cells, read by design and workload index.
pub struct SweepResults<'a> {
    sweep: &'a Sweep,
    /// `stats[w * cells + c]` is cell `c` on workload `w`.
    stats: Vec<&'a RunStats>,
}

impl<'a> SweepResults<'a> {
    fn new(sweep: &'a Sweep, results: &[&'a JobResult]) -> Self {
        let stats = results.iter().map(|cell| cell.stats()).collect();
        SweepResults { sweep, stats }
    }

    /// The design labels, in declaration order.
    pub fn labels(&self) -> &'a [String] {
        &self.sweep.labels
    }

    /// The workloads, in declaration order.
    pub fn workloads(&self) -> &'a [WorkloadSpec] {
        &self.sweep.workloads
    }

    /// `metric` of design `d` on workload `w`.
    pub fn value(&self, d: usize, w: usize, metric: Metric) -> f64 {
        let (run, base) = self.sweep.pairs[d];
        let row = w * self.sweep.cells.len();
        let (s, b) = (self.stats[row + run], self.stats[row + base]);
        match metric {
            Metric::NormPerf => s.normalized_perf(b),
            Metric::AlertsPerTrefi => s.alerts_per_trefi(),
            Metric::EnergyOverhead => s.energy.overhead_vs(&b.energy),
            Metric::BaseRbmpki => b.rbmpki(),
        }
    }

    /// The workloads of `subset` for design `d`, in order.
    pub fn members(&self, d: usize, subset: Subset) -> Vec<usize> {
        (0..self.sweep.workloads.len())
            .filter(|&w| subset == Subset::All || self.value(d, w, Metric::BaseRbmpki) >= 2.0)
            .collect()
    }

    /// `agg` of `metric` of design `d` over `subset`.
    pub fn agg(&self, d: usize, metric: Metric, agg: Agg, subset: Subset) -> f64 {
        let members = self.members(d, subset);
        let values = members.iter().map(|&w| self.value(d, w, metric));
        match agg {
            Agg::Geomean => geomean(values),
            Agg::Mean => values.sum::<f64>() / members.len().max(1) as f64,
        }
    }

    /// One row per design: its label, geomean normalized performance
    /// over every workload and the slowdown in percent.
    pub fn slowdown_table(&self, name: &str, title: &str) -> Table {
        let mut t = Table::new(name, title, &["config", "norm_perf", "slowdown_pct"]);
        for (d, label) in self.labels().iter().enumerate() {
            let gm = self.agg(d, Metric::NormPerf, Agg::Geomean, Subset::All);
            t.rows.push([vec![label.clone()], perf_cols(gm)].concat());
        }
        t
    }
}

/// The `norm_perf` and `slowdown_pct` columns of a normalized
/// performance.
pub fn perf_cols(perf: f64) -> Vec<String> {
    vec![f(perf), f((1.0 - perf) * 100.0)]
}

/// A fraction written as a percentage column.
pub fn pct(fraction: f64) -> String {
    f(fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn designs() -> Vec<(String, SystemConfig)> {
        let cfg = |kind, nbo| {
            SystemConfig::paper_default()
                .with_mitigation(kind)
                .with_nbo(nbo)
        };
        vec![
            ("qprac".into(), cfg(MitigationKind::Qprac, 32)),
            ("qprac16".into(), cfg(MitigationKind::Qprac, 16)),
            ("none".into(), cfg(MitigationKind::None, 16)),
            ("again".into(), cfg(MitigationKind::Qprac, 32)),
        ]
    }

    /// Baselines that differ only in knobs `None` ignores, and designs
    /// that repeat, are one cell each.
    #[test]
    fn cells_are_distinct_run_keys() {
        let sweep = Sweep::new(&cpu_model::all57()[..2], designs());
        assert_eq!(sweep.cells.len(), 3, "baseline, N_BO=32 and N_BO=16");
        assert_eq!(sweep.pairs, [(1, 0), (2, 0), (0, 0), (1, 0)]);
        let spec = sweep.spec("unit", |_| Vec::new());
        assert_eq!(spec.jobs.len(), 6);
        let keys: std::collections::HashSet<_> = spec.jobs.iter().map(Job::key).collect();
        assert_eq!(keys.len(), 6);
    }

    /// Every metric and aggregate is read against the design's own
    /// baseline: Mithril at plain DDR5 timings against a plain-timing
    /// baseline, QPRAC against the PRAC-timing one. The PRAC baseline of
    /// the second workload is edited to zero activations, which puts
    /// that workload outside QPRAC's memory-intensive subset.
    #[test]
    fn each_design_is_measured_against_its_own_baseline() {
        let cfg = |kind| {
            SystemConfig::paper_default()
                .with_mitigation(kind)
                .with_instruction_limit(400)
        };
        let mithril = SystemConfig {
            plain_timing: true,
            ..cfg(MitigationKind::Mithril { trh: 64 })
        };
        let qprac = cfg(MitigationKind::Qprac).with_nbo(16);
        let workloads =
            ["spec06/mcf_like", "ycsb/a_like"].map(|n| WorkloadSpec::by_name(n).unwrap());
        let metrics = [
            Metric::NormPerf,
            Metric::AlertsPerTrefi,
            Metric::EnergyOverhead,
            Metric::BaseRbmpki,
        ];
        let designs = [
            ("mithril".into(), mithril.clone()),
            ("qprac".into(), qprac.clone()),
        ];
        let spec = Sweep::new(&workloads, designs).spec("unit", move |v| {
            let mut t = Table::new("unit", "", &[]);
            for d in 0..2 {
                for w in 0..2 {
                    t.rows
                        .push(metrics.map(|m| format!("{:?}", v.value(d, w, m))).to_vec());
                }
                for agg in [Agg::Geomean, Agg::Mean] {
                    t.rows.push(
                        [Subset::All, Subset::MemIntensive]
                            .map(|sub| format!("{:?}", v.agg(d, Metric::NormPerf, agg, sub)))
                            .to_vec(),
                    );
                }
            }
            vec![t]
        });
        assert_eq!(
            spec.jobs.len(),
            8,
            "two baselines and two designs per workload"
        );
        let mut results: Vec<JobResult> = spec.jobs.iter().map(Job::run).collect();
        // The oracle finds each cell by its key, not by the sweep's order.
        let at = |cfg: &SystemConfig, w: &WorkloadSpec| {
            let key = sim::RunKey::workload(cfg, w.name);
            spec.jobs.iter().position(|j| j.key() == key).unwrap()
        };
        let prac_base = SystemConfig {
            mitigation: MitigationKind::None,
            ..qprac.clone()
        };
        match &mut results[at(&prac_base, &workloads[1])] {
            JobResult::Stats(s) => s.device.acts = 0,
            other => panic!("{other:?}"),
        }
        let got = (spec.emit)(&results.iter().collect::<Vec<_>>())
            .remove(0)
            .rows;

        let (mut want, mut subset_sizes) = (Vec::new(), Vec::new());
        for design in [&mithril, &qprac] {
            let base = SystemConfig {
                mitigation: MitigationKind::None,
                ..design.clone()
            };
            let runs: Vec<_> = workloads
                .iter()
                .map(|w| {
                    (
                        results[at(design, w)].stats(),
                        results[at(&base, w)].stats(),
                    )
                })
                .collect();
            for (s, b) in &runs {
                let row = [
                    s.normalized_perf(b),
                    s.alerts_per_trefi(),
                    s.energy.overhead_vs(&b.energy),
                    b.rbmpki(),
                ];
                want.push(row.map(|x| format!("{x:?}")).to_vec());
            }
            let perf: Vec<f64> = runs.iter().map(|(s, b)| s.normalized_perf(b)).collect();
            let mem: Vec<f64> = runs
                .iter()
                .filter(|(_, b)| b.rbmpki() >= 2.0)
                .map(|(s, b)| s.normalized_perf(b))
                .collect();
            subset_sizes.push(mem.len());
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            want.push(
                [geomean(perf.clone()), geomean(mem.clone())]
                    .map(|x| format!("{x:?}"))
                    .to_vec(),
            );
            want.push([mean(&perf), mean(&mem)].map(|x| format!("{x:?}")).to_vec());
        }
        assert_eq!(subset_sizes, [2, 1]);
        assert_eq!(got, want);
    }
}

//! The cross-paper head-to-head arena: every mitigation the registry
//! knows, replayed over the same headline workload set and scored
//! against one shared unmitigated baseline per workload.
//!
//! The spec is registry-driven end to end — a design added to
//! `mitigations::registry()` shows up here with zero bench edits. The
//! designs form one [`Sweep`], so every design's baseline is its config
//! with `MitigationKind::None`: one cell per workload, the registry's
//! own `none` entry included, which the runner's global RunKey dedupe
//! shares with every other figure in the same pass.
//!
//! Output: one `compare_<stem>.csv` per design (per-workload normalized
//! performance and alert pressure) plus `compare_summary.csv`, the
//! cross-design table joining measured slowdown with the registry's
//! analytical columns — storage cost, provable T_RH bound and the
//! guaranteed tREFI mitigation tax.

use cpu_model::WorkloadSpec;
use mitigations::TrackerParams;
use sim::SystemConfig;

use crate::csv::{f, Table};
use crate::spec::ExperimentSpec;
use crate::sweep::{perf_cols, Agg, Metric, Subset, Sweep};

/// The arena spec over `workloads` (the sensitivity suite in
/// `compare_mitigations` and `run_all`; anything in tests).
pub fn compare_mitigations_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let designs = mitigations::registry().iter().map(|spec| {
        let cfg = SystemConfig::paper_default().with_mitigation(spec.default_kind);
        (spec.stem.to_string(), cfg)
    });
    Sweep::new(workloads, designs).spec("compare_mitigations", |v| {
        let mut summary = Table::new(
            "compare_summary",
            "Mitigation arena: every registered design vs the shared insecure baseline",
            &[
                "design",
                "label",
                "paper",
                "storage_bits_per_bank",
                "secure_trh",
                "trefi_tax_pct",
                "geomean_perf",
                "geomean_slowdown_pct",
            ],
        );
        let mut tables = Vec::new();
        for (d, spec) in mitigations::registry().iter().enumerate() {
            let mut per_design = Table::new(
                format!("compare_{}", spec.stem),
                format!("Mitigation arena: {} per workload", spec.label),
                &[
                    "workload",
                    "rbmpki",
                    "norm_perf",
                    "slowdown_pct",
                    "alerts_per_trefi",
                ],
            );
            for (w, workload) in v.workloads().iter().enumerate() {
                let mut row = vec![
                    workload.name.to_string(),
                    f(v.value(d, w, Metric::BaseRbmpki)),
                ];
                row.extend(perf_cols(v.value(d, w, Metric::NormPerf)));
                row.push(f(v.value(d, w, Metric::AlertsPerTrefi)));
                per_design.rows.push(row);
            }
            tables.push(per_design);
            let params = TrackerParams::paper_default(spec.default_kind);
            let sec = (spec.security)(&params);
            let trh = sec
                .secure_trh
                .map(|t| t.to_string())
                .unwrap_or_else(|| "none".into());
            let mut row = vec![
                spec.stem.to_string(),
                spec.label.to_string(),
                spec.paper.to_string(),
                spec.storage_bits(&params).to_string(),
                trh,
                f(sec.trefi_tax_pct),
            ];
            let gm = v.agg(d, Metric::NormPerf, Agg::Geomean, Subset::All);
            row.extend(perf_cols(gm));
            summary.rows.push(row);
        }
        tables.push(summary);
        tables
    })
}

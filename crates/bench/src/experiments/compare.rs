//! The cross-paper head-to-head arena: every mitigation the registry
//! knows, replayed over the same headline workload set and scored
//! against one shared unmitigated baseline per workload.
//!
//! The spec is registry-driven end to end — a design added to
//! `mitigations::registry()` shows up here with zero bench edits. The
//! unmitigated baseline cells carry `MitigationKind::None`, whose key
//! normalizes every tracker knob away, so the runner's global RunKey
//! dedupe simulates each baseline exactly once suite-wide no matter
//! how many designs (or other figures in the same pass) request it.
//!
//! Output: one `compare_<stem>.csv` per design (per-workload normalized
//! performance and alert pressure) plus `compare_summary.csv`, the
//! cross-design table joining measured slowdown with the registry's
//! analytical columns — storage cost, provable T_RH bound and the
//! guaranteed tREFI mitigation tax.

use cpu_model::WorkloadSpec;
use mitigations::TrackerParams;
use sim::{geomean, MitigationKind, SystemConfig};

use crate::csv::{f, Table};
use crate::spec::{ExperimentSpec, Job};

/// CSV-safe file stem for a design (`@` never appears in stems today,
/// but the registry allows future stems to be arbitrary tokens).
fn file_stem(stem: &str) -> String {
    stem.replace(['@', '/'], "_")
}

/// The arena spec over `workloads` (the sensitivity suite in
/// `compare_mitigations` and `run_all`; anything in tests).
pub fn compare_mitigations_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let workloads = workloads.to_vec();
    let base_cfg = SystemConfig::paper_default().with_mitigation(MitigationKind::None);
    let designs: Vec<_> = mitigations::registry()
        .iter()
        .map(|spec| {
            let cfg = SystemConfig::paper_default().with_mitigation(spec.default_kind);
            (spec, cfg)
        })
        .collect();
    let mut jobs = Vec::new();
    for w in &workloads {
        for (_, cfg) in &designs {
            jobs.push(Job::Workload {
                cfg: cfg.clone(),
                workload: w.clone(),
            });
        }
    }
    ExperimentSpec::new("compare_mitigations", jobs, move |r| {
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
        for (spec, cfg) in &designs {
            let mut per_design = Table::new(
                format!("compare_{}", file_stem(spec.stem)),
                format!("Mitigation arena: {} per workload", spec.label),
                &[
                    "workload",
                    "rbmpki",
                    "norm_perf",
                    "slowdown_pct",
                    "alerts_per_trefi",
                ],
            );
            let mut perfs = Vec::new();
            for w in &workloads {
                let base = r.stats(&base_cfg, w);
                let s = r.stats(cfg, w);
                let perf = s.normalized_perf(base);
                perfs.push(perf);
                per_design.rows.push(vec![
                    w.name.to_string(),
                    f(base.rbmpki()),
                    f(perf),
                    f((1.0 - perf) * 100.0),
                    f(s.alerts_per_trefi()),
                ]);
            }
            tables.push(per_design);
            let gm = geomean(perfs.iter().copied());
            let params = TrackerParams::paper_default(spec.default_kind);
            let sec = (spec.security)(&params);
            let trh = sec
                .secure_trh
                .map(|t| t.to_string())
                .unwrap_or_else(|| "none".into());
            summary.rows.push(vec![
                spec.stem.to_string(),
                spec.label.to_string(),
                spec.paper.to_string(),
                spec.storage_bits(&params).to_string(),
                trh,
                f(sec.trefi_tax_pct),
                f(gm),
                f((1.0 - gm) * 100.0),
            ]);
        }
        tables.push(summary);
        tables
    })
}

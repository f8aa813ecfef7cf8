//! Ablations of QPRAC's design choices, beyond the paper's figures (run
//! with `run_all ablation_psq_size ablation_opportunistic
//! ablation_tie_policy`).
//!
//! 1. **PSQ size vs security** — §III-E requires `psq_size >= N_mit`
//!    (and `>= N_mit + 1` with proactive mitigation). We run the wave
//!    attack against undersized queues and show the attack ceiling
//!    stays at the ideal-PRAC level for compliant sizes.
//! 2. **Opportunistic mitigation on/off** — the single design bit
//!    separating QPRAC from QPRAC-NoOp; quantifies §VI-A's mechanism.
//! 3. **Mitigation-to-insertion ratio** — how many tracked rows a PSQ
//!    loses when insertion requires strictly-greater counts (the paper's
//!    rule) versus greater-or-equal, under a tie-heavy uniform attack.

use attack_engine::EngineSpec;
use cpu_model::WorkloadSpec;
use dram_core::RowId;
use qprac::Psq;
use sim::{MitigationKind, SystemConfig};

use crate::csv::{f, Table};
use crate::spec::{ExperimentSpec, Job};

/// Ablation 1: wave-attack ceiling vs PSQ size for each PRAC level.
pub fn psq_size_security_spec() -> ExperimentSpec {
    let nbo = 32u32;
    let r1 = 1000u64;
    let grid: Vec<(u32, usize)> = [1u32, 2, 4]
        .iter()
        .flat_map(|&m| (1..=5usize).map(move |s| (m, s)))
        .collect();
    let cell = move |nmit, psq| EngineSpec::Wave { nmit, nbo, psq, r1 };
    let jobs = grid
        .iter()
        .map(|&(nmit, size)| cell(nmit, size).into())
        .collect();
    ExperimentSpec::new("ablation_psq_size", jobs, move |r| {
        let mut t = Table::new(
            "ablation_psq_size",
            "Ablation: wave-attack ceiling vs PSQ size (paper §III-E sizing rule)",
            &["nmit", "psq_size", "max_unmitigated"],
        );
        for &(nmit, size) in &grid {
            let max = r.engine(cell(nmit, size));
            t.rows
                .push(vec![nmit.to_string(), size.to_string(), max.to_string()]);
        }
        vec![t.with_note(
            "(sizes >= N_mit track the ideal-PRAC ceiling; the default 5 covers PRAC-4 + proactive)",
        )]
    })
}

/// Ablation 2: the opportunistic-mitigation bit, swept over N_BO.
pub fn opportunistic_bit_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let workloads = workloads.to_vec();
    let nbos = [16u32, 32, 64];
    let cfg_for = |kind: MitigationKind, nbo: u32| {
        SystemConfig::paper_default()
            .with_mitigation(kind)
            .with_nbo(nbo)
    };
    let mut jobs = Vec::new();
    for &nbo in &nbos {
        for spec in &workloads {
            for kind in [
                MitigationKind::None,
                MitigationKind::QpracNoOp,
                MitigationKind::Qprac,
            ] {
                jobs.push(Job::Workload {
                    cfg: cfg_for(kind, nbo),
                    workload: spec.clone(),
                });
            }
        }
    }
    ExperimentSpec::new("ablation_opportunistic", jobs, move |r| {
        let mut t = Table::new(
            "ablation_opportunistic",
            "Ablation: opportunistic mitigation on/off (QPRAC vs QPRAC-NoOp)",
            &[
                "nbo",
                "noop_alerts_per_trefi",
                "qprac_alerts_per_trefi",
                "noop_perf",
                "qprac_perf",
            ],
        );
        for &nbo in &nbos {
            let runs: Vec<(f64, f64, f64, f64)> = workloads
                .iter()
                .map(|spec| {
                    let base = r.stats(&cfg_for(MitigationKind::None, nbo), spec);
                    let noop = r.stats(&cfg_for(MitigationKind::QpracNoOp, nbo), spec);
                    let qprac = r.stats(&cfg_for(MitigationKind::Qprac, nbo), spec);
                    (
                        noop.alerts_per_trefi(),
                        qprac.alerts_per_trefi(),
                        noop.normalized_perf(base),
                        qprac.normalized_perf(base),
                    )
                })
                .collect();
            let n = runs.len() as f64;
            let avg = |g: fn(&(f64, f64, f64, f64)) -> f64| runs.iter().map(g).sum::<f64>() / n;
            let (na, qa) = (avg(|r| r.0), avg(|r| r.1));
            let (np, qp) = (avg(|r| r.2), avg(|r| r.3));
            t.rows
                .push(vec![nbo.to_string(), f(na), f(qa), f(np), f(qp)]);
        }
        vec![t.with_note("(the single opportunistic bit buys ~10x fewer alerts — §VI-A)")]
    })
}

/// Ablation 3: strict-greater vs greater-equal insertion under uniform
/// (tie-heavy) traffic: how often does each policy replace entries?
/// The paper's strict rule avoids thrashing the CAM on count ties while
/// tracking the same maxima. Pure PSQ arithmetic — no cells.
pub fn insertion_tie_policy_spec() -> ExperimentSpec {
    ExperimentSpec::new("ablation_tie_policy", Vec::new(), |_| {
        let mut t = Table::new(
            "ablation_tie_policy",
            "Ablation: PSQ insertion on count ties (strict '>' is the paper's rule)",
            &[
                "rows",
                "strict_max",
                "tie_insert_max",
                "strict_writes",
                "tie_writes",
            ],
        );
        for distinct_rows in [8u32, 32, 128] {
            // Uniform round-robin: every row always has the same count — the
            // worst case for tie handling.
            let mut strict = Psq::new(5);
            let mut tie = Psq::new(5);
            let mut strict_writes = 0u64;
            let mut tie_writes = 0u64;
            let mut counts = vec![0u32; distinct_rows as usize];
            for step in 0..50_000u32 {
                let r = step % distinct_rows;
                counts[r as usize] += 1;
                let c = counts[r as usize];
                if strict.offer(RowId(r), c) {
                    strict_writes += 1;
                }
                // Tie-insert emulation: bump the count by one on the offer so
                // equality becomes strictly-greater (inserting on ties is
                // equivalent to favoring the newcomer).
                if tie.offer(RowId(r), c + 1) {
                    tie_writes += 1;
                }
            }
            let (sm, tm) = (strict.max_count(), tie.max_count().saturating_sub(1));
            t.rows.push(vec![
                distinct_rows.to_string(),
                sm.to_string(),
                tm.to_string(),
                strict_writes.to_string(),
                tie_writes.to_string(),
            ]);
        }
        vec![t.with_note(
            "(both policies track the same maximum; under round-robin traffic the\n \
             write counts also match because in-place hit updates dominate — the\n \
             strict rule is therefore free, and it never displaces a tracked max)",
        )]
    })
}

/// All three ablations, in presentation order.
pub fn all_specs(workloads: &[WorkloadSpec]) -> Vec<ExperimentSpec> {
    vec![
        psq_size_security_spec(),
        opportunistic_bit_spec(workloads),
        insertion_tie_policy_spec(),
    ]
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::experiments::{run_all_specs, security_figs};

    fn keys(spec: &ExperimentSpec) -> HashSet<sim::RunKey> {
        spec.jobs.iter().map(Job::key).collect()
    }

    /// The PSQ ablation at the default size 5 and the wave validation
    /// at R1 = 1000 run the same attack, so they share their cells.
    #[test]
    fn psq_ablation_shares_the_wave_validation_cells() {
        let wave = keys(&security_figs::wave_validate_spec());
        let psq = keys(&psq_size_security_spec());
        let shared: HashSet<sim::RunKey> = [1, 2, 4]
            .map(|nmit| {
                Job::from(EngineSpec::Wave {
                    nmit,
                    nbo: 32,
                    psq: 5,
                    r1: 1000,
                })
                .key()
            })
            .into();
        assert_eq!(
            wave.intersection(&psq).cloned().collect::<HashSet<_>>(),
            shared
        );
        let engine_cells = run_all_specs()
            .iter()
            .flat_map(|s| s.jobs.iter().map(Job::key))
            .filter(|k| k.as_str().starts_with("engine:"))
            .collect::<HashSet<_>>()
            .len();
        assert_eq!(engine_cells, 98, "101 engine cells, 3 shared");
    }
}

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
//! 3. **Insertion on count ties** — meant to show how many tracked rows
//!    a PSQ loses when insertion requires strictly-greater counts (the
//!    paper's rule) versus greater-or-equal, under tie-heavy uniform
//!    traffic. Its greater-or-equal queue is only emulated, by a uniform
//!    count shift that leaves every decision unchanged, so both columns
//!    match by construction (see its note).

use attack_engine::EngineSpec;
use cpu_model::WorkloadSpec;
use dram_core::RowId;
use qprac::Psq;
use sim::{MitigationKind, SystemConfig};

use crate::csv::{f, Table};
use crate::spec::ExperimentSpec;
use crate::sweep::{Agg, Metric, Subset, Sweep};

/// Ablation 1: wave-attack ceiling vs PSQ size for each PRAC level.
pub fn psq_size_security_spec() -> ExperimentSpec {
    let nbo = 32u32;
    let r1 = 1000u64;
    let grid: Vec<(u32, usize)> = [1u32, 2, 4]
        .iter()
        .flat_map(|&m| (1..=5usize).map(move |s| (m, s)))
        .collect();
    let jobs = grid
        .iter()
        .map(|&(nmit, psq)| EngineSpec::Wave { nmit, nbo, psq, r1 }.into())
        .collect();
    ExperimentSpec::new("ablation_psq_size", jobs, move |r| {
        let mut t = Table::new(
            "ablation_psq_size",
            "Ablation: wave-attack ceiling vs PSQ size (paper §III-E sizing rule)",
            &["nmit", "psq_size", "max_unmitigated"],
        );
        for (&(nmit, size), max) in grid.iter().zip(r) {
            t.rows.push(vec![
                nmit.to_string(),
                size.to_string(),
                max.count().to_string(),
            ]);
        }
        vec![t.with_note(
            "(sizes >= N_mit track the ideal-PRAC ceiling; the default 5 covers PRAC-4 + proactive)",
        )]
    })
}

/// Ablation 2: the opportunistic-mitigation bit, swept over N_BO.
pub fn opportunistic_bit_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    // Per N_BO, QPRAC-NoOp then QPRAC, both labelled with the N_BO.
    let designs = [16u32, 32, 64].into_iter().flat_map(|nbo| {
        [MitigationKind::QpracNoOp, MitigationKind::Qprac].map(|kind| {
            let cfg = SystemConfig::paper_default()
                .with_mitigation(kind)
                .with_nbo(nbo);
            (nbo.to_string(), cfg)
        })
    });
    Sweep::new(workloads, designs).spec("ablation_opportunistic", |v| {
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
        for noop in (0..v.labels().len()).step_by(2) {
            let mut row = vec![v.labels()[noop].clone()];
            for metric in [Metric::AlertsPerTrefi, Metric::NormPerf] {
                row.extend([noop, noop + 1].map(|d| f(v.agg(d, metric, Agg::Mean, Subset::All))));
            }
            t.rows.push(row);
        }
        vec![t.with_note("(the single opportunistic bit buys ~10x fewer alerts — §VI-A)")]
    })
}

/// Ablation 3: strict-greater vs emulated greater-equal insertion under
/// uniform (tie-heavy) traffic. The emulation offers every count plus
/// one to a second strict queue; that shift preserves every `(count,
/// row)` comparison, so the two queues make the same decisions and the
/// columns agree by construction. Pure PSQ arithmetic — no cells.
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
                // equality becomes strictly-greater. The bump also applies to
                // hits and every tracked count, so it shifts all counts alike
                // and this queue decides exactly as the strict one does.
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
            "(the columns match by construction, not by measurement: the tie-insert\n \
             emulation adds 1 to every offer, hits included, and a uniform shift\n \
             preserves every (count, row) comparison, so both queues make identical\n \
             decisions on any traffic. A real tie-insert policy is not yet compared)",
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
    use crate::spec::Job;

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

    /// The whole sweep's cell population (sensitivity subset, not
    /// `QPRAC_FULL_SUITE`): every spec's cells, and the distinct run
    /// keys among them that the runner simulates. Sweeps declare a
    /// baseline shared by several of their designs once, so the cells
    /// fell from 2779 when each sensitivity config listed its own.
    #[test]
    fn run_all_declares_2059_cells_over_1465_keys() {
        let keys: Vec<sim::RunKey> = run_all_specs()
            .iter()
            .flat_map(|s| s.jobs.iter().map(Job::key))
            .collect();
        assert_eq!(keys.len(), 2059);
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 1465);
    }
}

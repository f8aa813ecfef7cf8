//! Security figures: Fig 2, 3, 6, 7, 8, 11, 12, 13, 23 plus the wave
//! validation (§IV-B).
//!
//! The attack-engine sweeps (Figs 2, 3, 23, wave validation) declare
//! their grid points as [`EngineSpec`] cells, which the cross-figure
//! runner keys, caches and schedules like any other cell; the
//! analytical figures carry no cells at all.

use attack_engine::EngineSpec;
use security_model::{max_r1, n_online, secure_trh, setup, trh_curve, PracModel};

use crate::csv::{f, Table};
use crate::spec::ExperimentSpec;

/// Fig 2: Toggle+Forget on Panopticon (simulated on the ACT engine).
pub fn fig02_spec() -> ExperimentSpec {
    let queues = [4usize, 6, 8, 10, 12, 14, 16];
    let tbits = [6u32, 8, 10];
    let grid: Vec<(usize, u32)> = queues
        .iter()
        .flat_map(|&q| tbits.iter().map(move |&t| (q, t)))
        .collect();
    let cell = |q, t| EngineSpec::ToggleForget { queue: q, tbit: t };
    let jobs = grid.iter().map(|&(q, t)| cell(q, t).into()).collect();
    ExperimentSpec::new("fig02", jobs, move |r| {
        let mut table = Table::new(
            "fig02",
            "Fig 2: Panopticon Toggle+Forget — max unmitigated ACTs to a row",
            &["queue_size", "tbit", "max_unmitigated_acts"],
        );
        for &(q, t) in &grid {
            let acts = r.engine(cell(q, t));
            table
                .rows
                .push(vec![q.to_string(), t.to_string(), acts.to_string()]);
        }
        vec![table.with_note("(paper: >100K at Q=4, ~25K at Q=16, threshold-independent)")]
    })
}

/// Fig 3: Fill+Escape on full-counter Panopticon.
pub fn fig03_spec() -> ExperimentSpec {
    let thresholds = [64u32, 128, 256, 512, 1024, 2048, 4096];
    let queues = [4usize, 8, 16, 32, 64];
    let grid: Vec<(usize, u32)> = queues
        .iter()
        .flat_map(|&q| thresholds.iter().map(move |&m| (q, m)))
        .collect();
    let cell = |q, m| EngineSpec::FillEscape {
        queue: q,
        threshold: m,
    };
    let jobs = grid.iter().map(|&(q, m)| cell(q, m).into()).collect();
    ExperimentSpec::new("fig03", jobs, move |r| {
        let mut t = Table::new(
            "fig03",
            "Fig 3: Fill+Escape on FIFO service queues — max unmitigated ACTs",
            &["queue_size", "threshold", "max_unmitigated_acts"],
        );
        for &(q, m) in &grid {
            let acts = r.engine(cell(q, m));
            t.rows
                .push(vec![q.to_string(), m.to_string(), acts.to_string()]);
        }
        vec![t.with_note("(paper: minimum ~1283 at threshold 512; insecure below T_RH 1280)")]
    })
}

/// Fig 6: N_online vs starting pool R1 (analytical).
pub fn fig06_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig06", Vec::new(), |_| {
        let mut t = Table::new(
            "fig06",
            "Fig 6: online-phase activations N_online vs starting pool R1",
            &["r1", "prac1", "prac2", "prac4"],
        );
        for r1 in [
            4u64, 1024, 4096, 20_480, 40_960, 61_440, 81_920, 102_400, 131_072,
        ] {
            let mut row = vec![r1.to_string()];
            row.extend([1u32, 2, 4].map(|m| n_online(&PracModel::prac(m, 1), r1).to_string()));
            t.rows.push(row);
        }
        vec![t.with_note("(paper: maxima 46 / 30 / 23 at 128K)")]
    })
}

/// Fig 7: maximum feasible R1 vs N_BO (analytical).
pub fn fig07_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig07", Vec::new(), |_| {
        let mut t = Table::new(
            "fig07",
            "Fig 7: maximum starting pool R1 vs Back-Off threshold N_BO",
            &["nbo", "prac1", "prac2", "prac4"],
        );
        for nbo in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
            let mut row = vec![nbo.to_string()];
            row.extend([1u32, 2, 4].map(|m| max_r1(&PracModel::prac(m, nbo)).to_string()));
            t.rows.push(row);
        }
        vec![t.with_note("(paper: 50K-62K at N_BO=1, ~2K at N_BO=256)")]
    })
}

/// Fig 8: minimum secure T_RH vs N_BO (analytical).
pub fn fig08_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig08", Vec::new(), |_| {
        let nbos = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
        let mut table = Table::new(
            "fig08",
            "Fig 8: minimum secure T_RH vs Back-Off threshold N_BO",
            &["nbo", "prac1", "prac2", "prac4"],
        );
        let curves: Vec<Vec<(u32, u64)>> = [1u32, 2, 4]
            .iter()
            .map(|&m| trh_curve(m, &nbos, false))
            .collect();
        for (i, &nbo) in nbos.iter().enumerate() {
            let mut row = vec![nbo.to_string()];
            row.extend(curves.iter().map(|c| c[i].1.to_string()));
            table.rows.push(row);
        }
        vec![table.with_note("(paper: 44/29/22 at N_BO=1; 71/58/52 at 32; 289/279/274 at 256)")]
    })
}

/// Fig 11: max R1 with vs without proactive mitigation.
pub fn fig11_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig11", Vec::new(), |_| {
        let nbos = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
        let mut t = Table::new(
            "fig11",
            "Fig 11: maximum R1 with/without proactive mitigation",
            &[
                "nbo",
                "prac1",
                "prac1_pro",
                "prac2",
                "prac2_pro",
                "prac4",
                "prac4_pro",
            ],
        );
        for &nbo in &nbos {
            let mut row = vec![nbo.to_string()];
            for m in [1u32, 2, 4] {
                row.push(max_r1(&PracModel::prac(m, nbo)).to_string());
                row.push(max_r1(&PracModel::prac(m, nbo).with_proactive()).to_string());
            }
            t.rows.push(row);
        }
        vec![t.with_note("(paper: proactive defeats the attack entirely at N_BO >= 128)")]
    })
}

/// Fig 12: N_online with vs without proactive mitigation.
pub fn fig12_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig12", Vec::new(), |_| {
        let mut t = Table::new(
            "fig12",
            "Fig 12: N_online with/without proactive mitigation",
            &["r1", "q1", "q1_pro", "q2", "q2_pro", "q4", "q4_pro"],
        );
        for r1 in [4u64, 20_480, 40_960, 61_440, 81_920, 102_400, 131_072] {
            let mut row = vec![r1.to_string()];
            for m in [1u32, 2, 4] {
                row.push(n_online(&PracModel::prac(m, 1), r1).to_string());
                row.push(n_online(&PracModel::prac(m, 1).with_proactive(), r1).to_string());
            }
            t.rows.push(row);
        }
        vec![t.with_note("(paper: N_online drops by at most 5 / 2 / 1)")]
    })
}

/// Fig 13: secure T_RH with vs without proactive mitigation.
pub fn fig13_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig13", Vec::new(), |_| {
        let nbos = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
        let mut t = Table::new(
            "fig13",
            "Fig 13: secure T_RH with/without proactive mitigation",
            &["nbo", "q1", "q1_pro", "q2", "q2_pro", "q4", "q4_pro"],
        );
        for &nbo in &nbos {
            let mut row = vec![nbo.to_string()];
            for m in [1u32, 2, 4] {
                row.push(secure_trh(&PracModel::prac(m, nbo)).to_string());
                row.push(secure_trh(&PracModel::prac(m, nbo).with_proactive()).to_string());
            }
            t.rows.push(row);
        }
        vec![t.with_note("(paper: 40/27/20 at N_BO=1 with proactive, vs 44/29/22 without)")]
    })
}

/// Fig 23 (Appendix A): blocked-t-bit Panopticon attack. Reports both
/// the per-bank engine simulation and the channel-level analytical bound.
pub fn fig23_spec() -> ExperimentSpec {
    let tbits = [6u32, 7, 8, 9, 10, 11, 12];
    let queues = [4usize, 16, 64];
    let grid: Vec<(usize, u32)> = queues
        .iter()
        .flat_map(|&q| tbits.iter().map(move |&t| (q, t)))
        .collect();
    let cell = |q, t| EngineSpec::BlockedTbit { queue: q, tbit: t };
    let jobs = grid.iter().map(|&(q, t)| cell(q, t).into()).collect();
    ExperimentSpec::new("fig23", jobs, move |r| {
        let mut table = Table::new(
            "fig23",
            "Fig 23: Panopticon with blocked t-bit toggling during ABO windows",
            &[
                "queue_size",
                "threshold",
                "engine_per_bank",
                "analytic_channel",
            ],
        );
        for &(q, t) in &grid {
            let engine = r.engine(cell(q, t));
            let m = 1u64 << t;
            let analytic = security_model::panopticon::blocked_tbit_max_acts(q as u64, m);
            table.rows.push(vec![
                q.to_string(),
                m.to_string(),
                engine.to_string(),
                analytic.to_string(),
            ]);
        }
        vec![table.with_note("(paper: ~1800 unmitigated ACTs at threshold 1024 — still insecure)")]
    })
}

/// §IV-B validation: empirical wave attack vs the analytical model.
pub fn wave_validate_spec() -> ExperimentSpec {
    let grid: Vec<(u32, u32, u64)> = [1u32, 2, 4]
        .iter()
        .flat_map(|&m| [200u64, 1000, 4000].iter().map(move |&r| (m, 32, r)))
        .collect();
    let cell = |nmit, nbo, r1| EngineSpec::Wave {
        nmit,
        nbo,
        psq: 5,
        r1,
    };
    let jobs = grid
        .iter()
        .map(|&(nmit, nbo, r1)| cell(nmit, nbo, r1).into())
        .collect();
    ExperimentSpec::new("wave_validate", jobs, move |r| {
        let mut t = Table::new(
            "wave_validate",
            "Wave-attack validation: simulation vs analytical model (§IV-B)",
            &["nmit", "nbo", "r1", "simulated", "model", "rel_err"],
        );
        for &(nmit, nbo, r1) in &grid {
            let sim = r.engine(cell(nmit, nbo, r1));
            let model = (nbo as u64 - 1)
                + n_online(
                    &PracModel::prac(nmit, nbo),
                    setup::surviving_pool(&PracModel::prac(nmit, nbo), r1),
                );
            let err = (sim as f64 - model as f64).abs() / model as f64;
            t.rows.push(vec![
                nmit.to_string(),
                nbo.to_string(),
                r1.to_string(),
                sim.to_string(),
                model.to_string(),
                f(err),
            ]);
        }
        vec![t.with_note("(paper: simulated wave results within ~1% of the analytical model)")]
    })
}

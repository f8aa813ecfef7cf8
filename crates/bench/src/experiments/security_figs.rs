//! Security figures: Fig 2, 3, 6, 7, 8, 11, 12, 13, 23 plus the wave
//! validation (§IV-B).
//!
//! The attack-engine sweeps (Figs 2, 3, 23, wave validation) declare
//! their grid points as [`EngineSpec`] cells, which the cross-figure
//! runner keys, caches and schedules like any other cell; the
//! analytical figures carry no cells at all.

use attack_engine::EngineSpec;
use security_model::{max_r1, n_online, secure_trh, setup, trh_curve, PracModel};

use crate::csv::{f, CsvWriter};
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
        let mut w = CsvWriter::create("fig02", &["queue_size", "tbit", "max_unmitigated_acts"])?;
        println!("Fig 2: Panopticon Toggle+Forget — max unmitigated ACTs to a row");
        println!(
            "{:>10} {:>6} {:>22}",
            "queue", "t-bit", "max unmitigated ACTs"
        );
        for &(q, t) in &grid {
            let acts = r.engine(cell(q, t));
            println!("{q:>10} {t:>6} {acts:>22}");
            w.row(&[q.to_string(), t.to_string(), acts.to_string()])?;
        }
        println!("(paper: >100K at Q=4, ~25K at Q=16, threshold-independent)\n");
        Ok(())
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
        let mut w = CsvWriter::create(
            "fig03",
            &["queue_size", "threshold", "max_unmitigated_acts"],
        )?;
        println!("Fig 3: Fill+Escape on FIFO service queues — max unmitigated ACTs");
        println!(
            "{:>8} {:>10} {:>22}",
            "queue", "threshold", "max unmitigated ACTs"
        );
        for &(q, m) in &grid {
            let acts = r.engine(cell(q, m));
            println!("{q:>8} {m:>10} {acts:>22}");
            w.row(&[q.to_string(), m.to_string(), acts.to_string()])?;
        }
        println!("(paper: minimum ~1283 at threshold 512; insecure below T_RH 1280)\n");
        Ok(())
    })
}

/// Fig 6: N_online vs starting pool R1 (analytical).
pub fn fig06_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig06", Vec::new(), |_| {
        let mut w = CsvWriter::create("fig06", &["r1", "prac1", "prac2", "prac4"])?;
        println!("Fig 6: online-phase activations N_online vs starting pool R1");
        println!(
            "{:>8} {:>7} {:>7} {:>7}",
            "R1", "PRAC-1", "PRAC-2", "PRAC-4"
        );
        for r1 in [
            4u64, 1024, 4096, 20_480, 40_960, 61_440, 81_920, 102_400, 131_072,
        ] {
            let n: Vec<u64> = [1u32, 2, 4]
                .iter()
                .map(|&m| n_online(&PracModel::prac(m, 1), r1))
                .collect();
            println!("{r1:>8} {:>7} {:>7} {:>7}", n[0], n[1], n[2]);
            w.row(&[
                r1.to_string(),
                n[0].to_string(),
                n[1].to_string(),
                n[2].to_string(),
            ])?;
        }
        println!("(paper: maxima 46 / 30 / 23 at 128K)\n");
        Ok(())
    })
}

/// Fig 7: maximum feasible R1 vs N_BO (analytical).
pub fn fig07_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig07", Vec::new(), |_| {
        let mut w = CsvWriter::create("fig07", &["nbo", "prac1", "prac2", "prac4"])?;
        println!("Fig 7: maximum starting pool R1 vs Back-Off threshold N_BO");
        println!(
            "{:>6} {:>8} {:>8} {:>8}",
            "N_BO", "PRAC-1", "PRAC-2", "PRAC-4"
        );
        for nbo in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
            let r: Vec<u64> = [1u32, 2, 4]
                .iter()
                .map(|&m| max_r1(&PracModel::prac(m, nbo)))
                .collect();
            println!("{nbo:>6} {:>8} {:>8} {:>8}", r[0], r[1], r[2]);
            w.row(&[
                nbo.to_string(),
                r[0].to_string(),
                r[1].to_string(),
                r[2].to_string(),
            ])?;
        }
        println!("(paper: 50K-62K at N_BO=1, ~2K at N_BO=256)\n");
        Ok(())
    })
}

/// Fig 8: minimum secure T_RH vs N_BO (analytical).
pub fn fig08_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig08", Vec::new(), |_| {
        let nbos = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
        let mut w = CsvWriter::create("fig08", &["nbo", "prac1", "prac2", "prac4"])?;
        println!("Fig 8: minimum secure T_RH vs Back-Off threshold N_BO");
        println!(
            "{:>6} {:>7} {:>7} {:>7}",
            "N_BO", "PRAC-1", "PRAC-2", "PRAC-4"
        );
        let curves: Vec<Vec<(u32, u64)>> = [1u32, 2, 4]
            .iter()
            .map(|&m| trh_curve(m, &nbos, false))
            .collect();
        for (i, &nbo) in nbos.iter().enumerate() {
            let t: Vec<u64> = curves.iter().map(|c| c[i].1).collect();
            println!("{nbo:>6} {:>7} {:>7} {:>7}", t[0], t[1], t[2]);
            w.row(&[
                nbo.to_string(),
                t[0].to_string(),
                t[1].to_string(),
                t[2].to_string(),
            ])?;
        }
        println!("(paper: 44/29/22 at N_BO=1; 71/58/52 at 32; 289/279/274 at 256)\n");
        Ok(())
    })
}

/// Fig 11: max R1 with vs without proactive mitigation.
pub fn fig11_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig11", Vec::new(), |_| {
        let nbos = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
        let mut w = CsvWriter::create(
            "fig11",
            &[
                "nbo",
                "prac1",
                "prac1_pro",
                "prac2",
                "prac2_pro",
                "prac4",
                "prac4_pro",
            ],
        )?;
        println!("Fig 11: maximum R1 with/without proactive mitigation");
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "N_BO", "P1", "P1+Pro", "P2", "P2+Pro", "P4", "P4+Pro"
        );
        for &nbo in &nbos {
            let mut cols = Vec::new();
            for m in [1u32, 2, 4] {
                cols.push(max_r1(&PracModel::prac(m, nbo)));
                cols.push(max_r1(&PracModel::prac(m, nbo).with_proactive()));
            }
            println!(
                "{nbo:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
            );
            w.row(&[
                nbo.to_string(),
                cols[0].to_string(),
                cols[1].to_string(),
                cols[2].to_string(),
                cols[3].to_string(),
                cols[4].to_string(),
                cols[5].to_string(),
            ])?;
        }
        println!("(paper: proactive defeats the attack entirely at N_BO >= 128)\n");
        Ok(())
    })
}

/// Fig 12: N_online with vs without proactive mitigation.
pub fn fig12_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig12", Vec::new(), |_| {
        let mut w = CsvWriter::create(
            "fig12",
            &["r1", "q1", "q1_pro", "q2", "q2_pro", "q4", "q4_pro"],
        )?;
        println!("Fig 12: N_online with/without proactive mitigation");
        println!(
            "{:>8} {:>6} {:>7} {:>6} {:>7} {:>6} {:>7}",
            "R1", "Q1", "Q1+Pro", "Q2", "Q2+Pro", "Q4", "Q4+Pro"
        );
        for r1 in [4u64, 20_480, 40_960, 61_440, 81_920, 102_400, 131_072] {
            let mut cols = Vec::new();
            for m in [1u32, 2, 4] {
                cols.push(n_online(&PracModel::prac(m, 1), r1));
                cols.push(n_online(&PracModel::prac(m, 1).with_proactive(), r1));
            }
            println!(
                "{r1:>8} {:>6} {:>7} {:>6} {:>7} {:>6} {:>7}",
                cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
            );
            w.row(&[
                r1.to_string(),
                cols[0].to_string(),
                cols[1].to_string(),
                cols[2].to_string(),
                cols[3].to_string(),
                cols[4].to_string(),
                cols[5].to_string(),
            ])?;
        }
        println!("(paper: N_online drops by at most 5 / 2 / 1)\n");
        Ok(())
    })
}

/// Fig 13: secure T_RH with vs without proactive mitigation.
pub fn fig13_spec() -> ExperimentSpec {
    ExperimentSpec::new("fig13", Vec::new(), |_| {
        let nbos = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
        let mut w = CsvWriter::create(
            "fig13",
            &["nbo", "q1", "q1_pro", "q2", "q2_pro", "q4", "q4_pro"],
        )?;
        println!("Fig 13: secure T_RH with/without proactive mitigation");
        println!(
            "{:>6} {:>6} {:>7} {:>6} {:>7} {:>6} {:>7}",
            "N_BO", "Q1", "Q1+Pro", "Q2", "Q2+Pro", "Q4", "Q4+Pro"
        );
        for &nbo in &nbos {
            let mut cols = Vec::new();
            for m in [1u32, 2, 4] {
                cols.push(secure_trh(&PracModel::prac(m, nbo)));
                cols.push(secure_trh(&PracModel::prac(m, nbo).with_proactive()));
            }
            println!(
                "{nbo:>6} {:>6} {:>7} {:>6} {:>7} {:>6} {:>7}",
                cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
            );
            w.row(&[
                nbo.to_string(),
                cols[0].to_string(),
                cols[1].to_string(),
                cols[2].to_string(),
                cols[3].to_string(),
                cols[4].to_string(),
                cols[5].to_string(),
            ])?;
        }
        println!("(paper: 40/27/20 at N_BO=1 with proactive, vs 44/29/22 without)\n");
        Ok(())
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
        let mut w = CsvWriter::create(
            "fig23",
            &[
                "queue_size",
                "threshold",
                "engine_per_bank",
                "analytic_channel",
            ],
        )?;
        println!("Fig 23: Panopticon with blocked t-bit toggling during ABO windows");
        println!(
            "{:>8} {:>10} {:>16} {:>18}",
            "queue", "threshold", "engine(per-bank)", "analytic(channel)"
        );
        for &(q, t) in &grid {
            let engine = r.engine(cell(q, t));
            let m = 1u64 << t;
            let analytic = security_model::panopticon::blocked_tbit_max_acts(q as u64, m);
            println!("{q:>8} {m:>10} {engine:>16} {analytic:>18}");
            w.row(&[
                q.to_string(),
                m.to_string(),
                engine.to_string(),
                analytic.to_string(),
            ])?;
        }
        println!("(paper: ~1800 unmitigated ACTs at threshold 1024 — still insecure)\n");
        Ok(())
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
        let mut w = CsvWriter::create(
            "wave_validate",
            &["nmit", "nbo", "r1", "simulated", "model", "rel_err"],
        )?;
        println!("Wave-attack validation: simulation vs analytical model (§IV-B)");
        println!(
            "{:>5} {:>5} {:>7} {:>10} {:>7} {:>8}",
            "nmit", "N_BO", "R1", "simulated", "model", "rel err"
        );
        for &(nmit, nbo, r1) in &grid {
            let sim = r.engine(cell(nmit, nbo, r1));
            let model = (nbo as u64 - 1)
                + n_online(
                    &PracModel::prac(nmit, nbo),
                    setup::surviving_pool(&PracModel::prac(nmit, nbo), r1),
                );
            let err = (sim as f64 - model as f64).abs() / model as f64;
            println!(
                "{nmit:>5} {nbo:>5} {r1:>7} {sim:>10} {model:>7} {:>7.1}%",
                err * 100.0
            );
            w.row(&[
                nmit.to_string(),
                nbo.to_string(),
                r1.to_string(),
                sim.to_string(),
                model.to_string(),
                f(err),
            ])?;
        }
        println!("(paper: simulated wave results within ~1% of the analytical model)\n");
        Ok(())
    })
}

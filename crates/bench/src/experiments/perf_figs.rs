//! Performance figures: Fig 14, 15, 16, 17, 18, 20, 21 and Table III /
//! Fig 22 energy companions — all declared as cell grids over
//! `(SystemConfig, workload)`; the cross-figure runner dedupes the
//! shared cells (most prominently the unmitigated baselines, which
//! every sweep here needs) and simulates each exactly once.

use cpu_model::WorkloadSpec;
use sim::{geomean, MitigationKind, SystemConfig};

use crate::csv::{f, Table};
use crate::spec::{ExperimentSpec, Job};

/// The five evaluated QPRAC designs of Fig 14/15, in paper order.
pub const FIG14_CONFIGS: [MitigationKind; 5] = [
    MitigationKind::QpracNoOp,
    MitigationKind::Qprac,
    MitigationKind::QpracProactive,
    MitigationKind::QpracProactiveEa,
    MitigationKind::QpracIdeal,
];

/// Fig 14 (normalized performance) and Fig 15 (alerts per tREFI) from
/// one set of runs per workload.
pub fn fig14_15_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let workloads = workloads.to_vec();
    let base_cfg = SystemConfig::paper_default().with_mitigation(MitigationKind::None);
    let configs: Vec<SystemConfig> = FIG14_CONFIGS
        .iter()
        .map(|&kind| SystemConfig::paper_default().with_mitigation(kind))
        .collect();
    let mut jobs = Vec::new();
    for spec in &workloads {
        for cfg in std::iter::once(&base_cfg).chain(&configs) {
            jobs.push(Job::Workload {
                cfg: cfg.clone(),
                workload: spec.clone(),
            });
        }
    }
    ExperimentSpec::new("fig14_15", jobs, move |r| {
        struct Row {
            workload: String,
            rbmpki: f64,
            perf: Vec<f64>,
            alerts: Vec<f64>,
        }
        let rows: Vec<Row> = workloads
            .iter()
            .map(|spec| {
                let base = r.stats(&base_cfg, spec);
                let runs: Vec<_> = configs.iter().map(|cfg| r.stats(cfg, spec)).collect();
                Row {
                    workload: spec.name.to_string(),
                    rbmpki: base.rbmpki(),
                    perf: runs.iter().map(|s| s.normalized_perf(base)).collect(),
                    alerts: runs.iter().map(|s| s.alerts_per_trefi()).collect(),
                }
            })
            .collect();
        let header = [
            "workload",
            "rbmpki",
            "noop",
            "qprac",
            "proactive",
            "proactive_ea",
            "ideal",
        ];
        let mut fig14 = Table::new(
            "fig14",
            "Fig 14: normalized performance (N_BO=32, PRAC-1) vs insecure baseline",
            &header,
        );
        let mut fig15 = Table::new(
            "fig15",
            "Fig 15: alerts per tREFI (same runs as Fig 14)",
            &header,
        );
        let push = |t: &mut Table, label: String, first: String, values: &[f64]| {
            let mut row = vec![label, first];
            row.extend(values.iter().map(|v| f(*v)));
            t.rows.push(row);
        };
        for r in &rows {
            push(&mut fig14, r.workload.clone(), f(r.rbmpki), &r.perf);
            push(&mut fig15, r.workload.clone(), f(r.rbmpki), &r.alerts);
        }
        // Geomean rows: all workloads and the memory-intensive subset.
        for (label, filt) in [("geomean(all)", 0.0), ("geomean(rbmpki>=2)", 2.0)] {
            let sel: Vec<&Row> = rows.iter().filter(|r| r.rbmpki >= filt).collect();
            let gm: Vec<f64> = (0..configs.len())
                .map(|c| geomean(sel.iter().map(|r| r.perf[c])))
                .collect();
            push(&mut fig14, label.to_string(), sel.len().to_string(), &gm);
            let am: Vec<f64> = (0..configs.len())
                .map(|c| sel.iter().map(|r| r.alerts[c]).sum::<f64>() / sel.len().max(1) as f64)
                .collect();
            push(
                &mut fig15,
                format!("mean({label})"),
                sel.len().to_string(),
                &am,
            );
        }
        vec![
            fig14.with_note("(paper: NoOp 12.4% slowdown; QPRAC 0.8%; proactive variants 0%)"),
            fig15.with_note("(paper: NoOp ~1.1 alerts/tREFI; QPRAC 0.07; proactive ~0)"),
        ]
    })
}

/// A generic sensitivity-sweep spec: label × config list, geomean
/// slowdown over a workload set, one CSV row per config. Each variant
/// normalizes against its own timing-matched unmitigated baseline —
/// which the runner dedupes globally, so the baseline family costs one
/// run per distinct (timing, workload) pair across the whole suite.
fn sweep_spec(
    name: &'static str,
    title: &'static str,
    note: &'static str,
    workloads: &[WorkloadSpec],
    configs: Vec<(String, SystemConfig)>,
) -> ExperimentSpec {
    let workloads = workloads.to_vec();
    let mut jobs = Vec::new();
    for (_, cfg) in &configs {
        let base_cfg = SystemConfig {
            mitigation: MitigationKind::None,
            ..cfg.clone()
        };
        for spec in &workloads {
            jobs.push(Job::Workload {
                cfg: base_cfg.clone(),
                workload: spec.clone(),
            });
            jobs.push(Job::Workload {
                cfg: cfg.clone(),
                workload: spec.clone(),
            });
        }
    }
    ExperimentSpec::new(name, jobs, move |r| {
        let mut t = Table::new(name, title, &["config", "norm_perf", "slowdown_pct"]);
        for (label, cfg) in &configs {
            let base_cfg = SystemConfig {
                mitigation: MitigationKind::None,
                ..cfg.clone()
            };
            let gm = geomean(
                workloads
                    .iter()
                    .map(|spec| r.stats(cfg, spec).normalized_perf(r.stats(&base_cfg, spec))),
            );
            t.rows
                .push(vec![label.clone(), f(gm), f((1.0 - gm) * 100.0)]);
        }
        vec![t.with_note(note)]
    })
}

/// Fig 16: slowdown vs RFMs per alert (PRAC-1/2/4).
pub fn fig16_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let mut configs = Vec::new();
    for nmit in [1u8, 2, 4] {
        for (label, kind) in [
            ("QPRAC", MitigationKind::Qprac),
            ("QPRAC+Proactive", MitigationKind::QpracProactive),
            ("QPRAC+Proactive-EA", MitigationKind::QpracProactiveEa),
            ("QPRAC-Ideal", MitigationKind::QpracIdeal),
        ] {
            configs.push((
                format!("PRAC-{nmit} {label}"),
                SystemConfig::paper_default()
                    .with_mitigation(kind)
                    .with_nmit(nmit),
            ));
        }
    }
    sweep_spec(
        "fig16",
        "Fig 16: slowdown vs RFMs per Alert Back-Off",
        "(paper: QPRAC 0.8-0.9% across PRAC levels; proactive variants 0%)",
        workloads,
        configs,
    )
}

/// Fig 17: slowdown vs PSQ size × proactive cadence.
pub fn fig17_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let mut configs = Vec::new();
    for size in 1..=5usize {
        configs.push((
            format!("PSQ={size} QPRAC"),
            SystemConfig::paper_default()
                .with_mitigation(MitigationKind::Qprac)
                .with_psq_size(size),
        ));
        for per_refs in [4u32, 2, 1] {
            configs.push((
                format!("PSQ={size} +EA 1/{per_refs} tREFI"),
                SystemConfig::paper_default()
                    .with_mitigation(MitigationKind::QpracProactiveEa)
                    .with_psq_size(size)
                    .with_proactive_per_refs(per_refs),
            ));
        }
    }
    sweep_spec(
        "fig17",
        "Fig 17: slowdown vs PSQ size and proactive cadence",
        "(paper: <1% overhead across all queue sizes)",
        workloads,
        configs,
    )
}

/// Fig 18: slowdown vs Back-Off threshold.
pub fn fig18_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let mut configs = Vec::new();
    for nbo in [16u32, 32, 64, 128] {
        for (label, kind) in [
            ("QPRAC", MitigationKind::Qprac),
            ("QPRAC+Proactive", MitigationKind::QpracProactive),
            ("QPRAC+Proactive-EA", MitigationKind::QpracProactiveEa),
            ("QPRAC-Ideal", MitigationKind::QpracIdeal),
        ] {
            configs.push((
                format!("N_BO={nbo} {label}"),
                SystemConfig::paper_default()
                    .with_mitigation(kind)
                    .with_nbo(nbo),
            ));
        }
    }
    sweep_spec(
        "fig18",
        "Fig 18: slowdown vs Back-Off threshold N_BO",
        "(paper: QPRAC 2.3% at N_BO=16, 0.8% at 32, ~0 above; proactive ~0%)",
        workloads,
        configs,
    )
}

/// Fig 20: normalized performance vs T_RH for Mithril, PrIDE and
/// QPRAC+Proactive-EA. QPRAC's N_BO per T_RH comes from the §IV security
/// model (largest N_BO whose secure T_RH fits).
pub fn fig20_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let mut configs = Vec::new();
    for trh in [64u32, 128, 256, 512, 1024] {
        configs.push((
            format!("T_RH={trh} Mithril"),
            SystemConfig {
                plain_timing: true,
                ..SystemConfig::paper_default()
            }
            .with_mitigation(MitigationKind::Mithril { trh }),
        ));
        configs.push((
            format!("T_RH={trh} PrIDE"),
            SystemConfig {
                plain_timing: true,
                ..SystemConfig::paper_default()
            }
            .with_mitigation(MitigationKind::Pride { trh }),
        ));
        let nbo = qprac_nbo_for_trh(trh);
        configs.push((
            format!("T_RH={trh} QPRAC+Proactive-EA (N_BO={nbo})"),
            SystemConfig::paper_default()
                .with_mitigation(MitigationKind::QpracProactiveEa)
                .with_nbo(nbo),
        ));
    }
    sweep_spec(
        "fig20",
        "Fig 20: normalized performance vs Rowhammer threshold",
        "(paper: Mithril 69%..10% and PrIDE 54%..7% slowdown from T_RH 64..512;\n \
         QPRAC ~0% across all thresholds)",
        workloads,
        configs,
    )
}

/// Largest power-of-two-ish N_BO whose analytically secure T_RH does not
/// exceed the target threshold.
pub fn qprac_nbo_for_trh(trh: u32) -> u32 {
    let mut best = 1;
    for nbo in [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        if nbo >= trh {
            break;
        }
        let secure = security_model::secure_trh(&security_model::PracModel::prac(1, nbo));
        if secure <= trh as u64 {
            best = nbo;
        }
    }
    best
}

/// Fig 21 (performance) and Fig 22 (energy): MOAT vs QPRAC as N_BO
/// varies, with proactive cadences of 1-per-4-tREFI and 1-per-tREFI.
/// All 24 configs share one unmitigated baseline per workload (N_BO and
/// the proactive cadence are tracker-side knobs that cannot affect a
/// `MitigationKind::None` run — the same equivalence `RunKey`
/// normalizes, so the runner collapses the baselines automatically).
pub fn fig21_22_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let workloads = workloads.to_vec();
    let mut configs: Vec<(String, SystemConfig)> = Vec::new();
    for nbo in [16u32, 32, 64, 128] {
        let base = SystemConfig::paper_default().with_nbo(nbo);
        configs.push((
            format!("N_BO={nbo} MOAT"),
            base.clone()
                .with_mitigation(MitigationKind::Moat)
                .with_proactive_per_refs(0),
        ));
        configs.push((
            format!("N_BO={nbo} MOAT+Pro 1/4tREFI"),
            base.clone()
                .with_mitigation(MitigationKind::Moat)
                .with_proactive_per_refs(4),
        ));
        configs.push((
            format!("N_BO={nbo} MOAT+Pro 1/tREFI"),
            base.clone()
                .with_mitigation(MitigationKind::Moat)
                .with_proactive_per_refs(1),
        ));
        configs.push((
            format!("N_BO={nbo} QPRAC"),
            base.clone().with_mitigation(MitigationKind::Qprac),
        ));
        configs.push((
            format!("N_BO={nbo} QPRAC+EA 1/4tREFI"),
            base.clone()
                .with_mitigation(MitigationKind::QpracProactiveEa)
                .with_proactive_per_refs(4),
        ));
        configs.push((
            format!("N_BO={nbo} QPRAC+EA 1/tREFI"),
            base.clone()
                .with_mitigation(MitigationKind::QpracProactiveEa)
                .with_proactive_per_refs(1),
        ));
    }
    let base_cfg = SystemConfig::paper_default().with_mitigation(MitigationKind::None);
    let mut jobs = Vec::new();
    for spec in &workloads {
        jobs.push(Job::Workload {
            cfg: base_cfg.clone(),
            workload: spec.clone(),
        });
        for (_, cfg) in &configs {
            jobs.push(Job::Workload {
                cfg: cfg.clone(),
                workload: spec.clone(),
            });
        }
    }
    ExperimentSpec::new("fig21_22", jobs, move |r| {
        let mut fig21 = Table::new(
            "fig21",
            "Fig 21: MOAT vs QPRAC — slowdown vs N_BO",
            &["config", "norm_perf", "slowdown_pct"],
        );
        let mut fig22 = Table::new(
            "fig22",
            "Fig 22: MOAT vs QPRAC — energy overhead vs N_BO",
            &["config", "energy_overhead_pct"],
        );
        for (label, cfg) in &configs {
            let n = workloads.len();
            let results: Vec<(f64, f64)> = workloads
                .iter()
                .map(|spec| {
                    let base = r.stats(&base_cfg, spec);
                    let s = r.stats(cfg, spec);
                    (s.normalized_perf(base), s.energy.overhead_vs(&base.energy))
                })
                .collect();
            let gm = geomean(results.iter().map(|&(p, _)| p));
            let e = results.iter().map(|&(_, e)| e).sum::<f64>() / n as f64;
            fig21
                .rows
                .push(vec![label.clone(), f(gm), f((1.0 - gm) * 100.0)]);
            fig22.rows.push(vec![label.clone(), f(e * 100.0)]);
        }
        vec![
            fig21.with_note("(paper Fig 21: at N_BO=16 MOAT 3.6% vs QPRAC 2.3%; both <1% at 32+)"),
            fig22.with_note("(paper Fig 22: both <2% energy at N_BO>=32)"),
        ]
    })
}

/// Table III: energy overhead of QPRAC designs vs PRAC level.
pub fn table03_spec(workloads: &[WorkloadSpec]) -> ExperimentSpec {
    let workloads = workloads.to_vec();
    let kinds = [
        MitigationKind::Qprac,
        MitigationKind::QpracProactive,
        MitigationKind::QpracProactiveEa,
    ];
    // One row per PRAC level, one config per column.
    let levels: Vec<(u8, Vec<SystemConfig>)> = [1u8, 2, 4]
        .iter()
        .map(|&nmit| {
            let cfgs = kinds
                .iter()
                .map(|&kind| {
                    SystemConfig::paper_default()
                        .with_mitigation(kind)
                        .with_nmit(nmit)
                })
                .collect();
            (nmit, cfgs)
        })
        .collect();
    let base_cfg = SystemConfig::paper_default().with_mitigation(MitigationKind::None);
    let mut jobs = Vec::new();
    for spec in &workloads {
        jobs.push(Job::Workload {
            cfg: base_cfg.clone(),
            workload: spec.clone(),
        });
        for cfg in levels.iter().flat_map(|(_, cfgs)| cfgs) {
            jobs.push(Job::Workload {
                cfg: cfg.clone(),
                workload: spec.clone(),
            });
        }
    }
    ExperimentSpec::new("table03", jobs, move |r| {
        let mut t = Table::new(
            "table03",
            "Table III: energy overhead of QPRAC designs",
            &[
                "prac_level",
                "qprac_pct",
                "proactive_pct",
                "proactive_ea_pct",
            ],
        );
        let n = workloads.len() as f64;
        for (nmit, cfgs) in &levels {
            let mut row = vec![format!("PRAC-{nmit}")];
            row.extend(cfgs.iter().map(|cfg| {
                let total: f64 = workloads
                    .iter()
                    .map(|spec| {
                        r.stats(cfg, spec)
                            .energy
                            .overhead_vs(&r.stats(&base_cfg, spec).energy)
                    })
                    .sum();
                f(total / n * 100.0)
            }));
            t.rows.push(row);
        }
        vec![t.with_note("(paper: QPRAC 1.2-1.5%, +Proactive 14.6%, +Proactive-EA 1.9%)")]
    })
}

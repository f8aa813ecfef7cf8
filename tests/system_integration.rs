//! Full-system integration: the performance claims' *shape* must hold on
//! end-to-end simulations — the orderings Figs 14–21 report.

use cpu_model::WorkloadSpec;
use sim::{run_bandwidth_attack, run_workload, MitigationKind, SystemConfig};

fn cfg(kind: MitigationKind, instr: u64) -> SystemConfig {
    SystemConfig::paper_default()
        .with_mitigation(kind)
        .with_instruction_limit(instr)
}

/// Fig 14/15 ordering on an alert-heavy workload: QPRAC-NoOp alerts and
/// slows far more than QPRAC, which proactive variants reduce to ~zero.
#[test]
fn fig14_ordering_holds_on_alert_heavy_workload() {
    let w = WorkloadSpec::by_name("spec06/libquantum_like").unwrap();
    let instr = 60_000;
    let base = run_workload(&cfg(MitigationKind::None, instr), &w);
    let noop = run_workload(&cfg(MitigationKind::QpracNoOp, instr), &w);
    let qprac = run_workload(&cfg(MitigationKind::Qprac, instr), &w);
    let ea = run_workload(&cfg(MitigationKind::QpracProactiveEa, instr), &w);

    let p_noop = noop.normalized_perf(&base);
    let p_qprac = qprac.normalized_perf(&base);
    let p_ea = ea.normalized_perf(&base);
    assert!(
        p_noop < p_qprac && p_qprac <= p_ea + 0.005,
        "ordering: noop {p_noop:.3} < qprac {p_qprac:.3} <= ea {p_ea:.3}"
    );
    assert!(p_noop < 0.9, "NoOp must visibly hurt: {p_noop:.3}");
    assert!(p_qprac > 0.95, "QPRAC must be near-baseline: {p_qprac:.3}");
    assert!(p_ea > 0.99, "EA must be ~free: {p_ea:.3}");

    // Fig 15 counterpart: alert-rate ordering.
    assert!(noop.device.alerts > 10 * qprac.device.alerts.max(1) / 2);
    assert!(ea.device.alerts <= qprac.device.alerts);
}

/// Opportunistic mitigation (QPRAC vs NoOp) slashes the number of alerts
/// — the §VI-A mechanism behind the 12.4% -> 0.8% drop.
#[test]
fn opportunistic_mitigation_cuts_alerts() {
    let w = WorkloadSpec::by_name("tpc/tpcc64_like").unwrap();
    let instr = 60_000;
    let noop = run_workload(&cfg(MitigationKind::QpracNoOp, instr), &w);
    let qprac = run_workload(&cfg(MitigationKind::Qprac, instr), &w);
    assert!(noop.device.alerts > 0, "workload must trigger alerts");
    assert!(
        qprac.device.alerts * 3 < noop.device.alerts,
        "opportunistic: {} vs noop: {}",
        qprac.device.alerts,
        noop.device.alerts
    );
    assert!(qprac.device.mitigations_opportunistic > 0);
}

/// QPRAC-Ideal and QPRAC+Proactive-EA perform identically (paper: "
/// QPRAC-Ideal shows identical performance to QPRAC+Proactive-EA").
#[test]
fn ideal_matches_proactive_ea_performance() {
    let w = WorkloadSpec::by_name("ycsb/a_like").unwrap();
    let instr = 40_000;
    let base = run_workload(&cfg(MitigationKind::None, instr), &w);
    let ea = run_workload(&cfg(MitigationKind::QpracProactiveEa, instr), &w);
    let ideal = run_workload(&cfg(MitigationKind::QpracIdeal, instr), &w);
    let diff = (ea.normalized_perf(&base) - ideal.normalized_perf(&base)).abs();
    assert!(diff < 0.01, "EA vs Ideal differ by {diff:.4}");
}

/// Table III shape: proactive-on-every-REF costs far more energy than
/// the energy-aware design, which stays near plain QPRAC.
#[test]
fn energy_ordering_matches_table_iii() {
    let w = WorkloadSpec::by_name("ycsb/a_like").unwrap();
    let instr = 40_000;
    let base = run_workload(&cfg(MitigationKind::None, instr), &w);
    let qprac = run_workload(&cfg(MitigationKind::Qprac, instr), &w);
    let pro = run_workload(&cfg(MitigationKind::QpracProactive, instr), &w);
    let ea = run_workload(&cfg(MitigationKind::QpracProactiveEa, instr), &w);
    let e_qprac = qprac.energy.overhead_vs(&base.energy);
    let e_pro = pro.energy.overhead_vs(&base.energy);
    let e_ea = ea.energy.overhead_vs(&base.energy);
    assert!(
        e_pro > 3.0 * e_ea.max(0.001),
        "every-REF proactive must dominate: pro {e_pro:.4} vs ea {e_ea:.4}"
    );
    assert!(e_ea < 0.10, "EA stays cheap: {e_ea:.4}");
    assert!(e_qprac < 0.10, "QPRAC stays cheap: {e_qprac:.4}");
}

/// Fig 18 trend: lowering N_BO cannot speed QPRAC up.
#[test]
fn lower_nbo_does_not_speed_up() {
    let w = WorkloadSpec::by_name("spec06/libquantum_like").unwrap();
    let instr = 40_000;
    let base = run_workload(&cfg(MitigationKind::None, instr), &w);
    let p16 =
        run_workload(&cfg(MitigationKind::Qprac, instr).with_nbo(16), &w).normalized_perf(&base);
    let p128 =
        run_workload(&cfg(MitigationKind::Qprac, instr).with_nbo(128), &w).normalized_perf(&base);
    assert!(
        p16 <= p128 + 0.005,
        "N_BO=16 {p16:.3} vs N_BO=128 {p128:.3}"
    );
}

/// Fig 19 shape: per-bank RFMs contain the bandwidth attack better than
/// all-bank RFMs.
#[test]
fn rfm_granularity_ordering_under_attack() {
    let window = 250_000;
    let banks = 8;
    let base = run_bandwidth_attack(
        &SystemConfig::paper_default().with_mitigation(MitigationKind::None),
        banks,
        window,
    );
    let ab = run_bandwidth_attack(
        &SystemConfig::paper_default().with_mitigation(MitigationKind::Qprac),
        banks,
        window,
    );
    let pb = run_bandwidth_attack(
        &SystemConfig::paper_default()
            .with_mitigation(MitigationKind::QpracProactive)
            .with_alert_rfm_kind(dram_core::RfmKind::PerBank),
        banks,
        window,
    );
    let red_ab = ab.reduction_vs(&base);
    let red_pb = pb.reduction_vs(&base);
    assert!(red_ab > 0.2, "RFMab attack must bite: {red_ab:.2}");
    assert!(
        red_pb < red_ab,
        "RFMpb {red_pb:.2} must beat RFMab {red_ab:.2}"
    );
}

/// The mitigation ordering is stable across trace lengths: the scaling
/// argument for the shortened runs (README "Reproducing the paper").
#[test]
fn shape_is_stable_across_run_lengths() {
    // Lengths start where counters have warmed past N_BO (alerts begin
    // around ~40K instructions on this workload at N_BO = 32).
    let w = WorkloadSpec::by_name("spec06/libquantum_like").unwrap();
    for instr in [60_000u64, 120_000] {
        let base = run_workload(&cfg(MitigationKind::None, instr), &w);
        let noop = run_workload(&cfg(MitigationKind::QpracNoOp, instr), &w);
        let qprac = run_workload(&cfg(MitigationKind::Qprac, instr), &w);
        assert!(
            noop.normalized_perf(&base) < qprac.normalized_perf(&base),
            "ordering must hold at {instr} instructions: noop {:.3} vs qprac {:.3}",
            noop.normalized_perf(&base),
            qprac.normalized_perf(&base)
        );
    }
}

//! The experiment specs of the evaluation: each `*_spec()` constructor
//! declares one figure/table as a cell grid plus an emitter (see
//! [`crate::spec`]). [`run_all_specs`] lists them all; `run_all <name>…`
//! runs the ones [`select_specs`] picks by name.

pub mod ablations;
pub mod attack_figs;
pub mod compare;
pub mod mix;
pub mod perf_figs;
pub mod security_figs;
pub mod tables;

use cpu_model::{all57, WorkloadSpec};

use crate::spec::ExperimentSpec;

/// The full 57-workload suite (Figs 14 and 15).
pub fn full_suite() -> Vec<WorkloadSpec> {
    all57()
}

/// Every spec of the full evaluation sweep, in `run_all` order: the
/// single source of truth shared by the `run_all` binary (which
/// executes and emits them) and the `load_test` harness (which replays
/// exactly this key population against a cluster).
pub fn run_all_specs() -> Vec<ExperimentSpec> {
    let sens = sensitivity_suite();
    let mut specs: Vec<ExperimentSpec> = vec![
        tables::table01_spec(),
        tables::table02_spec(),
        tables::table04_spec(),
        security_figs::fig02_spec(),
        security_figs::fig03_spec(),
        security_figs::fig06_spec(),
        security_figs::fig07_spec(),
        security_figs::fig08_spec(),
        security_figs::fig11_spec(),
        security_figs::fig12_spec(),
        security_figs::fig13_spec(),
        security_figs::fig23_spec(),
        security_figs::wave_validate_spec(),
        attack_figs::fig19_spec(),
        perf_figs::fig16_spec(&sens),
        perf_figs::fig17_spec(&sens),
        perf_figs::fig18_spec(&sens),
        perf_figs::fig20_spec(&sens),
        perf_figs::fig21_22_spec(&sens),
        perf_figs::table03_spec(&sens),
        perf_figs::fig14_15_spec(&full_suite()),
    ];
    specs.extend(ablations::all_specs(&sens));
    specs.push(mix::mix_speedup_spec());
    specs.push(compare::compare_mitigations_spec(&sens));
    specs
}

/// The specs of [`run_all_specs`] whose names appear in `names`, in
/// sweep order; all of them when `names` is empty. An unknown name is
/// an error that lists every valid one.
pub fn select_specs(names: &[String]) -> Result<Vec<ExperimentSpec>, String> {
    let specs = run_all_specs();
    if let Some(bad) = names
        .iter()
        .find(|n| !specs.iter().any(|s| s.name == n.as_str()))
    {
        let valid: Vec<&str> = specs.iter().map(|s| s.name).collect();
        return Err(format!(
            "no spec named {bad:?}; valid names: {}",
            valid.join(" ")
        ));
    }
    Ok(specs
        .into_iter()
        .filter(|s| names.is_empty() || names.iter().any(|n| n == s.name))
        .collect())
}

/// Representative 12-workload subset behind every suite-level average
/// except Figs 14/15: Figs 16–18 and 20–22, Table III,
/// `ablation_opportunistic` and `compare_mitigations`. It spans the
/// full suite's intensity range at a fraction of the runtime. Set
/// `QPRAC_FULL_SUITE=1` to use all 57 workloads instead.
pub fn sensitivity_suite() -> Vec<WorkloadSpec> {
    if sim::env_flag("QPRAC_FULL_SUITE") {
        return full_suite();
    }
    let picks = [
        "spec06/mcf_like",
        "spec06/libquantum_like",
        "spec06/lbm_like",
        "spec17/xalancbmk17_like",
        "tpc/tpcc64_like",
        "tpc/tpch1_like",
        "hadoop/sort_like",
        "hadoop/pagerank_like",
        "media/filter_like",
        "media/mp3_like",
        "ycsb/a_like",
        "ycsb/d_like",
    ];
    picks
        .iter()
        .map(|n| WorkloadSpec::by_name(n).expect("known workload"))
        .collect()
}

//! Heterogeneous-mix experiment (beyond the paper): weighted speedup
//! and alert pressure for the 8 shipped workload mixes, swept across
//! memory-channel counts and mitigations.
//!
//! Weighted speedup is `sum_i(shared_ipc[i] / alone_ipc[i])` where the
//! alone IPC is the workload running on one core with the whole memory
//! system to itself under the *unmitigated* configuration at the same
//! channel count — so the metric folds both inter-core contention and
//! mitigation overhead into one number (4.0 = every slot runs as fast
//! as alone).

use cpu_model::mixes8;
use sim::{MitigationKind, RunStats, SystemConfig};

use crate::csv::{f, Table};
use crate::spec::{ExperimentSpec, Job};

/// Channel counts the mix sweep covers.
pub const MIX_CHANNELS: [usize; 3] = [1, 2, 4];

/// Mitigations the mix sweep covers (insecure baseline + the paper's
/// default QPRAC design + the plain opportunistic variant).
pub const MIX_KINDS: [MitigationKind; 3] = [
    MitigationKind::None,
    MitigationKind::Qprac,
    MitigationKind::QpracProactiveEa,
];

fn cfg_for(channels: usize, kind: MitigationKind) -> SystemConfig {
    SystemConfig::paper_default()
        .with_mitigation(kind)
        .with_channels(channels)
}

/// The alone-IPC cell for one workload at one channel count: a single
/// core running it unmitigated with the whole memory system to itself.
fn alone_cfg(channels: usize) -> SystemConfig {
    SystemConfig {
        cores: 1,
        ..cfg_for(channels, MitigationKind::None)
    }
}

fn alert_skew(s: &RunStats) -> f64 {
    let total: u64 = s.channel_device.iter().map(|d| d.alerts).sum();
    if total == 0 {
        return 0.0;
    }
    let max = s.channel_device.iter().map(|d| d.alerts).max().unwrap_or(0);
    max as f64 / total as f64
}

/// The full sweep as one spec: 8 mixes x `MIX_CHANNELS` x `MIX_KINDS`,
/// plus the alone-IPC baselines for every distinct workload appearing
/// in the mixes (shared by every mitigation column, since the alone run
/// is always unmitigated).
pub fn mix_speedup_spec() -> ExperimentSpec {
    let mixes = mixes8();
    let mut names: Vec<&'static str> = mixes.iter().flat_map(|m| m.distinct_workloads()).collect();
    names.sort_unstable();
    names.dedup();
    let mut jobs = Vec::new();
    for &name in &names {
        let spec = cpu_model::WorkloadSpec::by_name(name).expect("mix slots resolve");
        for ch in MIX_CHANNELS {
            jobs.push(Job::Workload {
                cfg: alone_cfg(ch),
                workload: spec.clone(),
            });
        }
    }
    for mix in &mixes {
        for ch in MIX_CHANNELS {
            for kind in MIX_KINDS {
                jobs.push(Job::Mix {
                    cfg: cfg_for(ch, kind),
                    mix: *mix,
                });
            }
        }
    }
    ExperimentSpec::new("mix_speedup", jobs, move |r| {
        let mut t = Table::new(
            "mix_speedup",
            "Mix experiment: weighted speedup + alerts/tREFI for 8 heterogeneous mixes",
            &[
                "mix",
                "channels",
                "mitigation",
                "weighted_speedup",
                "alerts_per_trefi",
                "max_channel_alert_share",
            ],
        );
        for mix in &mixes {
            for channels in MIX_CHANNELS {
                for kind in MIX_KINDS {
                    let cfg = cfg_for(channels, kind);
                    let s = r.mix(&cfg, mix);
                    let alone_ipc: Vec<f64> = mix
                        .slots
                        .iter()
                        .map(|&name| {
                            let spec =
                                cpu_model::WorkloadSpec::by_name(name).expect("mix slots resolve");
                            r.stats(&alone_cfg(channels), &spec).core_ipc[0]
                        })
                        .collect();
                    t.rows.push(vec![
                        mix.name.to_string(),
                        channels.to_string(),
                        cfg.mitigation_label().to_string(),
                        f(s.weighted_speedup(&alone_ipc)),
                        f(s.alerts_per_trefi()),
                        f(alert_skew(s)),
                    ]);
                }
            }
        }
        vec![t.with_note(format!(
            "({} channel counts x {} mitigations; alone-IPC baselines are 1-core unmitigated runs)",
            MIX_CHANNELS.len(),
            MIX_KINDS.len()
        ))]
    })
}

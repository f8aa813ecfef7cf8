//! Aggregated statistics for one full-system run.

use cpu_model::{CacheStats, CoreStats};
use dram_core::DeviceStats;
use energy_model::EnergyBreakdown;
use mem_ctrl::McStats;

use crate::attack::BwAttackStats;

/// Everything the figure specs need from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// CPU cycles elapsed until every core hit its instruction limit.
    pub cpu_cycles: u64,
    /// Memory-controller cycles elapsed.
    pub mem_cycles: u64,
    /// Per-core IPC over each core's first `instr_limit` instructions.
    pub core_ipc: Vec<f64>,
    /// Aggregated core statistics.
    pub cpu: CoreStats,
    /// LLC statistics.
    pub cache: CacheStats,
    /// Controller statistics.
    pub mc: McStats,
    /// DRAM device statistics aggregated across channels (commands,
    /// alerts, mitigations).
    pub device: DeviceStats,
    /// Per-channel device statistics, in channel order (`device` is
    /// their field-wise sum; one entry in the default single-channel
    /// configuration). Lets experiments observe per-channel skew, e.g.
    /// alert storms concentrated on one channel.
    pub channel_device: Vec<DeviceStats>,
    /// Energy breakdown for the run.
    pub energy: EnergyBreakdown,
    /// Wall-clock simulated time in nanoseconds.
    pub runtime_ns: f64,
    /// tREFI in memory cycles (for alert-rate normalization).
    pub trefi_cycles: u64,
}

impl RunStats {
    /// Sum of per-core IPCs (the homogeneous-workload throughput
    /// metric; normalized against a baseline run it equals the paper's
    /// weighted-speedup ratio because the "alone" IPCs cancel).
    pub fn ipc_sum(&self) -> f64 {
        self.core_ipc.iter().sum()
    }

    /// Normalized performance vs a baseline run of the same workload
    /// (Fig 14's y-axis; 1.0 = no slowdown).
    pub fn normalized_perf(&self, baseline: &RunStats) -> f64 {
        if baseline.ipc_sum() == 0.0 {
            return 0.0;
        }
        self.ipc_sum() / baseline.ipc_sum()
    }

    /// Weighted speedup against per-core "alone" IPCs:
    /// `sum_i(shared_ipc[i] / alone_ipc[i])`.
    ///
    /// # Panics
    ///
    /// Panics when `alone_ipc` does not provide exactly one baseline per
    /// core — a silent `zip` truncation here would return a wrong sum
    /// (fewer ratio terms), which the mix experiments would quietly
    /// report as a slowdown.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        assert_eq!(
            self.core_ipc.len(),
            alone_ipc.len(),
            "weighted_speedup needs one alone-IPC baseline per core"
        );
        self.core_ipc
            .iter()
            .zip(alone_ipc)
            .map(|(s, a)| if *a == 0.0 { 0.0 } else { s / a })
            .sum()
    }

    /// Alerts per tREFI (Fig 15's y-axis).
    pub fn alerts_per_trefi(&self) -> f64 {
        self.device
            .alerts_per_trefi(self.mem_cycles, self.trefi_cycles)
    }

    /// Row-buffer misses (activations) per kilo-instruction — the
    /// paper's workload-intensity classifier in Figs 14/15.
    pub fn rbmpki(&self) -> f64 {
        if self.cpu.retired == 0 {
            return 0.0;
        }
        self.device.acts as f64 / (self.cpu.retired as f64 / 1000.0)
    }

    /// Total instructions retired across cores.
    pub fn instructions(&self) -> u64 {
        self.cpu.retired
    }

    /// Canonical one-line-per-field rendering of the statistics the
    /// single-channel simulator has always produced. Floats use Rust's
    /// shortest round-trip `{:?}` formatting, so two runs render equal
    /// strings iff the statistics are bit-identical. The golden
    /// differential test pins `channels = 1` runs of the multi-channel
    /// system against a file captured from the pre-refactor code; any
    /// new aggregate field must NOT be added here (it would break the
    /// comparison for the wrong reason).
    pub fn golden_repr(&self) -> String {
        format!(
            "cpu_cycles={:?}\nmem_cycles={:?}\ncore_ipc={:?}\ncpu={:?}\ncache={:?}\nmc={:?}\ndevice={:?}\nenergy={:?}\nruntime_ns={:?}\ntrefi_cycles={:?}",
            self.cpu_cycles,
            self.mem_cycles,
            self.core_ipc,
            self.cpu,
            self.cache,
            self.mc,
            self.device,
            self.energy,
            self.runtime_ns,
            self.trefi_cycles,
        )
    }

    /// Full lossless text form: [`Self::golden_repr`] plus one
    /// `channel_device=[...]` line the golden files deliberately omit.
    /// Like `golden_repr`, equal renderings mean bit-identical
    /// statistics, so it is the reference the binary
    /// [`crate::codec`] is checked against; `qprac-client` prints it.
    pub fn to_cache_text(&self) -> String {
        format!(
            "{}\nchannel_device={:?}",
            self.golden_repr(),
            self.channel_device
        )
    }
}

/// Render a [`BwAttackStats`] in the same `field=value` text form.
pub fn attack_to_text(a: &BwAttackStats) -> String {
    format!(
        "acts={}\nmem_cycles={}\nalerts={}\nrfms={}",
        a.acts, a.mem_cycles, a.alerts, a.rfms
    )
}

/// Geometric mean helper for figure aggregation rows.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_ipc(ipc: &[f64]) -> RunStats {
        RunStats {
            cpu_cycles: 1000,
            mem_cycles: 800,
            core_ipc: ipc.to_vec(),
            cpu: CoreStats {
                retired: 4000,
                cycles: 1000,
                ..Default::default()
            },
            cache: CacheStats::default(),
            mc: McStats::default(),
            device: DeviceStats {
                acts: 40,
                alerts: 2,
                ..Default::default()
            },
            channel_device: vec![DeviceStats {
                acts: 40,
                alerts: 2,
                ..Default::default()
            }],
            energy: EnergyBreakdown::default(),
            runtime_ns: 250.0,
            trefi_cycles: 400,
        }
    }

    #[test]
    fn normalized_perf_is_ipc_ratio() {
        let base = stats_with_ipc(&[1.0, 1.0, 1.0, 1.0]);
        let slow = stats_with_ipc(&[0.9, 0.9, 0.9, 0.9]);
        assert!((slow.normalized_perf(&base) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_sums_ratios() {
        let s = stats_with_ipc(&[1.0, 2.0]);
        let ws = s.weighted_speedup(&[2.0, 2.0]);
        assert!((ws - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one alone-IPC baseline per core")]
    fn weighted_speedup_rejects_length_mismatch() {
        // Regression: `zip` used to silently truncate the longer side,
        // returning a wrong (smaller) sum.
        let s = stats_with_ipc(&[1.0, 2.0]);
        let _ = s.weighted_speedup(&[2.0]);
    }

    #[test]
    fn alerts_per_trefi_normalizes_by_window() {
        let s = stats_with_ipc(&[1.0]);
        // 2 alerts over 800/400 = 2 windows -> 1 per tREFI.
        assert!((s.alerts_per_trefi() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbmpki_counts_acts_per_kiloinstruction() {
        let s = stats_with_ipc(&[1.0]);
        // 40 ACTs / 4 kilo-instructions = 10.
        assert!((s.rbmpki() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        // Zeros are skipped rather than collapsing the mean.
        assert!((geomean([2.0, 0.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}

//! Heterogeneous multi-programmed workload mixes.
//!
//! The paper evaluates four homogeneous copies per workload; the mixes
//! here go beyond it, pairing workloads of different memory intensity,
//! hot-set skew and MLP on the same chip. Each mix names four slots
//! drawn from the [`crate::workloads::all57`] suite; core `i` runs slot
//! `i` with that workload's own MLP cap. Mixed runs are scored by
//! weighted speedup (`sum_i shared_ipc[i] / alone_ipc[i]`): `sim::run_mix`
//! runs a mix, and each alone IPC is a 1-core run of the slot's
//! workload (see the bench crate's `mix_speedup` spec).

use crate::workloads::WorkloadSpec;

/// A named 4-slot heterogeneous mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMix {
    /// `mix/<name>` identifier.
    pub name: &'static str,
    /// Workload per core slot (names from `all57`).
    pub slots: [&'static str; 4],
}

impl WorkloadMix {
    /// Resolve the slots into workload specifications, in core order.
    ///
    /// # Panics
    ///
    /// Panics if a slot names an unknown workload (the unit tests pin
    /// every shipped mix against the suite).
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        self.slots
            .iter()
            .map(|name| {
                WorkloadSpec::by_name(name)
                    .unwrap_or_else(|| panic!("mix {}: unknown workload {name}", self.name))
            })
            .collect()
    }

    /// The distinct workload names appearing in this mix.
    pub fn distinct_workloads(&self) -> Vec<&'static str> {
        let mut names = self.slots.to_vec();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Look up a mix by its `mix/<name>` identifier.
    pub fn by_name(name: &str) -> Option<WorkloadMix> {
        mixes8().into_iter().find(|m| m.name == name)
    }
}

/// The eight shipped mixes, spanning alert-heavy hot sets, streaming
/// bandwidth hogs, compute-bound fillers, a dependence-limited pointer
/// chaser, and skewed combinations that load one core class much harder
/// than the rest.
pub fn mixes8() -> Vec<WorkloadMix> {
    let mix = |name, slots| WorkloadMix { name, slots };
    vec![
        // All four cores hammer hot rows: maximum PSQ/alert pressure.
        mix(
            "mix/hot_quad",
            [
                "ycsb/a_like",
                "ycsb/d_like",
                "tpc/tpcc64_like",
                "spec06/mcf_like",
            ],
        ),
        // Pure streaming: bandwidth-bound but row-buffer friendly.
        mix(
            "mix/stream_quad",
            [
                "spec06/lbm_like",
                "spec06/libquantum_like",
                "hadoop/grep_like",
                "tpc/tpch1_like",
            ],
        ),
        // Cache-resident compute: the low-intensity anchor.
        mix(
            "mix/compute_quad",
            [
                "media/gsm_like",
                "media/mp3_like",
                "spec17/leela_like",
                "spec06/sjeng_like",
            ],
        ),
        // Two hot-set hammers vs two streamers: mitigation overhead must
        // not tax the streaming pair.
        mix(
            "mix/hot_vs_stream",
            [
                "ycsb/a_like",
                "spec06/lbm_like",
                "tpc/tpcc64_like",
                "hadoop/grep_like",
            ],
        ),
        // A dependence-limited pointer chaser among bandwidth consumers:
        // the chaser's alone IPC is tiny, so weighted speedup exposes
        // whether contention starves it further.
        mix(
            "mix/chase_among_streams",
            [
                "ycsb/chase_like",
                "spec06/mcf_like",
                "ycsb/b_like",
                "media/filter_like",
            ],
        ),
        // Memory-bound pair + compute-bound pair: the classic
        // half-and-half fairness scenario.
        mix(
            "mix/half_half",
            [
                "spec06/mcf_like",
                "spec06/lbm_like",
                "media/gsm_like",
                "media/mp3_like",
            ],
        ),
        // Transactional hot pages with a scan and an index walker.
        mix(
            "mix/tpc_floor",
            [
                "tpc/tpcc64_like",
                "tpc/tpch6_like",
                "tpc/tpce_like",
                "spec17/xalancbmk17_like",
            ],
        ),
        // One aggressive hot-set pair against near-idle compute: alert
        // pressure concentrates on the banks (and channels) the hot pair
        // touches — the per-channel-skew stressor.
        mix(
            "mix/skewed_alert",
            [
                "ycsb/a_like",
                "ycsb/f_like",
                "media/gsm_like",
                "spec17/deepsjeng_like",
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_distinct_named_mixes() {
        let mixes = mixes8();
        assert_eq!(mixes.len(), 8);
        let mut names: Vec<&str> = mixes.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "duplicate mix names");
        assert!(names.iter().all(|n| n.starts_with("mix/")));
    }

    #[test]
    fn every_slot_resolves_and_mixes_are_heterogeneous() {
        for m in mixes8() {
            let specs = m.specs();
            assert_eq!(specs.len(), 4);
            assert_eq!(
                m.distinct_workloads().len(),
                4,
                "{}: slots must be four distinct workloads",
                m.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(WorkloadMix::by_name("mix/hot_quad").is_some());
        assert!(WorkloadMix::by_name("mix/nope").is_none());
    }

    #[test]
    fn mixes_span_intensity_within_one_chip() {
        // At least one mix must pair a memory-thrashing slot with a
        // cache-resident one — that contrast is the whole point of
        // weighted-speedup scoring.
        let contrast = mixes8().iter().any(|m| {
            let specs = m.specs();
            let min_bubbles = specs.iter().map(|s| s.params.mean_bubbles).min().unwrap();
            let max_bubbles = specs.iter().map(|s| s.params.mean_bubbles).max().unwrap();
            min_bubbles <= 8 && max_bubbles >= 50
        });
        assert!(contrast, "no mix contrasts memory-bound with compute-bound");
    }

    #[test]
    fn mix_includes_the_pointer_chaser() {
        let chaser = mixes8()
            .iter()
            .any(|m| m.specs().iter().any(|s| s.params.mlp == 1));
        assert!(chaser, "no mix exercises MLP=1 dependence chains");
    }
}

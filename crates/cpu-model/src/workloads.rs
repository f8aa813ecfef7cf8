//! The 57-workload synthetic suite.
//!
//! The paper evaluates 57 traces from SPEC2006, SPEC2017, TPC, Hadoop,
//! MediaBench and YCSB (§V). Those traces are not redistributable, so
//! this module generates deterministic synthetic equivalents: six
//! families whose parameters (memory intensity, footprint, access
//! pattern, hot-set skew, store ratio, dependence depth) span the same
//! qualitative range — from cache-resident compute (<0.1 row-buffer
//! misses per kilo-instruction) to memory-thrashing pointer chasers
//! (>20). Names map 1:1 onto the paper's suites (e.g.
//! `spec06/mcf_like`). See README "Reproducing the paper" for why this
//! substitution preserves the behaviour the evaluation measures.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::{TraceEntry, TraceSource};

/// Memory access pattern family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Sequential sweep with the given line stride.
    Stream {
        /// Stride between consecutive accesses, in lines.
        stride: u64,
    },
    /// Uniform random over the footprint.
    Random,
    /// Hot/cold mixture: with probability `hot_prob` pick uniformly from
    /// the first `hot_frac` of the footprint, else from the remainder.
    /// Produces the hot DRAM rows that exercise Rowhammer trackers.
    HotCold {
        /// Fraction of the footprint that is hot (0, 1).
        hot_frac: f64,
        /// Probability of touching the hot set.
        hot_prob: f64,
    },
    /// Alternate between a streaming phase and a random phase.
    Phased {
        /// Accesses per phase.
        phase_len: u32,
    },
}

/// Generation parameters for one synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Working-set size in 64 B lines.
    pub footprint_lines: u64,
    /// Mean non-memory instructions between memory accesses.
    pub mean_bubbles: u32,
    /// Fraction of accesses that are stores.
    pub store_ratio: f64,
    /// Access pattern.
    pub pattern: Pattern,
    /// Memory-level-parallelism cap for the core running this workload
    /// (1 models pointer chasing).
    pub mlp: usize,
}

/// A named workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// `suite/name` identifier (e.g. `spec06/mcf_like`).
    pub name: &'static str,
    /// Generation parameters.
    pub params: GenParams,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Instantiate the trace generator for this spec, offset by a
    /// per-core salt so homogeneous copies do not alias.
    pub fn source(&self, core_id: u64) -> SyntheticTrace {
        SyntheticTrace::new(
            self.params,
            self.seed ^ (core_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
    }

    /// Look up a workload by its `suite/name` identifier.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        all57().into_iter().find(|w| w.name == name)
    }
}

/// Deterministic synthetic trace generator.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    params: GenParams,
    rng: SmallRng,
    cursor: u64,
    phase_left: u32,
    in_stream_phase: bool,
    /// Base line address: each generator gets a distinct 4 GB region so
    /// homogeneous copies on different cores do not share cache lines
    /// (the paper runs four independent copies).
    base: u64,
}

impl SyntheticTrace {
    /// Create a generator with the given parameters and seed.
    pub fn new(params: GenParams, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = (rng.gen_range(0..16u64)) << 26; // 16 x 4 GB regions (in lines)
        SyntheticTrace {
            params,
            rng,
            cursor: 0,
            phase_left: 0,
            in_stream_phase: true,
            base,
        }
    }

    fn next_line(&mut self) -> u64 {
        let n = self.params.footprint_lines;
        let off = match self.params.pattern {
            Pattern::Stream { stride } => {
                self.cursor = (self.cursor + stride) % n;
                self.cursor
            }
            Pattern::Random => self.rng.gen_range(0..n),
            Pattern::HotCold { hot_frac, hot_prob } => {
                let hot_lines = ((n as f64 * hot_frac) as u64).max(1);
                if self.rng.gen_bool(hot_prob) {
                    self.rng.gen_range(0..hot_lines)
                } else {
                    hot_lines + self.rng.gen_range(0..(n - hot_lines).max(1))
                }
            }
            Pattern::Phased { phase_len } => {
                if self.phase_left == 0 {
                    self.phase_left = phase_len;
                    self.in_stream_phase = !self.in_stream_phase;
                }
                self.phase_left -= 1;
                if self.in_stream_phase {
                    self.cursor = (self.cursor + 1) % n;
                    self.cursor
                } else {
                    self.rng.gen_range(0..n)
                }
            }
        };
        self.base + off
    }
}

impl TraceSource for SyntheticTrace {
    fn next_entry(&mut self) -> TraceEntry {
        // Geometric-ish bubble count around the mean.
        let mean = self.params.mean_bubbles;
        let bubbles = if mean == 0 {
            0
        } else {
            self.rng.gen_range(0..=2 * mean)
        };
        let line = self.next_line();
        let is_store = self.rng.gen_bool(self.params.store_ratio);
        TraceEntry {
            bubbles,
            line,
            is_store,
        }
    }
}

const MB_LINES: u64 = (1 << 20) / 64;

fn spec(
    name: &'static str,
    footprint_mb: u64,
    mean_bubbles: u32,
    store_ratio: f64,
    pattern: Pattern,
    mlp: usize,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        params: GenParams {
            footprint_lines: footprint_mb * MB_LINES,
            mean_bubbles,
            store_ratio,
            pattern,
            mlp,
        },
        seed,
    }
}

/// The full 57-workload suite (10 SPEC2006 + 12 SPEC2017 + 8 TPC +
/// 8 Hadoop + 9 MediaBench + 10 YCSB).
pub fn all57() -> Vec<WorkloadSpec> {
    let hc = |hf, hp| Pattern::HotCold {
        hot_frac: hf,
        hot_prob: hp,
    };
    let st = |s| Pattern::Stream { stride: s };
    let ph = |l| Pattern::Phased { phase_len: l };
    // Hot sets must reach DRAM *and* concentrate: cold traffic over the
    // large footprint keeps thrashing the 8 MB LLC, so even a hot set
    // smaller than the cache keeps missing, and a smaller hot set spans
    // fewer DRAM rows, accumulating per-row activation counts at the
    // paper's rates even in scaled runs. With the MOP-interleaved
    // mapping a 1 MB hot set (hot_frac 1/128 of 128 MB) covers ~4 rows
    // in each of the 32 banks — hot enough to cross N_BO = 32 within
    // ~50 K instructions — while 4 MB+ hot sets spread across 16+ rows
    // per bank and plateau below the alert threshold.
    vec![
        // --- SPEC2006-like: the memory-intensive classics ---
        spec("spec06/mcf_like", 192, 4, 0.15, hc(0.02, 0.6), 4, 101),
        spec("spec06/lbm_like", 384, 6, 0.40, st(3), 16, 102),
        spec("spec06/libquantum_like", 256, 5, 0.10, st(1), 16, 103),
        spec("spec06/milc_like", 256, 8, 0.25, ph(4096), 8, 104),
        spec("spec06/soplex_like", 192, 7, 0.20, hc(0.03, 0.5), 8, 105),
        spec(
            "spec06/omnetpp_like",
            128,
            10,
            0.30,
            hc(0.03125, 0.7),
            4,
            106,
        ),
        spec("spec06/gcc_like", 96, 22, 0.25, ph(1024), 8, 107),
        spec("spec06/sphinx3_like", 160, 9, 0.05, hc(0.025, 0.65), 8, 108),
        spec("spec06/gobmk_like", 24, 45, 0.20, hc(0.5, 0.8), 8, 109),
        spec("spec06/sjeng_like", 12, 60, 0.15, Pattern::Random, 8, 110),
        // --- SPEC2017-like ---
        spec("spec17/mcf17_like", 256, 4, 0.15, hc(0.0156, 0.55), 4, 201),
        spec("spec17/lbm17_like", 512, 5, 0.40, st(3), 16, 202),
        spec("spec17/cactu_like", 384, 7, 0.35, st(7), 12, 203),
        spec("spec17/fotonik3d_like", 320, 6, 0.30, st(2), 16, 204),
        spec("spec17/roms_like", 256, 8, 0.30, ph(8192), 12, 205),
        spec(
            "spec17/xalancbmk17_like",
            128,
            14,
            0.20,
            hc(0.03125, 0.7),
            4,
            206,
        ),
        spec(
            "spec17/omnetpp17_like",
            128,
            11,
            0.30,
            hc(0.03125, 0.7),
            4,
            207,
        ),
        spec("spec17/xz_like", 160, 12, 0.35, ph(2048), 8, 208),
        spec("spec17/wrf_like", 256, 10, 0.30, st(5), 12, 209),
        spec(
            "spec17/deepsjeng_like",
            16,
            55,
            0.15,
            Pattern::Random,
            8,
            210,
        ),
        spec("spec17/leela_like", 8, 70, 0.10, hc(0.15, 0.85), 8, 211),
        spec("spec17/nab_like", 48, 30, 0.20, ph(512), 8, 212),
        // --- TPC-like: transactional hot-page traffic ---
        spec("tpc/tpcc64_like", 128, 6, 0.35, hc(0.0078125, 0.75), 4, 301),
        spec("tpc/tpch1_like", 512, 5, 0.05, st(1), 16, 302),
        spec("tpc/tpch6_like", 448, 5, 0.05, st(2), 16, 303),
        spec("tpc/tpch17_like", 320, 7, 0.10, ph(4096), 8, 304),
        spec("tpc/tpcds_q64_like", 256, 8, 0.15, hc(0.02, 0.6), 8, 305),
        spec("tpc/tpce_like", 192, 9, 0.30, hc(0.02, 0.7), 4, 306),
        spec("tpc/tpcb_like", 160, 7, 0.45, hc(0.03, 0.65), 4, 307),
        spec("tpc/tpcr_like", 192, 10, 0.10, ph(2048), 8, 308),
        // --- Hadoop-like: scan-heavy with shuffle phases ---
        spec("hadoop/grep_like", 512, 6, 0.05, st(1), 16, 401),
        spec("hadoop/wordcount_like", 320, 8, 0.25, ph(8192), 12, 402),
        spec("hadoop/sort_like", 512, 5, 0.45, ph(16384), 12, 403),
        spec("hadoop/terasort_like", 640, 5, 0.45, ph(16384), 12, 404),
        spec("hadoop/pagerank_like", 256, 7, 0.20, hc(0.02, 0.5), 6, 405),
        spec("hadoop/kmeans_like", 256, 9, 0.15, st(4), 12, 406),
        spec("hadoop/bayes_like", 192, 11, 0.20, hc(0.03, 0.55), 8, 407),
        spec("hadoop/join_like", 448, 6, 0.30, Pattern::Random, 8, 408),
        // --- MediaBench-like: streaming kernels, mostly cache friendly ---
        spec("media/h264enc_like", 64, 25, 0.35, st(1), 12, 501),
        spec("media/h264dec_like", 48, 28, 0.30, st(1), 12, 502),
        spec("media/jpeg2000_like", 96, 18, 0.30, st(2), 12, 503),
        spec("media/mpeg4_like", 80, 20, 0.30, ph(1024), 12, 504),
        spec("media/mp3_like", 16, 50, 0.20, st(1), 8, 505),
        spec("media/gsm_like", 8, 65, 0.15, st(1), 8, 506),
        spec("media/aes_like", 12, 40, 0.25, hc(0.2, 0.9), 8, 507),
        spec("media/filter_like", 128, 15, 0.40, st(1), 16, 508),
        spec("media/huffman_like", 32, 35, 0.15, hc(0.1, 0.8), 8, 509),
        // --- YCSB-like: key-value skews, the paper's cloud suite ---
        spec("ycsb/a_like", 128, 7, 0.50, hc(0.03125, 0.8), 4, 601),
        spec("ycsb/b_like", 128, 7, 0.05, hc(0.03125, 0.8), 4, 602),
        spec("ycsb/c_like", 128, 7, 0.0, hc(0.03125, 0.8), 4, 603),
        spec("ycsb/d_like", 192, 8, 0.10, hc(0.02, 0.9), 4, 604),
        spec("ycsb/e_like", 384, 6, 0.05, ph(256), 6, 605),
        spec("ycsb/f_like", 128, 7, 0.30, hc(0.03125, 0.8), 4, 606),
        spec("ycsb/a_uniform", 256, 7, 0.50, Pattern::Random, 4, 607),
        spec("ycsb/b_uniform", 256, 7, 0.05, Pattern::Random, 4, 608),
        spec("ycsb/chase_like", 512, 3, 0.0, Pattern::Random, 1, 609),
        spec("ycsb/scan_like", 448, 6, 0.02, st(1), 16, 610),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_57_distinct_workloads() {
        let all = all57();
        assert_eq!(all.len(), 57);
        let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 57, "duplicate workload names");
    }

    #[test]
    fn lookup_by_name() {
        assert!(WorkloadSpec::by_name("spec06/mcf_like").is_some());
        assert!(WorkloadSpec::by_name("nope/nope").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::by_name("ycsb/a_like").unwrap();
        let mut a = spec.source(0);
        let mut b = spec.source(0);
        for _ in 0..1000 {
            assert_eq!(a.next_entry(), b.next_entry());
        }
    }

    #[test]
    fn cores_get_distinct_streams() {
        let spec = WorkloadSpec::by_name("ycsb/a_like").unwrap();
        let mut a = spec.source(0);
        let mut b = spec.source(1);
        let same = (0..100)
            .filter(|_| a.next_entry() == b.next_entry())
            .count();
        assert!(same < 10, "cores must not alias ({same} identical)");
    }

    #[test]
    fn footprint_bounds_hold() {
        for w in all57() {
            let mut src = w.source(0);
            let n = w.params.footprint_lines;
            for _ in 0..500 {
                let e = src.next_entry();
                let off = e.line - (e.line >> 26 << 26);
                assert!(off < n, "{}: offset {off} out of {n}", w.name);
            }
        }
    }

    #[test]
    fn store_ratio_is_respected() {
        let w = WorkloadSpec::by_name("ycsb/c_like").unwrap(); // 0% stores
        let mut src = w.source(0);
        assert!((0..1000).all(|_| !src.next_entry().is_store));
        let w = WorkloadSpec::by_name("ycsb/a_like").unwrap(); // 50% stores
        let mut src = w.source(0);
        let stores = (0..2000).filter(|_| src.next_entry().is_store).count();
        assert!((800..=1200).contains(&stores), "stores = {stores}");
    }

    #[test]
    fn hotcold_skews_toward_hot_set() {
        let w = WorkloadSpec::by_name("ycsb/a_like").unwrap(); // ~3% hot, 80%
        let mut src = w.source(0);
        let hot_lines = (w.params.footprint_lines as f64 * 0.03125) as u64;
        let hot = (0..5000)
            .filter(|_| {
                let e = src.next_entry();
                (e.line - (e.line >> 26 << 26)) < hot_lines
            })
            .count();
        assert!((3500..=4500).contains(&hot), "hot accesses = {hot}");
    }

    #[test]
    fn stream_pattern_is_sequential() {
        let w = WorkloadSpec::by_name("spec06/libquantum_like").unwrap();
        let mut src = w.source(0);
        let a = src.next_entry().line;
        let b = src.next_entry().line;
        assert_eq!(b, a + 1);
    }

    #[test]
    fn suite_spans_memory_intensity() {
        // The suite must include both compute-bound (big bubbles, small
        // footprint) and memory-bound (tiny bubbles, huge footprint)
        // points, like the paper's mix.
        let all = all57();
        assert!(all
            .iter()
            .any(|w| w.params.mean_bubbles >= 50 && w.params.footprint_lines <= 32 * MB_LINES));
        assert!(all
            .iter()
            .any(|w| w.params.mean_bubbles <= 5 && w.params.footprint_lines >= 256 * MB_LINES));
        // And a dependence-limited pointer chaser.
        assert!(all.iter().any(|w| w.params.mlp == 1));
    }
}

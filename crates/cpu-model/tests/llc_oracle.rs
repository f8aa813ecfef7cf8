//! Differential test of the LLC against a reference model kept in the
//! simplest possible form: one `Way { tag, valid, dirty, lru }` per way
//! with a global access timestamp, the victim being the first invalid
//! way or else the way with the oldest timestamp. Random loads and
//! stores hit, merge into and allocate MSHRs; outstanding misses are
//! filled in random order. Both models must agree on every access
//! result, every fill's waiters (in order) and writeback victim, the
//! statistics and the MSHR occupancy after every step.

use std::collections::HashMap;

use cpu_model::{CacheConfig, CacheStats, Llc, LlcAccess};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

#[derive(Debug, Default)]
struct Mshr {
    waiters: Vec<u64>,
    store_pending: bool,
}

/// Timestamp-LRU reference LLC.
struct RefLlc {
    cfg: CacheConfig,
    ways: Vec<Way>,
    num_sets: u64,
    mshrs: HashMap<u64, Mshr>,
    tick: u64,
    stats: CacheStats,
}

impl RefLlc {
    fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.size_bytes / cfg.line_bytes / cfg.ways as u64;
        let invalid = Way {
            tag: 0,
            valid: false,
            dirty: false,
            lru: 0,
        };
        RefLlc {
            ways: vec![invalid; num_sets as usize * cfg.ways],
            num_sets,
            cfg,
            mshrs: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_ways(&mut self, line: u64) -> (u64, u64, &mut [Way]) {
        let set = line % self.num_sets;
        let tag = line / self.num_sets;
        let w = self.cfg.ways;
        let ways = &mut self.ways[set as usize * w..(set as usize + 1) * w];
        (set, tag, ways)
    }

    fn access(&mut self, line: u64, is_store: bool, token: u64) -> LlcAccess {
        self.tick += 1;
        let tick = self.tick;
        let (_, tag, ways) = self.set_ways(line);
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = tick;
            w.dirty |= is_store;
            self.stats.hits += 1;
            return LlcAccess::Hit;
        }
        if let Some(m) = self.mshrs.get_mut(&line) {
            if is_store {
                m.store_pending = true;
            } else {
                m.waiters.push(token);
            }
            self.stats.merged += 1;
            return LlcAccess::MissMerged;
        }
        if self.mshrs.len() >= self.cfg.mshrs {
            self.stats.blocked += 1;
            return LlcAccess::Blocked;
        }
        let mut m = Mshr::default();
        if is_store {
            m.store_pending = true;
        } else {
            m.waiters.push(token);
        }
        self.mshrs.insert(line, m);
        self.stats.misses += 1;
        LlcAccess::MissFetch
    }

    fn fill(&mut self, line: u64) -> (Vec<u64>, Option<u64>) {
        let m = self.mshrs.remove(&line).expect("fill without MSHR");
        self.tick += 1;
        let tick = self.tick;
        let num_sets = self.num_sets;
        let (set, tag, ways) = self.set_ways(line);
        let mut victim = 0;
        for (i, w) in ways.iter().enumerate() {
            if !w.valid {
                victim = i;
                break;
            }
            if w.lru < ways[victim].lru {
                victim = i;
            }
        }
        let old = ways[victim];
        let writeback = (old.valid && old.dirty).then(|| old.tag * num_sets + set);
        ways[victim] = Way {
            tag,
            valid: true,
            dirty: m.store_pending,
            lru: tick,
        };
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        (m.waiters, writeback)
    }
}

/// One step: a load, a store, or a fill of the `pick`-th outstanding
/// miss (modulo their number).
#[derive(Debug, Clone, Copy)]
enum Op {
    Load(u64),
    Store(u64),
    Fill(usize),
}

fn ops(lines: u64) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0..lines).prop_map(Op::Load),
        (0..lines).prop_map(Op::Store),
        (0usize..64).prop_map(Op::Fill),
        (0usize..64).prop_map(Op::Fill),
    ];
    collection::vec(op, 1..400)
}

fn check(cfg: CacheConfig, ops: &[Op]) {
    let mut llc = Llc::new(cfg);
    let mut oracle = RefLlc::new(cfg);
    // Misses in flight, in the order they were fetched.
    let mut outstanding: Vec<u64> = Vec::new();
    let mut woken = vec![u64::MAX];
    for (step, &op) in ops.iter().enumerate() {
        let token = step as u64;
        match op {
            Op::Load(line) | Op::Store(line) => {
                let store = matches!(op, Op::Store(_));
                let got = llc.access(line, store, if store { u64::MAX } else { token });
                let want = oracle.access(line, store, if store { u64::MAX } else { token });
                assert_eq!(got, want, "step {step}: {op:?}");
                if got == LlcAccess::MissFetch {
                    outstanding.push(line);
                }
            }
            Op::Fill(pick) => {
                if outstanding.is_empty() {
                    continue;
                }
                let line = outstanding.remove(pick % outstanding.len());
                let (want_waiters, want_wb) = oracle.fill(line);
                // Alternate the two fill entry points; `fill_into`
                // appends after whatever the buffer already holds.
                let (waiters, writeback) = if step % 2 == 0 {
                    let out = llc.fill(line);
                    (out.waiters, out.writeback)
                } else {
                    let kept = woken.len();
                    let wb = llc.fill_into(line, &mut woken);
                    (woken.split_off(kept), wb)
                };
                assert_eq!(waiters, want_waiters, "step {step}: waiters of {line}");
                assert_eq!(writeback, want_wb, "step {step}: victim of {line}");
            }
        }
        assert_eq!(*llc.stats(), oracle.stats, "step {step}: stats");
        assert_eq!(llc.mshrs_in_use(), oracle.mshrs.len(), "step {step}: MSHRs");
    }
    assert_eq!(woken, vec![u64::MAX], "fill_into must only append");
}

fn geometry(sets: u64, ways: usize, mshrs: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * ways as u64 * 64,
        ways,
        line_bytes: 64,
        hit_latency: 40,
        mshrs,
    }
}

proptest! {
    /// 4 sets x 2 ways, 4 MSHRs: eight tags compete for each set.
    #[test]
    fn tiny_geometry_matches_reference(ops in ops(32)) {
        check(geometry(4, 2, 4), &ops);
    }

    /// 16 sets x 8 ways, 6 MSHRs: sixteen tags compete for each set.
    #[test]
    fn eight_way_geometry_matches_reference(ops in ops(256)) {
        check(geometry(16, 8, 6), &ops);
    }
}

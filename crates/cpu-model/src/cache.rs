//! Shared last-level cache: 8 MB, 8-way, 64 B lines, LRU, write-back /
//! write-allocate, with MSHR-based miss tracking (paper Table II).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for line addresses (the MSHR map is keyed by
/// `u64` lines; SipHash is overkill on this per-miss path).
#[derive(Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn finish(&self) -> u64 {
        // Fibonacci multiply-shift: spreads sequential line addresses.
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// LLC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in CPU cycles (L1/L2 are not modeled separately; this
    /// is the load-to-use latency of an LLC hit).
    pub hit_latency: u64,
    /// Outstanding misses tracked (MSHRs).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Paper Table II: 8 MB shared, 8-way, 64 B lines. 64 MSHRs serve
    /// the four cores' combined load and write-allocate misses.
    pub fn paper_default() -> Self {
        CacheConfig {
            size_bytes: 8 << 20,
            ways: 8,
            line_bytes: 64,
            hit_latency: 40,
            mshrs: 64,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcAccess {
    /// Line present; data available after the hit latency.
    Hit,
    /// Miss: a memory fetch for this line must be issued by the caller.
    MissFetch,
    /// Miss on a line already being fetched; the access was merged into
    /// the existing MSHR.
    MissMerged,
    /// No MSHR available — the access must be retried later.
    Blocked,
}

/// Outcome of a fill: tokens to wake and an optional dirty eviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillOutcome {
    /// Load tokens waiting on this line.
    pub waiters: Vec<u64>,
    /// Dirty line that must be written back to memory, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Default, Clone)]
struct Mshr {
    waiters: Vec<u64>,
    store_pending: bool,
}

/// LLC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub merged: u64,
    pub blocked: u64,
    pub writebacks: u64,
}

/// Dirty flag in a way's `meta` byte; the low bits hold its LRU age.
const DIRTY: u8 = 0x80;
/// LRU age mask of a `meta` byte: 0 is the most recently used valid
/// way of its set, `valid ways - 1` the least.
const AGE: u8 = 0x7f;
/// Stands for the age of an invalid way: older than any valid one.
const INVALID_AGE: u8 = AGE + 1;

/// The shared last-level cache.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: CacheConfig,
    /// Way tags, set `s` at `tags[base + s * ways ..][..ways]`, stored as
    /// `tag + 1` so that 0 marks an invalid way. `base` aligns the array
    /// to 64 bytes, so an 8-way set is exactly one host cache line (the
    /// hit scan touches nothing else). A clone keeps `base`, so it may
    /// lose the alignment but never a result.
    tags: Vec<u64>,
    base: usize,
    /// Per-way dirty bit and LRU age, indexed like `tags` minus `base`.
    /// Ages rank the valid ways of a set by recency, which picks the
    /// same victim as per-access timestamps in an eighth of the space.
    meta: Vec<u8>,
    num_sets: u64,
    mshrs: LineMap<Mshr>,
    /// Emptied waiter lists of retired MSHRs, reused by new misses.
    free_waiters: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Llc {
    /// Build an LLC from the configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.size_bytes / cfg.line_bytes / cfg.ways as u64;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            (1..=INVALID_AGE as usize).contains(&cfg.ways),
            "associativity must fit the LRU age field"
        );
        let lines = num_sets as usize * cfg.ways;
        // Zeroed allocations stay untouched until first use; seven
        // spare slots leave room to start on a 64-byte boundary.
        let tags = vec![0u64; lines + 7];
        let base = (tags.as_ptr() as usize).wrapping_neg() % 64 / 8;
        Llc {
            tags,
            base,
            meta: vec![0u8; lines],
            num_sets,
            cfg,
            mshrs: LineMap::default(),
            free_waiters: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Cache configuration.
    pub fn cfg(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_of(&self, line: u64) -> usize {
        (line & (self.num_sets - 1)) as usize
    }

    fn tag_of(&self, line: u64) -> u64 {
        line >> self.num_sets.trailing_zeros()
    }

    /// Make way `first + way` the most recently used of its set: every
    /// valid way younger than its old age `age` (`INVALID_AGE` for a way
    /// that was invalid) ages by one.
    fn promote(&mut self, first: usize, way: usize, age: u8) {
        let ways = self.cfg.ways;
        let tags = &self.tags[self.base + first..][..ways];
        for (m, &t) in self.meta[first..first + ways].iter_mut().zip(tags) {
            if t != 0 && *m & AGE < age {
                *m += 1;
            }
        }
        self.meta[first + way] &= DIRTY;
    }

    /// Access `line`. For loads, `token` identifies the waiter to wake on
    /// fill; stores pass `token = u64::MAX` and are posted (write-
    /// allocate: a missing store triggers a fetch and dirties the line on
    /// fill).
    pub fn access(&mut self, line: u64, is_store: bool, token: u64) -> LlcAccess {
        let first = self.set_of(line) * self.cfg.ways;
        let key = self.tag_of(line) + 1;
        let tags = &self.tags[self.base + first..][..self.cfg.ways];
        if let Some(way) = tags.iter().position(|&t| t == key) {
            self.promote(first, way, self.meta[first + way] & AGE);
            if is_store {
                self.meta[first + way] |= DIRTY;
            }
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
        let mut m = Mshr {
            waiters: self.free_waiters.pop().unwrap_or_default(),
            store_pending: is_store,
        };
        if !is_store {
            m.waiters.push(token);
        }
        self.mshrs.insert(line, m);
        self.stats.misses += 1;
        LlcAccess::MissFetch
    }

    /// Install `line` after its memory fetch completes, appending the
    /// load tokens to wake to `waiters` (in arrival order). Returns the
    /// dirty line evicted to make room, if any.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR exists for `line` (fills must match fetches).
    pub fn fill_into(&mut self, line: u64, waiters: &mut Vec<u64>) -> Option<u64> {
        let mut m = self.mshrs.remove(&line).expect("fill without MSHR");
        waiters.append(&mut m.waiters);
        self.free_waiters.push(m.waiters);
        let set = self.set_of(line);
        let first = set * self.cfg.ways;
        let tags = &self.tags[self.base + first..][..self.cfg.ways];
        // Victim: the first invalid way, else the least recently used.
        let (victim, age) = match tags.iter().position(|&t| t == 0) {
            Some(way) => (way, INVALID_AGE),
            None => {
                let ages = &self.meta[first..first + self.cfg.ways];
                let way = (0..ages.len())
                    .max_by_key(|&w| ages[w] & AGE)
                    .expect("non-empty set");
                (way, ages[way] & AGE)
            }
        };
        let old = tags[victim];
        let writeback = if old != 0 && self.meta[first + victim] & DIRTY != 0 {
            self.stats.writebacks += 1;
            // Reconstruct the victim's line address.
            Some((old - 1) << self.num_sets.trailing_zeros() | set as u64)
        } else {
            None
        };
        self.promote(first, victim, age);
        self.tags[self.base + first + victim] = self.tag_of(line) + 1;
        self.meta[first + victim] = if m.store_pending { DIRTY } else { 0 };
        writeback
    }

    /// [`fill_into`](Self::fill_into) returning the waiters in a fresh
    /// `Vec`.
    pub fn fill(&mut self, line: u64) -> FillOutcome {
        let mut waiters = Vec::new();
        let writeback = self.fill_into(line, &mut waiters);
        FillOutcome { waiters, writeback }
    }

    /// Outstanding misses.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 4 sets x 2 ways.
        Llc::new(CacheConfig {
            size_bytes: 4 * 2 * 64,
            ways: 2,
            line_bytes: 64,
            hit_latency: 40,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0, false, 1), LlcAccess::MissFetch);
        let out = c.fill(0);
        assert_eq!(out.waiters, vec![1]);
        assert_eq!(out.writeback, None);
        assert_eq!(c.access(0, false, 2), LlcAccess::Hit);
    }

    #[test]
    fn merged_misses_share_one_fetch() {
        let mut c = tiny();
        assert_eq!(c.access(0, false, 1), LlcAccess::MissFetch);
        assert_eq!(c.access(0, false, 2), LlcAccess::MissMerged);
        let out = c.fill(0);
        assert_eq!(out.waiters, vec![1, 2]);
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut c = tiny();
        for line in 0..4 {
            assert_eq!(c.access(line, false, line), LlcAccess::MissFetch);
        }
        assert_eq!(c.access(4, false, 9), LlcAccess::Blocked);
        assert_eq!(c.stats().blocked, 1);
    }

    #[test]
    fn lru_evicts_oldest_and_writes_back_dirty() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.access(0, true, u64::MAX); // store miss -> dirty on fill
        c.fill(0);
        c.access(4, false, 1);
        c.fill(4);
        // Set 0 full: {0 dirty, 4}. Touch 4 to make 0 the LRU.
        assert_eq!(c.access(4, false, 2), LlcAccess::Hit);
        c.access(8, false, 3);
        let out = c.fill(8);
        assert_eq!(out.writeback, Some(0), "dirty LRU line 0 evicted");
        // Line 0 is gone, line 4 still present.
        assert_eq!(c.access(4, false, 4), LlcAccess::Hit);
        assert_eq!(c.access(8, false, 5), LlcAccess::Hit);
    }

    #[test]
    fn store_allocate_dirties_line() {
        let mut c = tiny();
        assert_eq!(c.access(1, true, u64::MAX), LlcAccess::MissFetch);
        let out = c.fill(1);
        assert!(out.waiters.is_empty(), "stores wake nobody");
        // Evicting it later must write back.
        c.access(5, false, 1);
        c.fill(5);
        c.access(9, false, 2);
        let out = c.fill(9);
        assert_eq!(out.writeback, Some(1));
    }

    #[test]
    fn paper_geometry() {
        let c = Llc::new(CacheConfig::paper_default());
        assert_eq!(c.num_sets, 16384);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Llc {
        Llc::new(CacheConfig {
            size_bytes: 4 * 2 * 64,
            ways: 2,
            line_bytes: 64,
            hit_latency: 40,
            mshrs: 4,
        })
    }

    proptest! {
        /// After any access sequence (with fills applied immediately),
        /// the most recently accessed `ways` lines of a set are resident.
        #[test]
        fn recent_lines_are_resident(lines in proptest::collection::vec(0u64..32, 1..100)) {
            let mut c = tiny();
            for &l in &lines {
                match c.access(l, false, 0) {
                    LlcAccess::MissFetch => { c.fill(l); }
                    LlcAccess::Hit => {}
                    other => prop_assert!(false, "unexpected {other:?}"),
                }
            }
            // The last access must now hit.
            let last = *lines.last().unwrap();
            prop_assert_eq!(c.access(last, false, 0), LlcAccess::Hit);
        }

        /// Stats identity: hits + misses + merged + blocked == accesses.
        #[test]
        fn stats_partition_accesses(ops in proptest::collection::vec((0u64..16, any::<bool>()), 1..200)) {
            let mut c = tiny();
            for &(l, st) in &ops {
                if c.access(l, st, 0) == LlcAccess::MissFetch { c.fill(l); }
            }
            let s = *c.stats();
            prop_assert_eq!(
                s.hits + s.misses + s.merged + s.blocked,
                ops.len() as u64
            );
        }
    }
}

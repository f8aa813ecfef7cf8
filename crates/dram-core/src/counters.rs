//! Per-row PRAC activation counters for one bank.
//!
//! PRAC adds an activation counter to every DRAM row, incremented inside
//! the (stretched) precharge of each activation. The counters live with
//! the *host* (the timing-accurate device or the activation-level security
//! engine), not with the mitigation tracker: trackers observe counts
//! through the [`CounterAccess`] trait and never own them, mirroring the
//! split between the DRAM array and the small CAM logic in real hardware.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::types::RowId;

/// Read/modify access to a bank's PRAC counters, handed to mitigation
/// trackers during RFM and REF callbacks.
pub trait CounterAccess {
    /// Current activation count of `row`.
    fn count(&self, row: RowId) -> u32;
    /// Reset `row`'s counter to zero (the mitigation "activates" the row to
    /// reset its counter, per paper §III-C2).
    fn reset(&mut self, row: RowId);
    /// Number of rows in the bank.
    fn num_rows(&self) -> u32;
    /// The `n` rows with the highest activation counts, in descending
    /// count order. Exact when the host maintains an ordered index;
    /// otherwise computed by a linear scan.
    fn top_n(&self, n: usize) -> Vec<(RowId, u32)>;
}

/// Multiply-shift hasher for row ids (SipHash is overkill on the
/// per-activation path).
#[derive(Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v);
    }

    fn finish(&self) -> u64 {
        // Fibonacci multiply-shift: spreads sequential row ids.
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Per-row counters holding only the rows with a non-zero count, with
/// an optional ordered index.
///
/// A bank has 128 K rows in the paper geometry, but a run touches a few
/// thousand at most: a sparse map keeps construction free and the
/// touched working set small enough to stay cache-resident, where a
/// dense array spreads the same counts over 512 KB per bank.
///
/// The ordered index (`BTreeSet<(count, row)>`) costs O(log rows) per
/// update and is only needed by oracle trackers (QPRAC-Ideal / UPRAC) that
/// must know the global top-N; it is disabled by default.
#[derive(Debug, Clone)]
pub struct PracCounters {
    counts: HashMap<u32, u32, BuildHasherDefault<RowHasher>>,
    rows: u32,
    ordered: Option<BTreeSet<(u32, u32)>>,
    total_acts: u64,
}

impl PracCounters {
    /// Create counters for a bank with `rows` rows.
    pub fn new(rows: u32, track_order: bool) -> Self {
        PracCounters {
            counts: HashMap::default(),
            rows,
            ordered: track_order.then(BTreeSet::new),
            total_acts: 0,
        }
    }

    /// Increment `row`'s counter (one activation or one victim refresh)
    /// and return the post-increment value.
    pub fn increment(&mut self, row: RowId) -> u32 {
        assert!(row.0 < self.rows, "row out of range");
        let slot = self.counts.entry(row.0).or_insert(0);
        let old = *slot;
        let new = old.saturating_add(1);
        *slot = new;
        self.total_acts += 1;
        if let Some(ordered) = &mut self.ordered {
            if old > 0 {
                ordered.remove(&(old, row.0));
            }
            ordered.insert((new, row.0));
        }
        new
    }

    /// Total increments applied over the counters' lifetime.
    pub fn total_activations(&self) -> u64 {
        self.total_acts
    }

    /// Maximum counter value currently stored.
    pub fn max_count(&self) -> u32 {
        if let Some(ordered) = &self.ordered {
            ordered.iter().next_back().map_or(0, |&(c, _)| c)
        } else {
            self.counts.values().copied().max().unwrap_or(0)
        }
    }

    /// Iterate over all `(row, count)` pairs with non-zero counts, in
    /// ascending row order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (RowId, u32)> + '_ {
        let mut all: Vec<(RowId, u32)> = self.counts.iter().map(|(&r, &c)| (RowId(r), c)).collect();
        all.sort_unstable_by_key(|&(r, _)| r);
        all.into_iter()
    }
}

impl CounterAccess for PracCounters {
    fn count(&self, row: RowId) -> u32 {
        assert!(row.0 < self.rows, "row out of range");
        self.counts.get(&row.0).copied().unwrap_or(0)
    }

    fn reset(&mut self, row: RowId) {
        assert!(row.0 < self.rows, "row out of range");
        // Only non-zero counts are stored, so a present entry is > 0.
        let Some(old) = self.counts.remove(&row.0) else {
            return;
        };
        if let Some(ordered) = &mut self.ordered {
            ordered.remove(&(old, row.0));
        }
    }

    fn num_rows(&self) -> u32 {
        self.rows
    }

    fn top_n(&self, n: usize) -> Vec<(RowId, u32)> {
        if n == 0 {
            return Vec::new();
        }
        if let Some(ordered) = &self.ordered {
            ordered
                .iter()
                .rev()
                .take(n)
                .map(|&(c, r)| (RowId(r), c))
                .collect()
        } else {
            // Linear selection: adequate for tests and small banks. Ties
            // break toward the higher row id to match the ordered index,
            // so the result is independent of the map's order.
            let mut all: Vec<(RowId, u32)> =
                self.counts.iter().map(|(&r, &c)| (RowId(r), c)).collect();
            all.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
            all.truncate(n);
            all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_and_reset_round_trip() {
        let mut c = PracCounters::new(16, false);
        assert_eq!(c.increment(RowId(3)), 1);
        assert_eq!(c.increment(RowId(3)), 2);
        assert_eq!(c.count(RowId(3)), 2);
        c.reset(RowId(3));
        assert_eq!(c.count(RowId(3)), 0);
        assert_eq!(c.total_activations(), 2);
    }

    #[test]
    fn top_n_orders_by_count_desc() {
        let mut c = PracCounters::new(16, false);
        for _ in 0..5 {
            c.increment(RowId(1));
        }
        for _ in 0..9 {
            c.increment(RowId(7));
        }
        c.increment(RowId(2));
        let top = c.top_n(2);
        assert_eq!(top, vec![(RowId(7), 9), (RowId(1), 5)]);
    }

    #[test]
    fn ordered_index_agrees_with_scan() {
        let mut indexed = PracCounters::new(64, true);
        let mut plain = PracCounters::new(64, false);
        // Deterministic pseudo-random walk.
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let row = RowId((x >> 33) as u32 % 64);
            indexed.increment(row);
            plain.increment(row);
            if x.is_multiple_of(17) {
                indexed.reset(row);
                plain.reset(row);
            }
        }
        assert_eq!(indexed.top_n(8), plain.top_n(8));
        assert_eq!(indexed.max_count(), plain.max_count());
    }

    #[test]
    fn reset_of_zero_row_is_noop() {
        let mut c = PracCounters::new(4, true);
        c.reset(RowId(0));
        assert_eq!(c.count(RowId(0)), 0);
        assert_eq!(c.top_n(4), vec![]);
    }

    #[test]
    fn top_n_zero_is_empty() {
        let mut c = PracCounters::new(4, false);
        c.increment(RowId(1));
        assert!(c.top_n(0).is_empty());
    }

    #[test]
    fn max_count_tracks_maximum() {
        let mut c = PracCounters::new(8, true);
        assert_eq!(c.max_count(), 0);
        for i in 0..5 {
            for _ in 0..=i {
                c.increment(RowId(i));
            }
        }
        assert_eq!(c.max_count(), 5);
        c.reset(RowId(4));
        assert_eq!(c.max_count(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Inc(u32),
        Reset(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![(0u32..32).prop_map(Op::Inc), (0u32..32).prop_map(Op::Reset),]
    }

    proptest! {
        /// The ordered index must behave identically to the plain dense
        /// array under any interleaving of increments and resets.
        #[test]
        fn ordered_index_is_consistent(ops in proptest::collection::vec(op_strategy(), 1..500)) {
            let mut indexed = PracCounters::new(32, true);
            let mut plain = PracCounters::new(32, false);
            for op in ops {
                match op {
                    Op::Inc(r) => {
                        let a = indexed.increment(RowId(r));
                        let b = plain.increment(RowId(r));
                        prop_assert_eq!(a, b);
                    }
                    Op::Reset(r) => {
                        indexed.reset(RowId(r));
                        plain.reset(RowId(r));
                    }
                }
            }
            prop_assert_eq!(indexed.top_n(5), plain.top_n(5));
            prop_assert_eq!(indexed.max_count(), plain.max_count());
            for r in 0..32 {
                prop_assert_eq!(indexed.count(RowId(r)), plain.count(RowId(r)));
            }
        }
    }
}

//! The Priority-based Service Queue (PSQ) — the paper's central data
//! structure (§III-B, Fig 5).
//!
//! The PSQ is a small CAM holding `(RowID, activation count)` pairs,
//! logically sorted by count. Its insertion policy is what distinguishes
//! it from the FIFO queues that make Panopticon and UPRAC insecure:
//!
//! - On a *hit* (activated row already present) the entry's count is
//!   updated in place to the in-DRAM PRAC count.
//! - On a *miss* the row is inserted if the queue has a free slot, or if
//!   its count exceeds the lowest count in the queue, in which case the
//!   lowest-count entry is evicted.
//!
//! Because insertion is by priority, the queue being full never causes a
//! highly activated row to be lost — the property the paper's security
//! argument (§IV-B) rests on, and which `fill_escape` attacks exploit in
//! FIFO designs.

use dram_core::RowId;

/// One PSQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsqEntry {
    /// Tracked row.
    pub row: RowId,
    /// Last observed PRAC activation count for the row.
    pub count: u32,
}

/// What a [`Psq::offer_outcome`] call did — the observable form of the
/// insertion policy, for event tracing and queue-dynamics probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// The row was already tracked; its count was updated in place.
    Hit,
    /// The row was inserted into a free slot.
    Inserted,
    /// The row was inserted by evicting the minimum entry (returned).
    Evicted(PsqEntry),
    /// The count did not strictly beat the queue minimum (or was zero);
    /// the queue is unchanged.
    Rejected,
}

/// A priority-based service queue with a fixed number of entries.
///
/// The entries are kept sorted by `(count, row)`, ascending: the entry
/// the queue services (highest count, ties toward the higher row id) is
/// the last one and the eviction candidate (lowest count, ties toward
/// the lower row id) the first, so the per-ACT `max_count` check and
/// `peek_max`/`pop_max` are O(1), and an offer costs one row scan plus
/// a short bubble to restore the order.
///
/// ```
/// use qprac::Psq;
/// use dram_core::RowId;
///
/// let mut psq = Psq::new(2);
/// psq.offer(RowId(1), 5);
/// psq.offer(RowId(2), 9);
/// psq.offer(RowId(3), 2);            // lower than both -> rejected
/// assert_eq!(psq.peek_max().unwrap().row, RowId(2));
/// psq.offer(RowId(3), 7);            // beats the min (row 1, count 5)
/// assert!(psq.contains(RowId(3)));
/// assert!(!psq.contains(RowId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Psq {
    /// Sorted by `(count, row)`, ascending.
    entries: Vec<PsqEntry>,
    capacity: usize,
}

impl Psq {
    /// Create a PSQ with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PSQ capacity must be positive");
        Psq {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `row` is currently tracked.
    pub fn contains(&self, row: RowId) -> bool {
        self.entries.iter().any(|e| e.row == row)
    }

    /// Offer an activation observation to the queue (hit-update or
    /// priority insertion). Returns `true` if the row is tracked after
    /// the call.
    pub fn offer(&mut self, row: RowId, count: u32) -> bool {
        match self.offer_outcome(row, count) {
            OfferOutcome::Rejected => count == 0 && self.contains(row),
            _ => true,
        }
    }

    /// [`Psq::offer`] reporting what happened (for tracing).
    pub fn offer_outcome(&mut self, row: RowId, count: u32) -> OfferOutcome {
        if count == 0 {
            return OfferOutcome::Rejected;
        }
        let entry = PsqEntry { row, count };
        if let Some(idx) = self.entries.iter().position(|e| e.row == row) {
            self.entries[idx].count = count;
            self.reorder(idx);
            return OfferOutcome::Hit;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            self.reorder(self.entries.len() - 1);
            return OfferOutcome::Inserted;
        }
        // Full: replace the minimum only if strictly exceeded (paper:
        // "inserts only rows with activation counts higher than the
        // lowest count in the queue").
        let min = self.entries[0];
        if count > min.count {
            self.entries[0] = entry;
            self.reorder(0);
            OfferOutcome::Evicted(min)
        } else {
            OfferOutcome::Rejected
        }
    }

    /// The entry with the highest count (ties broken toward the higher
    /// row id for determinism), without removing it.
    pub fn peek_max(&self) -> Option<PsqEntry> {
        self.entries.last().copied()
    }

    /// Remove and return the entry with the highest count.
    pub fn pop_max(&mut self) -> Option<PsqEntry> {
        self.entries.pop()
    }

    /// Remove `row` if tracked (used when the host mitigates a row via a
    /// path the queue did not nominate).
    pub fn remove(&mut self, row: RowId) -> Option<PsqEntry> {
        let idx = self.entries.iter().position(|e| e.row == row)?;
        Some(self.entries.remove(idx))
    }

    /// Highest count currently tracked (0 when empty).
    pub fn max_count(&self) -> u32 {
        self.entries.last().map_or(0, |e| e.count)
    }

    /// Lowest count currently tracked (0 when empty).
    pub fn min_count(&self) -> u32 {
        self.entries.first().map_or(0, |e| e.count)
    }

    /// Iterate over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &PsqEntry> {
        self.entries.iter()
    }

    /// Move the entry at `idx`, whose count just changed, back into
    /// `(count, row)` order by shifting its neighbors over it. Rows are
    /// unique, so the keys never tie.
    fn reorder(&mut self, idx: usize) {
        let e = self.entries[idx];
        let key = |e: &PsqEntry| (e.count, e.row);
        let mut i = idx;
        while i + 1 < self.entries.len() && key(&self.entries[i + 1]) < key(&e) {
            self.entries[i] = self.entries[i + 1];
            i += 1;
        }
        if i == idx {
            while i > 0 && key(&e) < key(&self.entries[i - 1]) {
                self.entries[i] = self.entries[i - 1];
                i -= 1;
            }
        }
        self.entries[i] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_free_slots_first() {
        let mut q = Psq::new(3);
        assert!(q.offer(RowId(1), 1));
        assert!(q.offer(RowId(2), 1));
        assert!(q.offer(RowId(3), 1));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn hit_updates_count_in_place() {
        let mut q = Psq::new(2);
        q.offer(RowId(1), 3);
        q.offer(RowId(1), 7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_max().unwrap().count, 7);
    }

    #[test]
    fn full_queue_rejects_equal_or_lower_counts() {
        let mut q = Psq::new(2);
        q.offer(RowId(1), 5);
        q.offer(RowId(2), 5);
        // Equal to the min: rejected (strict comparison, per paper).
        assert!(!q.offer(RowId(3), 5));
        // Below the min: rejected.
        assert!(!q.offer(RowId(4), 4));
        assert!(!q.contains(RowId(3)));
    }

    #[test]
    fn full_queue_evicts_minimum_for_higher_count() {
        let mut q = Psq::new(2);
        q.offer(RowId(1), 5);
        q.offer(RowId(2), 9);
        assert!(q.offer(RowId(3), 6));
        assert!(q.contains(RowId(2)));
        assert!(q.contains(RowId(3)));
        assert!(!q.contains(RowId(1)));
    }

    #[test]
    fn figure5_scenario() {
        // Fig 5 of the paper: queue [X:31, Y:25, A:4, Z:1]; ACT-A hits and
        // increments in place; ACT-X raises X to 32 = N_BO.
        let mut q = Psq::new(5);
        q.offer(RowId(88), 31); // X
        q.offer(RowId(89), 25); // Y
        q.offer(RowId(90), 4); // A
        q.offer(RowId(91), 1); // Z
        q.offer(RowId(90), 5); // ACT-A: in-place update
        assert_eq!(q.len(), 4);
        q.offer(RowId(88), 32); // ACT-X
        assert_eq!(q.max_count(), 32);
        assert_eq!(q.peek_max().unwrap().row, RowId(88));
    }

    #[test]
    fn pop_max_removes_highest() {
        let mut q = Psq::new(3);
        q.offer(RowId(1), 2);
        q.offer(RowId(2), 8);
        q.offer(RowId(3), 5);
        assert_eq!(q.pop_max().unwrap().row, RowId(2));
        assert_eq!(q.pop_max().unwrap().row, RowId(3));
        assert_eq!(q.pop_max().unwrap().row, RowId(1));
        assert!(q.pop_max().is_none());
    }

    #[test]
    fn offer_outcome_names_what_happened() {
        let mut q = Psq::new(2);
        assert_eq!(q.offer_outcome(RowId(1), 5), OfferOutcome::Inserted);
        assert_eq!(q.offer_outcome(RowId(2), 9), OfferOutcome::Inserted);
        assert_eq!(q.offer_outcome(RowId(1), 6), OfferOutcome::Hit);
        assert_eq!(q.offer_outcome(RowId(3), 6), OfferOutcome::Rejected);
        assert_eq!(
            q.offer_outcome(RowId(3), 7),
            OfferOutcome::Evicted(PsqEntry {
                row: RowId(1),
                count: 6
            })
        );
        assert_eq!(q.offer_outcome(RowId(4), 0), OfferOutcome::Rejected);
    }

    #[test]
    fn zero_count_offers_are_ignored() {
        let mut q = Psq::new(2);
        assert!(!q.offer(RowId(1), 0));
        assert!(q.is_empty());
    }

    #[test]
    fn remove_untracks_row() {
        let mut q = Psq::new(2);
        q.offer(RowId(1), 3);
        assert_eq!(q.remove(RowId(1)).unwrap().count, 3);
        assert!(q.remove(RowId(1)).is_none());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Psq::new(0);
    }

    #[test]
    fn min_and_max_counts() {
        let mut q = Psq::new(4);
        assert_eq!((q.min_count(), q.max_count()), (0, 0));
        q.offer(RowId(1), 3);
        q.offer(RowId(2), 9);
        assert_eq!((q.min_count(), q.max_count()), (3, 9));
    }

    // --- edge cases beyond the doctest ---

    #[test]
    fn capacity_one_behaves_like_moat_slot() {
        // A 1-entry PSQ degenerates to a single max-tracking slot.
        let mut q = Psq::new(1);
        assert!(q.offer(RowId(1), 5));
        assert!(!q.offer(RowId(2), 5), "equal count must not displace");
        assert!(!q.offer(RowId(2), 4), "lower count must not displace");
        assert!(q.contains(RowId(1)));
        assert!(q.offer(RowId(2), 6), "higher count must displace");
        assert!(!q.contains(RowId(1)));
        assert_eq!(
            q.peek_max().unwrap(),
            PsqEntry {
                row: RowId(2),
                count: 6
            }
        );
        // Hit-update still works at capacity 1.
        assert!(q.offer(RowId(2), 9));
        assert_eq!(q.max_count(), 9);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn hit_update_can_change_which_entry_is_min() {
        let mut q = Psq::new(3);
        q.offer(RowId(1), 10);
        q.offer(RowId(2), 20);
        q.offer(RowId(3), 30);
        assert_eq!(q.min_count(), 10);
        // Row 1's in-place update overtakes rows 2 and 3: the min shifts.
        q.offer(RowId(1), 25);
        assert_eq!(q.min_count(), 20);
        // Now an offer beating 20 must evict row 2, not row 1.
        assert!(q.offer(RowId(4), 21));
        assert!(!q.contains(RowId(2)));
        assert!(q.contains(RowId(1)));
        assert!(q.contains(RowId(3)));
    }

    #[test]
    fn hit_update_can_change_which_entry_is_max() {
        let mut q = Psq::new(3);
        q.offer(RowId(1), 10);
        q.offer(RowId(2), 20);
        q.offer(RowId(3), 30);
        assert_eq!(q.peek_max().unwrap().row, RowId(3));
        q.offer(RowId(1), 40);
        assert_eq!(
            q.peek_max().unwrap(),
            PsqEntry {
                row: RowId(1),
                count: 40
            }
        );
        // pop_max drains the updated ordering: 40, 30, 20.
        assert_eq!(q.pop_max().unwrap().row, RowId(1));
        assert_eq!(q.pop_max().unwrap().row, RowId(3));
        assert_eq!(q.pop_max().unwrap().row, RowId(2));
    }

    #[test]
    fn eviction_tie_on_equal_min_counts_removes_lowest_row_id() {
        // Two entries tie for the minimum; the (count, row) order breaks the tie
        // toward the lower row id, so that entry is the one evicted.
        let mut q = Psq::new(3);
        q.offer(RowId(7), 5);
        q.offer(RowId(3), 5);
        q.offer(RowId(9), 8);
        assert!(q.offer(RowId(1), 6));
        assert!(!q.contains(RowId(3)), "tie must evict the lower row id");
        assert!(q.contains(RowId(7)));
        assert!(q.contains(RowId(9)));
        assert!(q.contains(RowId(1)));
    }

    #[test]
    fn peek_max_tie_on_equal_counts_prefers_higher_row_id() {
        let mut q = Psq::new(3);
        q.offer(RowId(2), 9);
        q.offer(RowId(5), 9);
        assert_eq!(q.peek_max().unwrap().row, RowId(5));
        // pop_max uses the same deterministic tie-break.
        assert_eq!(q.pop_max().unwrap().row, RowId(5));
        assert_eq!(q.peek_max().unwrap().row, RowId(2));
    }

    #[test]
    fn peek_and_contains_consistent_after_eviction() {
        let mut q = Psq::new(2);
        q.offer(RowId(1), 5);
        q.offer(RowId(2), 9);
        q.offer(RowId(3), 7); // evicts row 1
        assert!(!q.contains(RowId(1)));
        assert!(q.contains(RowId(2)));
        assert!(q.contains(RowId(3)));
        assert_eq!(
            q.peek_max().unwrap(),
            PsqEntry {
                row: RowId(2),
                count: 9
            }
        );
        assert_eq!(q.len(), 2);
        // The evicted row can re-enter by beating the new minimum.
        assert!(q.offer(RowId(1), 8));
        assert!(!q.contains(RowId(3)));
        assert_eq!(q.min_count(), 8);
    }

    #[test]
    fn full_queue_never_loses_the_hot_row() {
        // §IV-B: the hot row's count only grows, so no burst of colder
        // traffic — including rows that enter by eviction — can displace
        // it from a full queue.
        let hot = RowId(1000);
        let mut q = Psq::new(4);
        let mut hot_count = 0u32;
        for wave in 0u32..64 {
            hot_count += 1;
            q.offer(hot, hot_count);
            // Noise: rotating rows whose counts approach but never reach
            // the hot count, repeatedly filling the other three slots.
            for n in 0..8u32 {
                let noise_count = hot_count.saturating_sub(1).max(1);
                q.offer(RowId(wave * 8 + n), noise_count);
            }
            assert!(q.contains(hot), "hot row lost at wave {wave}");
            assert_eq!(
                q.peek_max().unwrap().row,
                hot,
                "hot row not max at wave {wave}"
            );
            assert_eq!(q.max_count(), hot_count);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference model: complete map of the highest count ever offered
    /// per row (counts in these sequences only grow, like PRAC counts
    /// between mitigations).
    fn run_model(cap: usize, offers: &[(u32, u32)]) -> (Psq, HashMap<u32, u32>) {
        let mut q = Psq::new(cap);
        let mut truth: HashMap<u32, u32> = HashMap::new();
        for &(row, count) in offers {
            let c = truth.entry(row).or_insert(0);
            *c = (*c).max(count);
            q.offer(RowId(row), *c);
        }
        (q, truth)
    }

    proptest! {
        /// §IV-B security property: while full, the PSQ always retains a
        /// row whose count equals the global maximum — the top entry can
        /// never be displaced by lower-count traffic.
        #[test]
        fn psq_always_tracks_the_global_maximum(
            cap in 1usize..6,
            offers in proptest::collection::vec((0u32..20, 1u32..64), 1..200),
        ) {
            let (q, truth) = run_model(cap, &offers);
            let global_max = truth.values().copied().max().unwrap_or(0);
            prop_assert_eq!(q.max_count(), global_max);
        }

        /// The queue never exceeds capacity and never holds duplicates.
        #[test]
        fn psq_capacity_and_uniqueness(
            cap in 1usize..6,
            offers in proptest::collection::vec((0u32..10, 1u32..64), 1..200),
        ) {
            let (q, _) = run_model(cap, &offers);
            prop_assert!(q.len() <= cap);
            let mut rows: Vec<_> = q.iter().map(|e| e.row).collect();
            rows.sort();
            rows.dedup();
            prop_assert_eq!(rows.len(), q.len());
        }

        /// With capacity >= distinct rows, the PSQ holds exactly the truth.
        #[test]
        fn psq_is_exact_when_large_enough(
            offers in proptest::collection::vec((0u32..5, 1u32..64), 1..100),
        ) {
            let (q, truth) = run_model(8, &offers);
            prop_assert_eq!(q.len(), truth.len());
            for e in q.iter() {
                prop_assert_eq!(truth[&e.row.0], e.count);
            }
        }

        /// Under any mix of offers (counts may also fall), pops and
        /// removes, the entries stay sorted by `(count, row)` and the
        /// O(1) reads agree with a full scan.
        #[test]
        fn entries_stay_ordered(
            ops in proptest::collection::vec((0u8..4, 0u32..8, 0u32..32), 1..200),
        ) {
            let mut q = Psq::new(4);
            for (op, row, count) in ops {
                match op {
                    0 | 1 => {
                        q.offer(RowId(row), count);
                    }
                    2 => {
                        q.pop_max();
                    }
                    _ => {
                        q.remove(RowId(row));
                    }
                }
                let keys: Vec<_> = q.iter().map(|e| (e.count, e.row)).collect();
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
                let scan = q.iter().copied().max_by_key(|e| (e.count, e.row));
                prop_assert_eq!(q.peek_max(), scan);
                prop_assert_eq!(q.max_count(), scan.map_or(0, |e| e.count));
                prop_assert_eq!(q.min_count(), q.iter().map(|e| e.count).min().unwrap_or(0));
            }
        }

        /// pop_max drains in non-increasing count order.
        #[test]
        fn pop_max_is_sorted(
            offers in proptest::collection::vec((0u32..10, 1u32..64), 1..100),
        ) {
            let (mut q, _) = run_model(5, &offers);
            let mut last = u32::MAX;
            while let Some(e) = q.pop_max() {
                prop_assert!(e.count <= last);
                last = e.count;
            }
        }
    }
}

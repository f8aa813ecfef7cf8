//! Randomized differential test: the PSQ against a naive sorted-vec
//! oracle that implements the paper's §III-B insertion policy literally.
//! Seeded `StdRng` only — reproducible, no heavy dependencies.

use dram_core::RowId;
use qprac::{Psq, PsqEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Literal transcription of the Fig 5 policy over a vector kept sorted
/// by `(count, row)`: hit-update in place, insert into free slots,
/// otherwise evict the smallest entry iff the newcomer strictly beats
/// it (ties broken toward the lower row id, as in the PSQ's own order).
struct Oracle {
    capacity: usize,
    entries: Vec<(u32, u32)>, // (count, row), kept sorted ascending
}

impl Oracle {
    fn new(capacity: usize) -> Self {
        Oracle {
            capacity,
            entries: Vec::new(),
        }
    }

    fn offer(&mut self, row: u32, count: u32) -> bool {
        if count == 0 {
            return self.entries.iter().any(|&(_, r)| r == row);
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.1 == row) {
            e.0 = count;
        } else if self.entries.len() < self.capacity {
            self.entries.push((count, row));
        } else if count > self.entries[0].0 {
            self.entries[0] = (count, row);
        } else {
            return false;
        }
        self.entries.sort_unstable();
        true
    }

    fn pop_max(&mut self) -> Option<(u32, u32)> {
        self.entries.pop()
    }

    /// Entries as a sorted `(count, row)` set for state comparison.
    fn state(&self) -> Vec<(u32, u32)> {
        self.entries.clone()
    }
}

fn psq_state(q: &Psq) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = q.iter().map(|e| (e.count, e.row.0)).collect();
    v.sort_unstable();
    v
}

/// Drive one random offer/hit sequence through both implementations,
/// checking full-state agreement after every operation.
fn run_sequence(rng: &mut StdRng, ops: usize) {
    let capacity = rng.gen_range(1usize..=8);
    let row_space = rng.gen_range(2u32..40);
    let mut psq = Psq::new(capacity);
    let mut oracle = Oracle::new(capacity);
    // Monotone per-row counts, as PRAC counters behave between resets.
    let mut prac = vec![0u32; row_space as usize];

    for op in 0..ops {
        let row = rng.gen_range(0..row_space);
        // Mostly growing counts (activations); sometimes a stale or zero
        // count (a row mitigated elsewhere re-offered at low priority).
        let count = if rng.gen_bool(0.9) {
            prac[row as usize] += rng.gen_range(1u32..4);
            prac[row as usize]
        } else {
            rng.gen_range(0u32..2)
        };
        let a = psq.offer(RowId(row), count);
        let b = oracle.offer(row, count);
        assert_eq!(
            a, b,
            "offer verdict diverged at op {op} (row {row}, count {count})"
        );
        assert_eq!(
            psq_state(&psq),
            oracle.state(),
            "state diverged at op {op} (row {row}, count {count}, cap {capacity})"
        );
        assert!(psq.len() <= capacity);

        // Occasionally drain the top entry through both, as an alert
        // RFM service would.
        if rng.gen_bool(0.05) {
            let got = psq.pop_max().map(|PsqEntry { row, count }| (count, row.0));
            assert_eq!(got, oracle.pop_max(), "pop_max diverged at op {op}");
        }
    }

    // Final drain must agree element for element.
    loop {
        let got = psq.pop_max().map(|PsqEntry { row, count }| (count, row.0));
        let want = oracle.pop_max();
        assert_eq!(got, want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
}

/// >10 K randomized operations against the oracle: 100 independent
/// > sequences of 150 ops (varying capacity/row-space per sequence)...
#[test]
fn psq_matches_sorted_vec_oracle_many_sequences() {
    let mut rng = StdRng::seed_from_u64(0x9141_5AC0_11EC_7E57);
    for _ in 0..100 {
        run_sequence(&mut rng, 150);
    }
}

/// ...plus one long 10 K-op sequence so per-sequence state (deep PRAC
/// counts, repeated evictions of the same rows) is exercised too.
#[test]
fn psq_matches_sorted_vec_oracle_long_sequence() {
    let mut rng = StdRng::seed_from_u64(0x0DD5_EED5);
    run_sequence(&mut rng, 10_000);
}

/// §IV-B invariant under random traffic: whenever the queue is full, its
/// maximum tracked count equals the global maximum ever offered (with
/// monotone counts the hottest row can never be displaced).
#[test]
fn full_psq_always_retains_the_global_max() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..50 {
        let capacity = rng.gen_range(1usize..=6);
        let mut psq = Psq::new(capacity);
        let mut prac = [0u32; 24];
        let mut global_max = 0u32;
        for _ in 0..200 {
            let row = rng.gen_range(0..24u32);
            prac[row as usize] += rng.gen_range(1u32..8);
            let count = prac[row as usize];
            global_max = global_max.max(count);
            psq.offer(RowId(row), count);
            assert_eq!(psq.max_count(), global_max, "hot row lost (cap {capacity})");
        }
    }
}

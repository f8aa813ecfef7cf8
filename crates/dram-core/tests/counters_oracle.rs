//! Differential test of [`PracCounters`] against a dense `Vec<u32>` of
//! per-row counts, with and without the ordered index. Random
//! increments and resets cover rows 0 through `rows - 1`, both edge
//! rows included; every query the trackers use must agree with the
//! dense array after every step.

use dram_core::{CounterAccess, PracCounters, RowId};
use proptest::prelude::*;

const ROWS: u32 = 1024;

#[derive(Debug, Clone, Copy)]
enum Op {
    Inc(u32),
    Reset(u32),
}

/// Rows skewed toward a small hot set and the two edge rows, so counts
/// grow, tie and get reset.
fn row() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(ROWS - 1), 0u32..8, ROWS - 8..ROWS, 0u32..ROWS]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        row().prop_map(Op::Inc),
        row().prop_map(Op::Inc),
        row().prop_map(Op::Inc),
        row().prop_map(Op::Reset),
    ];
    collection::vec(op, 1..600)
}

/// The reference top-N: non-zero rows by count, ties toward the higher
/// row id.
fn dense_top_n(dense: &[u32], n: usize) -> Vec<(RowId, u32)> {
    let mut all: Vec<(RowId, u32)> = dense
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(r, &c)| (RowId(r as u32), c))
        .collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    all.truncate(n);
    all
}

fn check_queries(c: &PracCounters, dense: &[u32], step: usize) {
    let nonzero: Vec<(RowId, u32)> = dense
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(r, &n)| (RowId(r as u32), n))
        .collect();
    assert_eq!(
        c.iter_nonzero().collect::<Vec<_>>(),
        nonzero,
        "step {step}: iter_nonzero must list non-zero rows in ascending order"
    );
    for k in [0, 1, 5, nonzero.len()] {
        assert_eq!(c.top_n(k), dense_top_n(dense, k), "step {step}: top_n({k})");
    }
    assert_eq!(
        c.max_count(),
        dense.iter().copied().max().unwrap_or(0),
        "step {step}: max_count"
    );
}

fn check(ops: &[Op], track_order: bool) {
    let mut c = PracCounters::new(ROWS, track_order);
    let mut dense = vec![0u32; ROWS as usize];
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Inc(r) => {
                dense[r as usize] += 1;
                assert_eq!(
                    c.increment(RowId(r)),
                    dense[r as usize],
                    "step {step}: {op:?}"
                );
            }
            Op::Reset(r) => {
                dense[r as usize] = 0;
                c.reset(RowId(r));
            }
        }
        let r = match op {
            Op::Inc(r) | Op::Reset(r) => r,
        };
        assert_eq!(c.count(RowId(r)), dense[r as usize], "step {step}: count");
        // The full query set is quadratic in the run; sample it.
        if step % 16 == 0 {
            check_queries(&c, &dense, step);
        }
    }
    for (r, &n) in dense.iter().enumerate() {
        assert_eq!(c.count(RowId(r as u32)), n, "final count of row {r}");
    }
    check_queries(&c, &dense, ops.len());
    assert_eq!(
        c.total_activations(),
        ops.iter().filter(|op| matches!(op, Op::Inc(_))).count() as u64
    );
}

proptest! {
    #[test]
    fn plain_counters_match_dense_reference(ops in ops()) {
        check(&ops, false);
    }

    #[test]
    fn ordered_counters_match_dense_reference(ops in ops()) {
        check(&ops, true);
    }
}

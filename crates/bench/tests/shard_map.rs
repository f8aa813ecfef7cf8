//! Shard-map properties over the *real* key population: the full
//! deduplicated `run_all` cell grid (not synthetic uniform hashes).
//! These bounds are what make the 3-shard CI cluster and the BENCH_09
//! load test meaningful: no shard drowns, and scaling out does not
//! invalidate the cluster's warm caches.

use std::collections::HashSet;

use qprac_bench::experiments::run_all_specs;
use qprac_serve::ShardMap;
use sim::RunKey;

/// The CI cluster's shard list (ports 7131-7133).
const CI_SHARDS: &str = "127.0.0.1:7131,127.0.0.1:7132,127.0.0.1:7133";

fn run_all_keys() -> Vec<RunKey> {
    let mut seen: HashSet<RunKey> = HashSet::new();
    let mut keys = Vec::new();
    for job in run_all_specs().iter().flat_map(|spec| &spec.jobs) {
        let key = job.key();
        if seen.insert(key.clone()) {
            keys.push(key);
        }
    }
    keys
}

/// Satellite pin: over the full run_all key set, the most-loaded shard
/// carries at most 1.35x the least-loaded one. (64 vnodes/shard keeps
/// expected imbalance well under that; a regression here means the
/// ring placement or the key mixing degraded.)
#[test]
fn run_all_population_balances_across_three_shards() {
    let map = ShardMap::from_list(CI_SHARDS);
    let keys = run_all_keys();
    assert!(
        keys.len() > 1000,
        "run_all population shrank to {} keys — balance bound meaningless",
        keys.len()
    );
    let mut counts = vec![0usize; map.len()];
    for key in &keys {
        counts[map.shard_for(key)] += 1;
    }
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(min > 0, "a shard owns nothing: {counts:?}");
    let ratio = max as f64 / min as f64;
    assert!(
        ratio <= 1.35,
        "shard load imbalance {ratio:.3} over {} keys exceeds 1.35: {counts:?}",
        keys.len()
    );
}

/// Satellite pin: growing the CI cluster 3 -> 4 shards moves at most
/// ~1/4 of the real key population (plus slack), and every moved key
/// lands on the new shard — surviving shards never trade keys, so
/// their warm caches stay valid.
#[test]
fn growing_three_to_four_shards_moves_at_most_a_quarter_of_run_all() {
    let three = ShardMap::from_list(CI_SHARDS);
    let four = ShardMap::from_list(&format!("{CI_SHARDS},127.0.0.1:7134"));
    let keys = run_all_keys();
    let mut moved = 0usize;
    for key in &keys {
        let old = three.shard_for(key);
        let new = four.shard_for(key);
        if old != new {
            moved += 1;
            assert_eq!(
                new, 3,
                "key {key} moved between surviving shards ({old} -> {new})"
            );
        }
    }
    let frac = moved as f64 / keys.len() as f64;
    assert!(
        frac <= 0.32,
        "scale-out moved {moved}/{} keys ({frac:.3}) — expected ~0.25",
        keys.len()
    );
    assert!(moved > 0, "the new shard must capture part of the keyspace");
}

/// Cross-process determinism at the bench layer: the runner's executor
/// and any other client build identical maps from the same list (the
/// property that lets CI assert per-shard counters without coordination).
#[test]
fn executor_and_standalone_map_agree_on_every_assignment() {
    let exec = qprac_bench::RemoteExecutor::new(CI_SHARDS);
    let map = ShardMap::from_list(CI_SHARDS);
    for key in run_all_keys().iter().take(200) {
        assert_eq!(exec.shard_map().shard_for(key), map.shard_for(key));
    }
}

//! Client-side consistent-hash routing: which shard owns a [`RunKey`].
//!
//! A [`ShardMap`] places ~[`VNODES_PER_SHARD`] virtual nodes per shard
//! address on a 64-bit hash ring; a key routes to the owner of the
//! first ring point at or after the key's own point. Two properties
//! make this the right router for the simulation cluster:
//!
//! - **Affinity**: the map is a pure function of the shard-address list
//!   and the key text ([`sim::RunKey::hash`] mixed through a SplitMix64
//!   finalizer), so every client process routes the same key to the
//!   same shard — cluster-wide single-flight and cache locality hold
//!   with zero coordination.
//! - **Minimal disruption**: growing N → N+1 shards moves only the keys
//!   whose ring interval the new shard's virtual nodes capture —
//!   ~1/(N+1) of the keyspace — so a scale-out does not invalidate the
//!   whole cluster's warm caches.
//!
//! Ring points come from the same FNV-1a the run cache uses, finalized
//! through SplitMix64's mixer (FNV alone avalanches too weakly in the
//! high bits for ring placement; the mixer costs nothing and spreads
//! both vnode points and key points uniformly).

use sim::RunKey;

/// Virtual nodes per shard: enough that per-shard load over a realistic
/// key population stays within ~±15% of uniform (64 was measurably too
/// coarse: max/min ≈ 1.5 over the real `run_all` population), few
/// enough that the ring stays a cache-resident sorted Vec.
pub const VNODES_PER_SHARD: usize = 256;

/// SplitMix64's finalizer: a cheap, invertible 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over arbitrary bytes (the same constants as
/// [`sim::RunKey::hash`], so the whole routing path shares one hash
/// family).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The ring point of one virtual node.
fn vnode_point(addr: &str, vnode: u64) -> u64 {
    mix(fnv64(addr.as_bytes()) ^ vnode.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A consistent-hash map from canonical run keys to shard addresses.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: Vec<String>,
    /// `(ring point, shard index)`, sorted by point (ties broken by
    /// index, so the ring is deterministic even under collisions).
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Build a map over an ordered shard-address list. Order matters
    /// only for index numbering — ring placement depends on the address
    /// *strings*, so appending a shard never reshuffles existing ones.
    pub fn new<I, S>(shards: I) -> ShardMap
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let shards: Vec<String> = shards.into_iter().map(Into::into).collect();
        let mut ring = Vec::with_capacity(shards.len() * VNODES_PER_SHARD);
        for (i, addr) in shards.iter().enumerate() {
            for v in 0..VNODES_PER_SHARD as u64 {
                ring.push((vnode_point(addr, v), i as u32));
            }
        }
        ring.sort_unstable();
        ShardMap { shards, ring }
    }

    /// Parse the `QPRAC_REMOTE` form: a comma-separated address list
    /// (whitespace and empty entries tolerated).
    pub fn from_list(addrs: &str) -> ShardMap {
        ShardMap::new(
            addrs
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from),
        )
    }

    /// The shard addresses, in index order.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the map has no shards (routing is then impossible and
    /// callers must degrade to local execution).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Shard index owning a raw key hash ([`sim::RunKey::hash`]).
    ///
    /// # Panics
    /// On an empty map — check [`Self::is_empty`] first.
    pub fn shard_for_hash(&self, key_hash: u64) -> usize {
        assert!(!self.ring.is_empty(), "routing on an empty ShardMap");
        let point = mix(key_hash);
        // First vnode at or after the key's point, wrapping at the top.
        let at = self.ring.partition_point(|&(p, _)| p < point);
        let (_, shard) = self.ring[if at == self.ring.len() { 0 } else { at }];
        shard as usize
    }

    /// Shard index owning a key.
    pub fn shard_for(&self, key: &RunKey) -> usize {
        self.shard_for_hash(key.hash())
    }

    /// Shard address owning a key.
    pub fn addr_for(&self, key: &RunKey) -> &str {
        &self.shards[self.shard_for(key)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_shards() -> ShardMap {
        ShardMap::from_list("127.0.0.1:7131,127.0.0.1:7132,127.0.0.1:7133")
    }

    /// Assignment is a pure function of (addresses, key text): these
    /// literal expectations hold in every process, on every run — the
    /// property that makes client-side routing coordination-free. If
    /// this test ever needs updating, the ring changed and every warm
    /// cluster cache is invalidated: bump the protocol notes in the
    /// README's Cluster section.
    #[test]
    fn assignment_is_deterministic_across_processes() {
        let map = three_shards();
        let pins = [
            ("engine:wave:probe", 1usize),
            ("engine:toggle_forget:q=4:t=6", 1),
            ("workload:ycsb/a_like;mit=qprac", 2),
            ("workload:spec06/mcf_like;mit=none", 0),
            ("mix:streaming;mit=qprac", 2),
        ];
        for (text, want) in pins {
            let got = map.shard_for_hash(fnv64(text.as_bytes()));
            assert_eq!(got, want, "key {text:?} moved shards");
        }
        // RunKey routing is exactly the raw-hash routing over the key's
        // canonical text (RunKey::hash is the same FNV-1a).
        let key = RunKey::workload(&sim::SystemConfig::paper_default(), "ycsb/a_like");
        assert_eq!(map.shard_for(&key), map.shard_for_hash(key.hash()));
        assert_eq!(
            map.addr_for(&key),
            &map.shards()[map.shard_for(&key)] as &str
        );
    }

    #[test]
    fn every_shard_owns_part_of_a_uniform_keyspace() {
        let map = three_shards();
        let mut counts = [0usize; 3];
        for i in 0..3000u64 {
            counts[map.shard_for_hash(mix(i))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 500,
                "shard {i} owns {c}/3000 uniform keys — ring badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn single_shard_owns_everything_and_empty_is_detectable() {
        let map = ShardMap::from_list(" 127.0.0.1:7117 , ,");
        assert_eq!(map.shards(), ["127.0.0.1:7117".to_string()]);
        for i in 0..64u64 {
            assert_eq!(map.shard_for_hash(i.wrapping_mul(0x1234_5678_9abc_def1)), 0);
        }
        assert!(ShardMap::from_list("").is_empty());
        assert!(ShardMap::from_list(",, ,").is_empty());
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        let three = three_shards();
        let four =
            ShardMap::from_list("127.0.0.1:7131,127.0.0.1:7132,127.0.0.1:7133,127.0.0.1:7134");
        let mut moved = 0usize;
        const KEYS: usize = 4000;
        for i in 0..KEYS as u64 {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5bd1;
            let old = three.shard_for_hash(h);
            let new = four.shard_for_hash(h);
            if old != new {
                moved += 1;
                assert_eq!(new, 3, "a key moved between two surviving shards");
            }
        }
        // Expected ~1/4; allow statistical slack but pin the bound that
        // makes scale-out cheap.
        assert!(
            moved as f64 / KEYS as f64 <= 0.33,
            "adding one shard moved {moved}/{KEYS} keys"
        );
        assert!(moved > 0, "the new shard must own something");
    }

    #[test]
    #[should_panic(expected = "empty ShardMap")]
    fn routing_on_an_empty_map_panics() {
        ShardMap::from_list("").shard_for_hash(1);
    }
}

//! Fixed log-bucket latency histograms.
//!
//! Buckets are powers of two in microseconds: bucket 0 holds exactly
//! 0 µs, bucket `i` (i ≥ 1) holds `[2^(i-1), 2^i)` µs. The layout is a
//! compile-time constant — no configuration, no allocation, every
//! `record` is two relaxed atomic adds — so histograms can sit on the
//! hottest paths (the serve event loop, the bench scheduler) without
//! contention. A quantile is answered as the *inclusive upper bound* of
//! the bucket where the cumulative count crosses the rank, which
//! over-reports by at most 2x (one bucket width): the right bias for a
//! regression signal, where under-reporting would hide a slowdown.
//!
//! All derived output — quantiles, means, cross-shard merges and the
//! Prometheus exposition served by `METRICS` — is computed from one
//! [`HistSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket 39 holds `[2^38, ∞)` µs (~76 h and up),
/// far beyond any request this suite answers.
pub const BUCKETS: usize = 40;

/// Bucket index for a latency in microseconds. Total function, clamped
/// at the top bucket.
pub fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket in microseconds (`u64::MAX` for
/// the clamped top bucket).
pub fn bucket_upper_us(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A thread-safe fixed log-bucket histogram of microsecond latencies.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record_us(&self, us: u64) {
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Record one observation from a [`std::time::Duration`].
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_us(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Atomically-read copy of the current counts. All rendering,
    /// merging and quantile math goes through this one type; concurrent
    /// recording can make it approximate by a few observations, never
    /// inconsistent enough to panic.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: plain integers, mergeable,
/// and the single source for both text renderings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (same layout as [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values in microseconds.
    pub sum_us: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            sum_us: 0,
        }
    }
}

impl HistSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Arithmetic mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0 < q <= 1`) as a bucket upper bound in µs;
    /// 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, clamped into range.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_us(i);
            }
        }
        bucket_upper_us(BUCKETS - 1)
    }

    /// Fold `other` into `self` (bucket-wise and sum addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.sum_us += other.sum_us;
    }

    /// The Prometheus text-exposition rendering used by `METRICS`:
    /// cumulative `_bucket{le=...}` lines plus `_sum` and `_count`.
    /// Empty histograms still render (a scrape target that has served
    /// nothing is different from one that lacks the metric).
    pub fn render_prometheus(&self, name: &str, out: &mut String) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            let le = if i == BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_upper_us(i).to_string()
            };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_sum {}\n", self.sum_us));
        out.push_str(&format!("{name}_count {}\n", self.count()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket boundaries are part of the observable output format
    /// and must never drift.
    #[test]
    fn bucket_boundaries_are_pinned() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Upper bounds are the largest value each bucket accepts.
        assert_eq!(bucket_upper_us(0), 0);
        assert_eq!(bucket_upper_us(1), 1);
        assert_eq!(bucket_upper_us(2), 3);
        assert_eq!(bucket_upper_us(3), 7);
        assert_eq!(bucket_upper_us(10), 1023);
        assert_eq!(bucket_upper_us(BUCKETS - 1), u64::MAX);
        for us in [0u64, 1, 2, 3, 5, 100, 4097, 1 << 37] {
            let i = bucket_index(us);
            assert!(us <= bucket_upper_us(i), "{us} above its bucket bound");
            if i > 0 {
                assert!(us > bucket_upper_us(i - 1), "{us} fits a lower bucket");
            }
        }
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile_us(0.5), 0, "empty histogram");
        // 90 fast observations (bucket of 10 µs = [8,16) → bound 15)
        // and 10 slow ones (1000 µs → bucket [512,1024) → bound 1023).
        for _ in 0..90 {
            h.record_us(10);
        }
        for _ in 0..10 {
            h.record_us(1000);
        }
        assert_eq!(h.count(), 100);
        let s = h.snapshot();
        assert_eq!(s.quantile_us(0.50), 15);
        assert_eq!(s.quantile_us(0.90), 15);
        assert_eq!(s.quantile_us(0.95), 1023);
        assert_eq!(s.quantile_us(0.99), 1023);
        assert_eq!(s.quantile_us(1.0), 1023);
    }

    #[test]
    fn mean_is_exact_from_running_sum() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().mean_us(), 0);
        h.record_us(10);
        h.record_us(20);
        h.record_us(33);
        assert_eq!(h.snapshot().sum_us, 63);
        assert_eq!(h.snapshot().mean_us(), 21);
    }

    #[test]
    fn p999_needs_one_in_a_thousand() {
        let h = Histogram::default();
        for _ in 0..998 {
            h.record_us(10);
        }
        assert_eq!(h.snapshot().quantile_us(0.999), 15, "all fast so far");
        // Two tail observations: rank ⌈0.999·1000⌉ = 999 lands past the
        // 998 fast ones. Bucket [65536,131072) → bound 131071.
        h.record_us(100_000);
        h.record_us(100_000);
        let s = h.snapshot();
        assert_eq!(s.quantile_us(0.999), 131071, "tail surfaces at p999");
        assert_eq!(s.quantile_us(0.50), 15);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::default();
        let b = Histogram::default();
        for _ in 0..5 {
            a.record_us(10);
        }
        b.record_us(1000);
        b.record_us(10);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.sum_us, 5 * 10 + 1000 + 10);
        assert_eq!(merged.quantile_us(1.0), 1023);
    }

    #[test]
    fn prometheus_renders_cumulative_buckets_sum_and_count() {
        let h = Histogram::default();
        h.record_us(100);
        h.record_us(200);
        let mut prom = String::new();
        h.snapshot().render_prometheus("lat_run_us", &mut prom);
        assert!(prom.contains("# TYPE lat_run_us histogram"), "{prom}");
        // 100 → bucket [64,128) (le=127), 200 → bucket [128,256) (le=255).
        assert!(prom.contains("lat_run_us_bucket{le=\"127\"} 1\n"), "{prom}");
        assert!(prom.contains("lat_run_us_bucket{le=\"255\"} 2\n"), "{prom}");
        assert!(
            prom.contains("lat_run_us_bucket{le=\"+Inf\"} 2\n"),
            "{prom}"
        );
        assert!(prom.contains("lat_run_us_sum 300\n"), "{prom}");
        assert!(prom.contains("lat_run_us_count 2\n"), "{prom}");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Histogram::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        h.record_us(i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().sum_us, 4 * (999 * 1000 / 2));
    }
}

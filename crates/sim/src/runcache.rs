//! The persistent, deduplicating run cache — one file per [`RunKey`] —
//! shared by the bench runner (`qprac_bench::runner`) and the
//! `qprac-serve` disk tier.
//!
//! An entry is `<dir>/<fnv64-of-key>.qbc`: a `QBC1` magic, the
//! length-prefixed canonical key (collision + staleness guard), then
//! the [`crate::codec`] frame — versioned, field-counted, checksummed.
//! Warm hits decode without any text parsing.
//!
//! Any read problem — missing file, bad magic, key mismatch, checksum
//! failure, a frame from an older codec version — is a miss, never an
//! error: the cell re-runs and the entry is rewritten. Entries of the
//! retired `.txt` text format are never read; they only count against
//! the [`RunCache::gc`] budget until they age out.
//!
//! Stores are **crash-safe**: [`RunCache::store`] writes a unique
//! same-directory temp file and `rename`s it into place, so a process
//! dying mid-store never leaves a torn entry under a live name, and
//! I/O failures are returned to the caller and counted
//! ([`RunCache::failed_stores`]) instead of being swallowed.
//!
//! Growth is bounded by [`RunCache::gc`]: when `QPRAC_RUN_CACHE_MAX_MB`
//! is set, the oldest entries are evicted until the directory fits the
//! budget. Eviction order is deterministic: oldest mtime first, equal
//! mtimes broken by filename (a filesystem-order tie-break would make
//! two identically-configured hosts evict different victims). Eviction
//! is safe by construction — every entry is a pure function of its key,
//! so a victim simply re-simulates on its next miss.

use std::ffi::OsString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use crate::codec::{self, CellResult};
use crate::config::{env_dir, env_u64};
use crate::runkey::RunKey;

/// Default directory used when the env knob is set to `1`/`true`.
pub const DEFAULT_CACHE_DIR: &str = "target/qprac-run-cache";

/// Magic prefix of a binary cache entry.
const BIN_MAGIC: &[u8; 4] = b"QBC1";

/// On-disk result cache, one file per [`RunKey`].
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: Option<PathBuf>,
    max_bytes: Option<u64>,
    /// Stores that failed with an I/O error (shared across clones so a
    /// server or runner can report the total for its whole pass).
    failed_stores: Arc<AtomicU64>,
}

/// Sequence for unique same-directory temp names (concurrent stores of
/// the same key from several threads must never share a temp file).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What one [`RunCache::gc`] sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Entries present before the sweep.
    pub entries: usize,
    /// Entries evicted (oldest mtime first, filename tie-break).
    pub evicted: usize,
    /// Directory size before the sweep, in bytes.
    pub bytes_before: u64,
    /// Directory size after the sweep, in bytes.
    pub bytes_after: u64,
}

impl RunCache {
    /// `QPRAC_RUN_CACHE` unset/empty/`0` disables persistence; `1` or
    /// `true` uses [`DEFAULT_CACHE_DIR`]; any other value is the
    /// directory. `QPRAC_RUN_CACHE_MAX_MB` (0/unset = unbounded) sets
    /// the [`Self::gc`] size budget.
    pub fn from_env() -> Self {
        let max_mb = env_u64("QPRAC_RUN_CACHE_MAX_MB", 0);
        RunCache {
            dir: env_dir("QPRAC_RUN_CACHE", DEFAULT_CACHE_DIR),
            max_bytes: (max_mb > 0).then(|| max_mb * 1024 * 1024),
            failed_stores: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A cache rooted at an explicit directory (tests and the server
    /// pass one so they never read process environment).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        RunCache {
            dir: Some(dir.into()),
            max_bytes: None,
            failed_stores: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A disabled cache: every load misses, every store is dropped.
    pub fn disabled() -> Self {
        RunCache {
            dir: None,
            max_bytes: None,
            failed_stores: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Set the [`Self::gc`] size budget in bytes (`None` = unbounded).
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Whether stores can persist anywhere.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The cache directory, when enabled.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    fn path(&self, key: &RunKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.qbc", key.file_stem())))
    }

    /// Load the cached result for `key`, if present and intact.
    pub fn load(&self, key: &RunKey) -> Option<CellResult> {
        let bytes = fs::read(self.path(key)?).ok()?;
        let rest = bytes.strip_prefix(BIN_MAGIC.as_slice())?;
        let (len_bytes, rest) = rest.split_at_checked(4)?;
        let key_len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
        let (stored_key, frame) = rest.split_at_checked(key_len)?;
        if stored_key != key.as_str().as_bytes() {
            return None; // hash collision or stale format
        }
        codec::decode_cell(frame).ok()
    }

    /// Stores that failed with an I/O error since this cache (or any
    /// clone sharing its counter) was built — the server's
    /// `qprac_store_errors_total` metric and the runner's warning line.
    pub fn failed_stores(&self) -> u64 {
        self.failed_stores.load(Ordering::Relaxed)
    }

    /// Persist `result` under `key`.
    ///
    /// The commit is crash-safe: bytes land in a same-directory temp
    /// file first and are `rename`d into place, so a crash mid-store
    /// can never leave a torn entry where a reader would find it
    /// (readers verify checksums anyway; this keeps the *directory*
    /// clean too). I/O errors are surfaced to the caller **and**
    /// counted in [`Self::failed_stores`] — a full or read-only disk
    /// must not fail the experiment, but it must not be silent either.
    pub fn store(&self, key: &RunKey, result: &CellResult) -> io::Result<()> {
        let Some(path) = self.path(key) else {
            return Ok(());
        };
        let key_bytes = key.as_str().as_bytes();
        let frame = codec::encode_cell(result);
        let mut bytes = Vec::with_capacity(8 + key_bytes.len() + frame.len());
        bytes.extend_from_slice(BIN_MAGIC);
        bytes.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
        bytes.extend_from_slice(key_bytes);
        bytes.extend_from_slice(&frame);
        let outcome = write_atomic(&path, &bytes);
        if outcome.is_err() {
            self.failed_stores.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Evict oldest entries until the directory fits the configured
    /// byte budget. Order is deterministic: mtime ascending, filename
    /// breaking ties. A no-op when the cache is disabled or unbounded.
    /// Errors (entries vanishing mid-scan, permission problems) are
    /// skipped, best-effort like [`Self::store`].
    pub fn gc(&self) -> GcReport {
        let (Some(dir), Some(max)) = (self.dir.as_ref(), self.max_bytes) else {
            return GcReport::default();
        };
        let Ok(read) = fs::read_dir(dir) else {
            return GcReport::default();
        };
        let mut entries: Vec<(SystemTime, OsString, u64, PathBuf)> = Vec::new();
        for entry in read.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "txt" && e != "qbc") {
                // Stale temp files are commit leftovers from a crashed
                // writer — sweep them rather than budgeting them.
                if path
                    .extension()
                    .is_some_and(|e| e.to_string_lossy().starts_with("tmp"))
                {
                    let _ = fs::remove_file(&path);
                }
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((mtime, entry.file_name(), meta.len(), path));
        }
        // Oldest mtime first; equal mtimes (coarse filesystem clocks
        // stamp whole batches identically) fall back to the filename so
        // the victim set never depends on directory iteration order.
        entries.sort();
        let bytes_before: u64 = entries.iter().map(|(_, _, len, _)| len).sum();
        let mut report = GcReport {
            entries: entries.len(),
            evicted: 0,
            bytes_before,
            bytes_after: bytes_before,
        };
        for (_, _, len, path) in &entries {
            if report.bytes_after <= max {
                break;
            }
            if fs::remove_file(path).is_ok() {
                report.bytes_after -= len;
                report.evicted += 1;
            }
        }
        report
    }
}

/// Write `bytes` to `path` via a unique same-directory temp file and an
/// atomic `rename`, so readers (and post-crash directory scans) only
/// ever see complete entries.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let ext = path
        .extension()
        .map(|e| e.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = path.with_extension(format!(
        "{ext}.tmp{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::BwAttackStats;
    use crate::config::{MitigationKind, SystemConfig};

    /// A distinct key per tag (the cache never parses key text).
    fn tag_key(tag: &str) -> RunKey {
        RunKey::workload(&SystemConfig::paper_default(), tag)
    }

    fn temp_cache(tag: &str) -> (RunCache, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("qprac-runcache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (RunCache::at(dir.clone()), dir)
    }

    #[test]
    fn attack_and_count_round_trip_through_the_cache() {
        let (cache, dir) = temp_cache("attack");
        let cfg = SystemConfig::paper_default().with_mitigation(MitigationKind::Qprac);
        let key = RunKey::attack(&cfg, 8, 1000);
        let val = CellResult::Attack(BwAttackStats {
            acts: 7,
            mem_cycles: 1000,
            alerts: 3,
            rfms: 4,
        });
        assert!(cache.load(&key).is_none());
        cache.store(&key, &val).unwrap();
        assert_eq!(cache.load(&key), Some(val));

        let ck =
            crate::CellSpec::from(attack_engine::EngineSpec::ToggleForget { queue: 4, tbit: 6 })
                .key();
        cache.store(&ck, &CellResult::Count(99)).unwrap();
        assert_eq!(cache.load(&ck), Some(CellResult::Count(99)));
        let _ = fs::remove_dir_all(dir);
    }

    /// A `.txt` entry of the retired text format is never read: the
    /// key misses, a store writes the `.qbc` entry that then hits, and
    /// the old file still counts against the gc budget so it ages out.
    #[test]
    fn legacy_text_entry_misses_and_ages_out() {
        let (cache, dir) = temp_cache("legacy");
        let key = tag_key("legacy");
        let txt = dir.join(format!("{}.txt", key.file_stem()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(&txt, format!("key={}\nkind=count\n7", key.as_str())).unwrap();
        assert!(cache.load(&key).is_none(), "text entries are not read");
        cache.store(&key, &CellResult::Count(7)).unwrap();
        assert!(cache.path(&key).unwrap().exists());
        assert_eq!(cache.load(&key), Some(CellResult::Count(7)));
        // Age the text entry so it is the oldest, then budget for one.
        let old = SystemTime::now() - std::time::Duration::from_secs(600);
        let f = fs::File::options().write(true).open(&txt).unwrap();
        f.set_modified(old).unwrap();
        let qbc_len = fs::metadata(cache.path(&key).unwrap()).unwrap().len();
        let report = cache.clone().with_max_bytes(Some(qbc_len)).gc();
        assert_eq!(report.entries, 2, "the text file is budgeted");
        assert_eq!(report.evicted, 1);
        assert!(!txt.exists(), "the text file ages out first");
        assert_eq!(cache.load(&key), Some(CellResult::Count(7)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn every_truncation_of_a_binary_entry_is_a_miss() {
        let (cache, dir) = temp_cache("truncate");
        let cfg = SystemConfig::paper_default().with_mitigation(MitigationKind::Qprac);
        let key = RunKey::attack(&cfg, 8, 1000);
        cache
            .store(
                &key,
                &CellResult::Attack(BwAttackStats {
                    acts: 1,
                    mem_cycles: 2,
                    alerts: 3,
                    rfms: 4,
                }),
            )
            .unwrap();
        let path = cache.path(&key).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                cache.load(&key).is_none(),
                "prefix of {cut}/{} bytes must miss, not decode",
                bytes.len()
            );
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn every_single_byte_flip_of_a_binary_entry_is_a_miss() {
        let (cache, dir) = temp_cache("flip");
        let key = tag_key("flip-me");
        cache.store(&key, &CellResult::Count(0xDEAD_BEEF)).unwrap();
        let path = cache.path(&key).unwrap();
        let bytes = fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            for bit in [1u8, 0x10, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                fs::write(&path, &bad).unwrap();
                assert!(
                    cache.load(&key).is_none(),
                    "flip of bit {bit:#x} at byte {i} must miss, not decode"
                );
            }
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn key_mismatch_in_a_cache_file_is_a_miss() {
        let (cache, dir) = temp_cache("mismatch");
        let key = tag_key("cell-a");
        cache.store(&key, &CellResult::Count(1)).unwrap();
        // Corrupt: move the file to where another key would look.
        let other = tag_key("cell-b");
        fs::rename(cache.path(&key).unwrap(), cache.path(&other).unwrap()).unwrap();
        assert!(cache.load(&other).is_none(), "stored key must be verified");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = RunCache::disabled();
        let key = tag_key("nope");
        cache.store(&key, &CellResult::Count(5)).unwrap();
        assert!(cache.load(&key).is_none());
        assert_eq!(cache.gc(), GcReport::default());
    }

    #[test]
    fn gc_evicts_oldest_entries_first_until_under_budget() {
        let (cache, dir) = temp_cache("gc");
        // Three entries, each given a distinct mtime: k0 oldest.
        let keys: Vec<RunKey> = (0..3).map(|i| tag_key(&format!("gc-{i}"))).collect();
        let t0 = SystemTime::now() - std::time::Duration::from_secs(3000);
        for (i, key) in keys.iter().enumerate() {
            cache.store(key, &CellResult::Count(i as u64)).unwrap();
            let f = fs::File::options()
                .write(true)
                .open(cache.path(key).unwrap())
                .unwrap();
            f.set_modified(t0 + std::time::Duration::from_secs(i as u64 * 600))
                .unwrap();
        }
        let sizes: u64 = keys
            .iter()
            .map(|k| fs::metadata(cache.path(k).unwrap()).unwrap().len())
            .sum();
        // Budget that fits exactly the two newest entries.
        let keep_two = sizes - fs::metadata(cache.path(&keys[0]).unwrap()).unwrap().len();
        let report = cache.clone().with_max_bytes(Some(keep_two)).gc();
        assert_eq!(report.entries, 3);
        assert_eq!(report.evicted, 1);
        assert_eq!(report.bytes_before, sizes);
        assert_eq!(report.bytes_after, keep_two);
        assert!(cache.load(&keys[0]).is_none(), "oldest entry evicted");
        assert!(cache.load(&keys[1]).is_some());
        assert!(cache.load(&keys[2]).is_some());
        // A fitting directory is left alone.
        let report = cache.clone().with_max_bytes(Some(keep_two)).gc();
        assert_eq!(report.evicted, 0);
        // Unbounded cache never evicts.
        assert_eq!(cache.gc(), GcReport::default());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_ties_on_equal_mtimes_evict_in_filename_order() {
        let (cache, dir) = temp_cache("gc-tie");
        // Several same-size entries stamped with the SAME mtime — the
        // coarse-clock batch case. Eviction must proceed in filename
        // order, regardless of store or directory iteration order.
        let keys: Vec<RunKey> = [3u64, 0, 2, 1]
            .iter()
            .map(|i| tag_key(&format!("tie-{i}")))
            .collect();
        let stamp = SystemTime::now() - std::time::Duration::from_secs(1000);
        for key in &keys {
            cache.store(key, &CellResult::Count(42)).unwrap();
            let f = fs::File::options()
                .write(true)
                .open(cache.path(key).unwrap())
                .unwrap();
            f.set_modified(stamp).unwrap();
        }
        let mut names: Vec<(OsString, RunKey)> = keys
            .iter()
            .map(|k| {
                let p = cache.path(k).unwrap();
                (p.file_name().unwrap().to_os_string(), k.clone())
            })
            .collect();
        names.sort();
        let entry_len = fs::metadata(cache.path(&keys[0]).unwrap()).unwrap().len();
        // Budget for exactly two survivors: the two largest filenames.
        let report = cache.clone().with_max_bytes(Some(2 * entry_len)).gc();
        assert_eq!(report.evicted, 2);
        assert!(cache.load(&names[0].1).is_none(), "smallest filename first");
        assert!(cache.load(&names[1].1).is_none(), "then the next filename");
        assert!(cache.load(&names[2].1).is_some());
        assert!(cache.load(&names[3].1).is_some());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn store_commits_atomically_and_leaves_no_temp_files() {
        let (cache, dir) = temp_cache("atomic");
        let key = tag_key("atomic");
        cache.store(&key, &CellResult::Count(11)).unwrap();
        // Overwrite of a live entry goes through the same commit path.
        cache.store(&key, &CellResult::Count(12)).unwrap();
        assert_eq!(cache.load(&key), Some(CellResult::Count(12)));
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_none_or(|x| x != "qbc"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert_eq!(cache.failed_stores(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_stores_surface_an_error_and_are_counted() {
        // A *file* where the cache directory should be: create_dir_all
        // fails, the error is returned, and the shared counter ticks.
        let blocker = std::env::temp_dir().join(format!(
            "qprac-runcache-test-blocked-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&blocker);
        fs::write(&blocker, b"not a directory").unwrap();
        let cache = RunCache::at(&blocker);
        let clone = cache.clone(); // counter is shared across clones
        let key = tag_key("blocked");
        assert!(cache.store(&key, &CellResult::Count(1)).is_err());
        assert!(clone.store(&key, &CellResult::Count(2)).is_err());
        assert_eq!(cache.failed_stores(), 2);
        assert_eq!(clone.failed_stores(), 2);
        let _ = fs::remove_file(&blocker);
    }

    #[test]
    fn gc_sweeps_stale_temp_files_from_crashed_writers() {
        let (cache, dir) = temp_cache("tmp-sweep");
        let key = tag_key("survivor");
        cache.store(&key, &CellResult::Count(3)).unwrap();
        // A crashed writer's leftover: entry-shaped name, tmp extension.
        let stale = dir.join("deadbeefdeadbeef.qbc.tmp12345-0");
        fs::write(&stale, b"half-written junk").unwrap();
        let report = cache.clone().with_max_bytes(Some(u64::MAX)).gc();
        assert!(!stale.exists(), "stale temp file must be swept");
        assert_eq!(report.evicted, 0, "live entries untouched");
        assert_eq!(cache.load(&key), Some(CellResult::Count(3)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn from_env_defaults_are_off() {
        // These env vars are absent in the test environment (bin_smoke
        // removes them for child processes; nothing sets them here).
        let cache = RunCache::from_env();
        // Can't assert dir() without racing other tests that set the
        // var; only exercise that construction succeeds and gc is safe.
        let _ = cache.gc();
    }
}

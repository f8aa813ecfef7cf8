//! The cross-figure scheduler and global deduplicating run cache.
//!
//! [`execute`] collects every cell of every spec, dedupes them globally
//! by [`RunKey`], resolves what it can from the persistent cache
//! (`QPRAC_RUN_CACHE`, a [`sim::RunCache`]), and executes the remainder
//! through a pluggable [`CellExecutor`]:
//!
//! - [`LocalExecutor`] (the default) runs cells on the in-process work
//!   pool ([`crate::harness::parallel`], capped by `QPRAC_JOBS`);
//! - [`RemoteExecutor`] (`QPRAC_REMOTE=host:port[,host:port...]`)
//!   ships each cell's canonical key to a `qprac-serve` cluster. The
//!   address list is a *shard* list: a consistent-hash
//!   [`qprac_serve::ShardMap`] assigns every key to exactly one shard,
//!   so cluster-wide single-flight and cache locality hold with zero
//!   coordination. Each shard's cells stream over a few pipelined
//!   connections (*lanes*). Per shard, the full fault stack applies —
//!   deadlines, jittered retry, one shared health state — and a shard
//!   that keeps failing is marked down: only *its* keys degrade to the
//!   local pool until a `HEALTH` probe readmits it.
//!
//! Every cell — workload, mix, bandwidth attack or attack engine — is
//! plain data named by its key, so each one caches, shards and crosses
//! the wire the same way.
//!
//! Identical cells shared by several figures — e.g. the unmitigated
//! baseline of every sensitivity sweep — resolve exactly once per
//! suite, and with a warm cache (local or server-side) not at all.
//! Each job remembers its index among the unique cells, so every
//! spec's emitter gets exactly its own jobs' results, in `jobs` order,
//! and can read no cell that only another spec declared.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sim::{RunCache, RunKey};

use crate::csv::{write_tables, Table};
use crate::harness::{parallel, pool_width};
use crate::profile;
use crate::spec::{ExperimentSpec, Job, JobResult};

/// What one [`execute`] pass did.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Cells requested across all specs (with duplicates).
    pub cells: usize,
    /// Distinct cells after global deduplication.
    pub unique: usize,
    /// Unique cells resolved from the persistent cache.
    pub cache_hits: usize,
    /// Unique cells actually executed this pass.
    pub executed: usize,
    /// End-to-end wall clock (scheduling + execution + emission).
    pub wall: Duration,
}

impl RunReport {
    /// Requested-to-unique ratio (1.0 = no sharing; higher is better).
    pub fn dedupe_ratio(&self) -> f64 {
        if self.unique == 0 {
            1.0
        } else {
            self.cells as f64 / self.unique as f64
        }
    }

    /// The one-line machine-greppable summary (`run-cache: ...`).
    pub fn summary(&self) -> String {
        format!(
            "run-cache: cells={} unique={} dedupe={:.2} cache-hits={} simulated={} wall={:.1}s",
            self.cells,
            self.unique,
            self.dedupe_ratio(),
            self.cache_hits,
            self.executed,
            self.wall.as_secs_f64(),
        )
    }
}

/// Where deduplicated cells execute. Implementations must preserve
/// order: result `i` answers cell `i`.
pub trait CellExecutor: Sync {
    /// Label for the `run-pool:` progress line.
    fn describe(&self) -> String;

    /// Execute every cell, in order. Panics on unrecoverable backend
    /// failure (a figure with holes is worse than a failed run).
    fn execute_cells(&self, cells: &[(&Job, RunKey)]) -> Vec<JobResult>;
}

/// In-process execution on the shared work pool (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalExecutor;

impl CellExecutor for LocalExecutor {
    fn describe(&self) -> String {
        "local pool".into()
    }

    fn execute_cells(&self, cells: &[(&Job, RunKey)]) -> Vec<JobResult> {
        parallel(cells.len(), |i| {
            profile::time("simulate", || cells[i].0.run())
        })
    }
}

/// Fault-path counters for one [`RemoteExecutor`]'s lifetime, printed
/// as the greppable `remote-fault:` summary after a pass in which any
/// of them fired.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Lane attempts re-driven after a retryable failure (per attempt,
    /// not per cell).
    pub retries: AtomicU64,
    /// Shards marked down, after [`RemoteExecutor::BREAKER_THRESHOLD`]
    /// consecutive failures or an exhausted ladder (their keys degrade
    /// to the local pool until a `HEALTH` probe readmits them).
    pub shard_downs: AtomicU64,
    /// Down shards readmitted by a successful `HEALTH` probe.
    pub shard_recoveries: AtomicU64,
    /// Cells that exhausted every remote avenue and ran on the local
    /// pool instead.
    pub local_fallbacks: AtomicU64,
    /// Whether the one-line local-fallback warning has been printed.
    warned: AtomicBool,
}

impl FaultStats {
    /// The `remote-fault:` one-liner, or `None` when nothing went wrong
    /// (the common case — silence is the healthy signal).
    pub fn summary(&self) -> Option<String> {
        let (r, d, v, l) = (
            self.retries.load(Ordering::Relaxed),
            self.shard_downs.load(Ordering::Relaxed),
            self.shard_recoveries.load(Ordering::Relaxed),
            self.local_fallbacks.load(Ordering::Relaxed),
        );
        if r + d + v + l == 0 {
            return None;
        }
        Some(format!(
            "remote-fault: retries={r} shard-downs={d} shard-recoveries={v} local-fallbacks={l}"
        ))
    }
}

/// One shard's health, shared by every pool worker of an executor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ShardHealth {
    /// Retryable failures since the shard last answered, counted across
    /// all workers.
    consecutive_fails: u32,
    /// `Some(t)` = down until `t`: its keys fail fast to the local pool,
    /// and after `t` one `HEALTH` probe decides readmission.
    down_until: Option<Instant>,
}

std::thread_local! {
    /// Each pool worker's cached connection per shard address. A lane
    /// pipelines its keys over the connection of the worker running it,
    /// so one connection never carries two lanes at once (worker threads
    /// are fresh per `parallel` call, but the executor may also run on a
    /// caller's long-lived thread).
    static CLIENTS: std::cell::RefCell<HashMap<String, qprac_serve::Client>> =
        std::cell::RefCell::new(HashMap::new());
}

/// Execution against a sharded `qprac-serve` cluster
/// (`QPRAC_REMOTE=host:port[,host:port...]`).
///
/// The address list is a **shard list**: a consistent-hash
/// [`qprac_serve::ShardMap`] assigns each [`RunKey`] to exactly one
/// shard, so every client process routes the same key to the same
/// daemon — cluster-wide single-flight coalescing and cache locality
/// hold with zero coordination. (A one-entry list degenerates to the
/// pre-cluster behavior: one daemon owns every key.)
///
/// Cells travel in **lanes**: each shard's cells are split into at most
/// `QPRAC_JOBS` lanes (the pool width), and a lane streams its keys
/// over one connection with [`qprac_serve::Client::run_many`], up to
/// [`qprac_serve::PIPELINE_WINDOW`] requests in flight. A shard works
/// on one request per connection at a time, so the lanes are what keeps
/// a cold pass's simulations parallel; on a warm pass the shard answers
/// each key from memory as soon as it reads it.
///
/// Per shard, the full fault-tolerance stack applies, lane by lane:
///
/// - every connect/read/write carries the `QPRAC_REMOTE_TIMEOUT_MS`
///   deadline, so a hung shard costs one timeout, never a stalled
///   pool worker;
/// - retryable failures (transport errors, a panicked worker's
///   single-flight poison) are re-driven against the *same* shard:
///   each attempt pipelines the lane's unanswered keys, after a jittered
///   exponential backoff deterministic per key (the schedule of the
///   first unanswered key, seeded from [`RunKey::hash`]). A key gets
///   the policy's attempts before its ladder is spent. Retries never
///   rotate to another shard, which would break affinity;
/// - one health entry per shard, shared by every pool worker, marks
///   the shard **down** after [`Self::BREAKER_THRESHOLD`] consecutive
///   lane attempts, across all workers, that failed without getting a
///   single answer (every answer resets the count), or when a key
///   exhausts its ladder. While down, the shard's keys degrade
///   straight to the local pool (no timeout burn); the only way back
///   up is a post-cooldown `HEALTH` probe, which resets the entry for
///   every worker. Other shards' keys are untouched — a one-shard outage
///   degrades 1/N of the keyspace, not the cluster.
/// - authoritative server errors (the daemon *answered*: unknown
///   workload, version skew) skip both the ladder and the health
///   count, and send only their own cell to the local pool — the same
///   key fails the same way everywhere.
///
/// Retrying is safe by design: the protocol is key-only and
/// idempotent, so at-least-once delivery can only cost duplicate work
/// (which the server's single-flight layer coalesces anyway), never
/// wrong results. Each pool worker keeps its connection per shard
/// across the lanes it runs (fresh connections per lane attempt would
/// make churn dominate warm passes).
#[derive(Debug, Clone)]
pub struct RemoteExecutor {
    shards: Vec<String>,
    map: qprac_serve::ShardMap,
    timeout: Duration,
    policy: qprac_serve::RetryPolicy,
    cooldown: Duration,
    stats: Arc<FaultStats>,
    /// Health per shard index, shared across clones (all pool workers),
    /// so one worker's failures spare every other worker the same
    /// timeouts.
    health: Arc<Mutex<Vec<ShardHealth>>>,
}

impl RemoteExecutor {
    /// Consecutive answerless failed lane attempts, across all workers,
    /// that take a shard down.
    pub const BREAKER_THRESHOLD: u32 = 3;
    /// Default down cooldown before the `HEALTH` probe.
    pub const BREAKER_COOLDOWN: Duration = Duration::from_millis(1_000);

    /// Build from a comma-separated shard list (`host:port[,...]`;
    /// whitespace and empty entries tolerated). An empty list is legal
    /// and degrades every cell to the local pool.
    pub fn new(addrs: &str) -> RemoteExecutor {
        let map = qprac_serve::ShardMap::from_list(addrs);
        RemoteExecutor {
            health: Arc::new(Mutex::new(vec![ShardHealth::default(); map.len()])),
            shards: map.shards().to_vec(),
            map,
            timeout: qprac_serve::timeout_from_env(),
            policy: qprac_serve::RetryPolicy::default(),
            cooldown: Self::BREAKER_COOLDOWN,
            stats: Arc::new(FaultStats::default()),
        }
    }

    /// Override the per-operation deadline (tests use short ones).
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteExecutor {
        self.timeout = timeout;
        self
    }

    /// Override the retry/backoff policy.
    pub fn with_retry(mut self, policy: qprac_serve::RetryPolicy) -> RemoteExecutor {
        self.policy = policy;
        self
    }

    /// Override the down cooldown.
    pub fn with_cooldown(mut self, cooldown: Duration) -> RemoteExecutor {
        self.cooldown = cooldown;
        self
    }

    /// The configured shard list, in index order.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// The consistent-hash map this executor routes through.
    pub fn shard_map(&self) -> &qprac_serve::ShardMap {
        &self.map
    }

    /// The fault counters accumulated so far (shared across clones).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// One lane attempt against `addr`: pipeline `keys` over the
    /// worker's cached connection (opening it if needed, with
    /// deadlines), handing each reply to `on_reply` as it arrives. A
    /// transport error drops the connection: it may hold half a frame.
    fn attempt(
        &self,
        addr: &str,
        keys: &[&str],
        mut on_reply: impl FnMut(Result<JobResult, qprac_serve::ClientError>),
    ) {
        profile::time("remote_roundtrip", || {
            CLIENTS.with(|cell| {
                let mut clients = cell.borrow_mut();
                if !clients.contains_key(addr) {
                    match qprac_serve::Client::connect_timeout(addr, self.timeout) {
                        Ok(client) => clients.insert(addr.to_string(), client),
                        Err(e) => return on_reply(Err(e.into())),
                    };
                }
                let mut broken = false;
                let client = clients.get_mut(addr).expect("inserted above");
                client.run_many(keys, |reply| {
                    broken = matches!(reply, Err(qprac_serve::ClientError::Io(_)));
                    on_reply(reply);
                });
                if broken {
                    clients.remove(addr);
                }
            })
        })
    }

    fn health(&self) -> std::sync::MutexGuard<'_, Vec<ShardHealth>> {
        self.health
            .lock()
            .expect("no thread panics while holding the shard-health lock")
    }

    /// The shard answered: its failure streak is over.
    fn note_success(&self, idx: usize) {
        self.health()[idx].consecutive_fails = 0;
    }

    /// Count a retryable failure; the threshold takes the shard down.
    /// Returns whether the shard is now down.
    fn note_failure(&self, idx: usize, why: &str) -> bool {
        let mut health = self.health();
        health[idx].consecutive_fails += 1;
        if health[idx].consecutive_fails >= Self::BREAKER_THRESHOLD {
            self.mark_down(&mut health[idx], idx, why);
        }
        health[idx].down_until.is_some()
    }

    /// Take a shard down for a cooldown: its keys (and only its keys)
    /// degrade to the local pool without burning further timeouts.
    fn mark_down(&self, entry: &mut ShardHealth, idx: usize, why: &str) {
        if entry.down_until.is_none() {
            entry.down_until = Some(Instant::now() + self.cooldown);
            self.stats.shard_downs.fetch_add(1, Ordering::Relaxed);
            qprac_obs::global()
                .counter("qprac_bench_shard_downs_total")
                .inc();
            qprac_obs::warn!(
                "warning: shard {} marked down ({why}); its keys run locally until a HEALTH probe succeeds",
                self.shards[idx]
            );
        }
    }

    /// Gatekeeper on the shard's health: fail fast while it is inside
    /// its down cooldown; once that expires, one cheap `HEALTH` probe
    /// decides between readmission — a reset entry, for every worker —
    /// and re-arming the cooldown.
    fn check_shard_up(&self, idx: usize, addr: &str) -> Result<(), String> {
        let Some(until) = self.health()[idx].down_until else {
            return Ok(());
        };
        if Instant::now() < until {
            return Err(format!("shard {addr} marked down"));
        }
        let probed = qprac_serve::Client::connect_timeout(addr, self.timeout)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.health().map_err(|e| e.to_string()));
        let mut health = self.health();
        match probed {
            Ok(_) => {
                if health[idx].down_until.is_some() {
                    self.stats.shard_recoveries.fetch_add(1, Ordering::Relaxed);
                    qprac_obs::global()
                        .counter("qprac_bench_shard_recoveries_total")
                        .inc();
                }
                health[idx] = ShardHealth::default();
                Ok(())
            }
            Err(e) => {
                health[idx].down_until = Some(Instant::now() + self.cooldown);
                Err(format!("shard {addr} still down: {e}"))
            }
        }
    }

    /// Drive one lane — keys owned by shard `idx`, in order — through
    /// the shard's retry ladder. Returns one answer per key; an `Err`
    /// carries the reason its cell must fall back to the local pool.
    fn run_lane(&self, idx: usize, keys: &[&RunKey]) -> Vec<Result<JobResult, String>> {
        // Affinity is the whole point: one key, one shard, every
        // attempt. Retrying elsewhere would defeat cluster-wide
        // single-flight and cache locality.
        let addr = &self.shards[idx];
        let mut answers: Vec<Option<Result<JobResult, String>>> =
            keys.iter().map(|_| None).collect();
        // Unanswered keys in lane order, with their failed attempts.
        let mut pending: Vec<(usize, u32)> = (0..keys.len()).map(|i| (i, 0)).collect();
        let mut give_up = self.check_shard_up(idx, addr).err();
        while give_up.is_none() {
            let Some(&(head, failed)) = pending.first() else {
                break;
            };
            if failed > 0 {
                let sleeps = qprac_serve::schedule(keys[head].hash(), self.policy);
                std::thread::sleep(sleeps[failed as usize - 1]);
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            let texts: Vec<&str> = pending.iter().map(|&(i, _)| keys[i].as_str()).collect();
            let (mut replied, mut answered, mut last_err) = (0, false, None);
            let mut still = Vec::new();
            self.attempt(addr, &texts, |reply| {
                let (i, fails) = pending[replied];
                replied += 1;
                match reply {
                    // Each answer resets the shard's failure streak as
                    // it arrives, as one cell's answer always did.
                    Ok(result) => {
                        self.note_success(idx);
                        answered = true;
                        answers[i] = Some(Ok(result));
                    }
                    // Authoritative rejection: the daemon answered, the
                    // shard is healthy — the same key fails the same way
                    // everywhere.
                    Err(e) if !e.is_retryable() => {
                        answered = true;
                        answers[i] = Some(Err(format!("{addr}: {e}")));
                    }
                    Err(e) => {
                        last_err = Some(format!("{addr}: {e}"));
                        still.push((i, fails + 1));
                    }
                }
            });
            // Keys behind a transport error got no reply: re-driven as
            // they are, since the failure was not theirs.
            still.extend_from_slice(&pending[replied..]);
            pending = still;
            let Some(why) = last_err else { continue };
            // An attempt that got answers before it failed found the
            // shard serving: only attempts that got none count toward
            // taking it down. A key's own ladder still bounds re-drives.
            if !answered && self.note_failure(idx, &why) {
                give_up = Some(why);
            } else if pending
                .iter()
                .any(|&(_, f)| f >= self.policy.attempts.max(1))
            {
                let mut health = self.health();
                self.mark_down(&mut health[idx], idx, &why);
                give_up = Some(why);
            }
        }
        let why = give_up.unwrap_or_default();
        answers
            .into_iter()
            .map(|a| a.unwrap_or_else(|| Err(why.clone())))
            .collect()
    }

    /// Split cells into lanes: `(shard, cell indices)`. Each shard's
    /// cells, in order, are dealt round-robin into at most pool-width
    /// lanes, and the lanes are ordered so that the first ones the pool
    /// picks up cover every shard.
    fn lanes(&self, cells: &[(&Job, RunKey)]) -> Vec<(usize, Vec<usize>)> {
        if self.map.is_empty() {
            return Vec::new();
        }
        let mut owned = vec![Vec::new(); self.shards.len()];
        for (i, (_, key)) in cells.iter().enumerate() {
            owned[self.map.shard_for(key)].push(i);
        }
        let width = pool_width(cells.len());
        let mut lanes = Vec::new();
        for lane in 0..width {
            for (idx, members) in owned.iter().enumerate() {
                let n = width.min(members.len());
                if lane < n {
                    let dealt = members.iter().copied().skip(lane).step_by(n).collect();
                    lanes.push((idx, dealt));
                }
            }
        }
        lanes
    }

    /// The graceful-degradation tail: count it, warn once, run locally.
    fn fall_back_local(&self, job: &Job, key: &RunKey, why: &str) -> JobResult {
        self.stats.local_fallbacks.fetch_add(1, Ordering::Relaxed);
        if !self.stats.warned.swap(true, Ordering::Relaxed) {
            qprac_obs::warn!(
                "warning: remote execution failed for {key} ({why}); \
                 falling back to the local pool (further fallbacks counted, not logged)"
            );
        }
        profile::time("simulate", || job.run())
    }
}

impl CellExecutor for RemoteExecutor {
    fn describe(&self) -> String {
        format!(
            "remote qprac-serve at {} ({} shard(s), consistent-hash routed, timeout {:?})",
            self.shards.join(","),
            self.shards.len(),
            self.timeout,
        )
    }

    fn execute_cells(&self, cells: &[(&Job, RunKey)]) -> Vec<JobResult> {
        let lanes = self.lanes(cells);
        let answers = parallel(lanes.len(), |l| {
            let (idx, members) = &lanes[l];
            let keys: Vec<&RunKey> = members.iter().map(|&i| &cells[i].1).collect();
            self.run_lane(*idx, &keys)
        });
        let mut out: Vec<Result<JobResult, String>> = cells
            .iter()
            .map(|_| Err("no shards configured".into()))
            .collect();
        for ((_, members), lane) in lanes.iter().zip(answers) {
            for (&i, answer) in members.iter().zip(lane) {
                out[i] = answer;
            }
        }
        let failed: Vec<usize> = (0..cells.len()).filter(|&i| out[i].is_err()).collect();
        let local = parallel(failed.len(), |f| {
            let (job, key) = &cells[failed[f]];
            let why = out[failed[f]].as_ref().expect_err("a failed cell");
            self.fall_back_local(job, key, why)
        });
        for (i, result) in failed.into_iter().zip(local) {
            out[i] = Ok(result);
        }
        if let Some(line) = self.stats.summary() {
            println!("{line}");
        }
        out.into_iter()
            .map(|r| r.expect("every failed cell ran locally"))
            .collect()
    }
}

/// The executor selected by the environment: [`RemoteExecutor`] when
/// `QPRAC_REMOTE` is set (unset/empty/`0` = off; a comma-separated
/// list is a consistent-hash shard cluster), else [`LocalExecutor`].
pub fn executor_from_env() -> Box<dyn CellExecutor> {
    match sim::env_opt("QPRAC_REMOTE") {
        Some(addrs) => Box::new(RemoteExecutor::new(&addrs)),
        None => Box::new(LocalExecutor),
    }
}

/// Scrape the `METRICS` exposition of every shard and merge them into
/// one cluster-wide [`qprac_obs::Snapshot`] (counters and histograms
/// sum across shards). Any unreachable shard or malformed exposition
/// is an error naming the shard — a partial cluster view would make
/// the accounting assertions silently weaker.
pub fn scrape_cluster(shards: &[String]) -> Result<qprac_obs::Snapshot, String> {
    let mut merged = qprac_obs::Snapshot::default();
    for addr in shards {
        let mut client = qprac_serve::Client::connect(addr.as_str())
            .map_err(|e| format!("shard {addr}: connect failed: {e}"))?;
        let text = client
            .metrics()
            .map_err(|e| format!("shard {addr}: METRICS scrape failed: {e}"))?;
        let snap = qprac_obs::Snapshot::parse_prometheus(&text)
            .map_err(|e| format!("shard {addr}: bad exposition: {e}"))?;
        merged.merge(&snap);
    }
    Ok(merged)
}

/// Write a merged cluster snapshot to `metrics_cluster.txt` in the
/// results directory (honoring `QPRAC_RESULTS_DIR`), returning the
/// path written. The file is the same Prometheus text a single-shard
/// `METRICS` scrape yields, with every shard's counts summed.
pub fn write_cluster_metrics(snap: &qprac_obs::Snapshot) -> io::Result<std::path::PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("metrics_cluster.txt");
    std::fs::write(&path, snap.render_prometheus())?;
    Ok(path)
}

/// Scrape-and-write against the `QPRAC_REMOTE` shard list, if any:
/// the tail of a remote `run_all` pass. Returns the merged snapshot
/// alongside the file path, or `None` when no cluster is configured.
pub fn scrape_cluster_from_env() -> Option<Result<(qprac_obs::Snapshot, std::path::PathBuf), String>>
{
    let addrs = sim::env_opt("QPRAC_REMOTE")?;
    let shards = qprac_serve::ShardMap::from_list(&addrs).shards().to_vec();
    if shards.is_empty() {
        return None;
    }
    Some(scrape_cluster(&shards).and_then(|snap| {
        let path = write_cluster_metrics(&snap).map_err(|e| format!("write: {e}"))?;
        Ok((snap, path))
    }))
}

/// The results directory: `QPRAC_RESULTS_DIR`, or `results/`.
fn results_dir() -> std::path::PathBuf {
    std::env::var_os("QPRAC_RESULTS_DIR")
        .unwrap_or_else(|| "results".into())
        .into()
}

/// Run a suite of specs: dedupe cells, resolve them (cache, then the
/// env-selected executor), write every spec's tables in order, and
/// print the cache summary.
pub fn execute(specs: &[ExperimentSpec]) -> io::Result<RunReport> {
    let report = execute_with(
        specs,
        executor_from_env().as_ref(),
        &RunCache::from_env(),
        true,
    )?;
    println!("{}", report.summary());
    Ok(report)
}

/// The scheduler with the cache and executor injected: resolve every
/// cell, then write each table of each spec, in order, as
/// `<name>.csv` under `QPRAC_RESULTS_DIR` (default `results/`) and as a
/// block on stdout.
pub fn execute_with(
    specs: &[ExperimentSpec],
    executor: &dyn CellExecutor,
    cache: &RunCache,
    verbose: bool,
) -> io::Result<RunReport> {
    let t0 = Instant::now();
    let (tables, mut report) = tables_with(specs, executor, cache, verbose);
    write_tables(&tables, &results_dir())?;
    report.wall = t0.elapsed();
    Ok(report)
}

/// [`execute_with`] without the writing: every spec's tables, in order,
/// and the pass's report (tests compare the tables in memory, so they
/// never touch the results directory or process environment).
pub fn tables_with(
    specs: &[ExperimentSpec],
    executor: &dyn CellExecutor,
    cache: &RunCache,
    verbose: bool,
) -> (Vec<Table>, RunReport) {
    let t0 = Instant::now();
    // Each job's index among the unique cells, per spec, in job order.
    let mut index: HashMap<RunKey, usize> = HashMap::new();
    let mut unique: Vec<(&Job, RunKey)> = Vec::new();
    let slots: Vec<Vec<usize>> = specs
        .iter()
        .map(|spec| {
            spec.jobs
                .iter()
                .map(|job| {
                    let key = profile::time("key_canonicalize", || job.key());
                    *index.entry(key).or_insert_with_key(|key| {
                        unique.push((job, key.clone()));
                        unique.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let cells = slots.iter().map(Vec::len).sum::<usize>();
    let unique_n = unique.len();

    let mut results: Vec<Option<JobResult>> = vec![None; unique_n];
    let mut to_run: Vec<(&Job, RunKey)> = Vec::new();
    let mut to_run_at: Vec<usize> = Vec::new();
    for (i, (job, key)) in unique.into_iter().enumerate() {
        match profile::time("cache_lookup", || cache.load(&key)) {
            Some(r) => results[i] = Some(r),
            None => {
                to_run.push((job, key));
                to_run_at.push(i);
            }
        }
    }
    let cache_hits = unique_n - to_run.len();
    if verbose && cells > 0 {
        println!(
            "run-pool: {cells} cells -> {unique_n} unique ({cache_hits} cached, {} to run via {})\n",
            to_run.len(),
            executor.describe(),
        );
    }

    let outputs = executor.execute_cells(&to_run);
    assert_eq!(
        outputs.len(),
        to_run.len(),
        "executor must answer every cell"
    );
    let mut first_store_err: Option<io::Error> = None;
    for (((_, key), out), i) in to_run.into_iter().zip(outputs).zip(to_run_at) {
        if let Err(e) = profile::time("serialize", || cache.store(&key, &out)) {
            first_store_err.get_or_insert(e);
        }
        results[i] = Some(out);
    }
    if cache.failed_stores() > 0 {
        qprac_obs::warn!(
            "warning: {} run-cache store(s) failed (first: {}); results are unaffected, \
             the cells will re-simulate next pass",
            cache.failed_stores(),
            first_store_err
                .map(|e| e.to_string())
                .unwrap_or_else(|| "see earlier passes".into()),
        );
    }
    // Keep the persistent cache inside its size budget (a no-op unless
    // QPRAC_RUN_CACHE_MAX_MB is set / with_max_bytes was called).
    let gc = cache.gc();
    if verbose && gc.evicted > 0 {
        println!(
            "run-cache gc: evicted {} of {} entries ({} -> {} bytes)",
            gc.evicted, gc.entries, gc.bytes_before, gc.bytes_after
        );
    }

    let tables = specs
        .iter()
        .zip(&slots)
        .flat_map(|(spec, slots)| {
            let own: Vec<&JobResult> = slots
                .iter()
                .map(|&i| results[i].as_ref().expect("every cell is resolved"))
                .collect();
            (spec.emit)(&own)
        })
        .collect();
    let report = RunReport {
        cells,
        unique: unique_n,
        cache_hits,
        executed: unique_n - cache_hits,
        wall: t0.elapsed(),
    };
    (tables, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_cache(tag: &str) -> (RunCache, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("qprac-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (RunCache::at(dir.clone()), dir)
    }

    /// One key through its shard's ladder: a lane of one.
    fn run_remote(exec: &RemoteExecutor, key: &RunKey) -> Result<JobResult, String> {
        let mut answers = exec.run_lane(exec.shard_map().shard_for(key), &[key]);
        assert_eq!(answers.len(), 1);
        answers.pop().unwrap()
    }

    /// The cheapest real cell: a wave attack on a pool of `r1` rows.
    fn wave(r1: u64) -> attack_engine::EngineSpec {
        attack_engine::EngineSpec::Wave {
            nmit: 1,
            nbo: 8,
            psq: 5,
            r1,
        }
    }

    /// A table holding one engine count per row.
    fn count_table(name: &str, counts: impl IntoIterator<Item = u64>) -> Table {
        let mut t = Table::new(name, name, &["count"]);
        t.rows
            .extend(counts.into_iter().map(|c| vec![c.to_string()]));
        t
    }

    /// Each emitter gets exactly its own jobs' results, in job order: a
    /// job repeated within a spec is repeated, and a job an earlier spec
    /// declared too is in its own place, on a cold and a warm pass.
    #[test]
    fn execute_dedupes_across_specs_and_reports_hits() {
        let (cache, dir) = temp_cache("exec");
        let (shared, a_only, b_only) = (wave(4), wave(5), wave(8));
        let [c_shared, c_a, c_b] = [shared, a_only, b_only].map(|w| w.run());
        assert!(
            c_shared != c_a && c_a != c_b && c_shared != c_b,
            "distinct counts make the order visible"
        );
        // Each emitter echoes the results it receives, in order.
        let echo = |name: &'static str| {
            move |r: &[&JobResult]| vec![count_table(name, r.iter().map(|c| c.count()))]
        };
        let make_specs = || {
            vec![
                ExperimentSpec::new(
                    "a",
                    vec![shared.into(), a_only.into(), shared.into()],
                    echo("a"),
                ),
                ExperimentSpec::new("b", vec![b_only.into(), shared.into()], echo("b")),
            ]
        };
        let expected = vec![
            count_table("a", [c_shared, c_a, c_shared]),
            count_table("b", [c_b, c_shared]),
        ];
        // Cold pass against an explicit cache dir (not env-driven: tests
        // must not mutate process env).
        let (tables, report) = tables_with(&make_specs(), &LocalExecutor, &cache, false);
        assert_eq!(tables, expected);
        assert_eq!(report.cells, 5);
        assert_eq!(report.unique, 3);
        assert_eq!(report.cache_hits, 0);
        assert!(report.dedupe_ratio() > 1.0);
        // Warm pass: everything hits, and the tables are unchanged.
        let (tables, report) = tables_with(&make_specs(), &LocalExecutor, &cache, false);
        assert_eq!(tables, expected);
        assert_eq!(report.cache_hits, 3);
        assert_eq!(report.executed, 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_budget_is_enforced_after_a_pass() {
        let (cache, dir) = temp_cache("gc");
        // A 1-byte budget: every entry written by the pass must be
        // evicted again by the end-of-pass sweep.
        let cache = cache.with_max_bytes(Some(1));
        let specs = vec![ExperimentSpec::new(
            "g",
            vec![Job::from(wave(4)), Job::from(wave(5))],
            |_| Vec::new(),
        )];
        tables_with(&specs, &LocalExecutor, &cache, false);
        let remaining = fs::read_dir(&dir).unwrap().count();
        assert_eq!(remaining, 0, "gc must evict past-budget entries");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn executor_from_env_defaults_to_local() {
        // QPRAC_REMOTE is not set in the test environment.
        assert_eq!(executor_from_env().describe(), "local pool");
    }

    #[test]
    fn shard_lists_parse_with_whitespace_and_empty_entries() {
        let exec = RemoteExecutor::new(" a:1 , ,b:2,");
        assert_eq!(exec.shards(), ["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(exec.shard_map().len(), 2);
        assert!(RemoteExecutor::new("").shards().is_empty());
        assert!(RemoteExecutor::new(",, ,").shards().is_empty());
    }

    /// A listener that accepts connections and never answers them —
    /// the pathological peer the per-operation deadline exists for.
    fn hung_listener() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for conn in listener.incoming() {
                held.push(conn);
            }
        });
        addr
    }

    fn tiny_workload_job() -> (Job, RunKey) {
        use cpu_model::WorkloadSpec;
        use sim::{MitigationKind, SystemConfig};
        let cfg = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_instruction_limit(300);
        let job = Job::Workload {
            cfg,
            workload: WorkloadSpec::by_name("ycsb/a_like").unwrap(),
        };
        let key = job.key();
        (job, key)
    }

    /// Acceptance pin: a hung shard costs bounded timeouts, the
    /// consecutive-failure threshold takes it down before the ladder
    /// is spent, and the cell still completes (here: on the local pool,
    /// since the hung shard owns every key of a one-shard map).
    #[test]
    fn hung_shard_opens_the_breaker_and_the_cell_completes() {
        let (job, key) = tiny_workload_job();
        let exec = RemoteExecutor::new(&hung_listener())
            .with_timeout(Duration::from_millis(120))
            .with_retry(qprac_serve::RetryPolicy {
                attempts: 5,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            })
            .with_cooldown(Duration::from_secs(30));
        let t0 = Instant::now();
        let out = exec.execute_cells(&[(&job, key)]);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], JobResult::Stats(_)));
        // 3 timeouts take the shard down; attempts 4-5 never run.
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "deadlines must bound the stall (took {:?})",
            t0.elapsed()
        );
        let stats = exec.fault_stats();
        assert_eq!(stats.shard_downs.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.retries.load(Ordering::Relaxed),
            RemoteExecutor::BREAKER_THRESHOLD as u64 - 1,
            "the threshold stops the ladder early"
        );
        assert_eq!(stats.local_fallbacks.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.summary().unwrap(),
            "remote-fault: retries=2 shard-downs=1 shard-recoveries=0 local-fallbacks=1"
        );
    }

    /// A `HEALTH` readmission resets the shard's one shared entry, so
    /// a worker whose failures took the shard down serves remotely the
    /// moment another worker's probe readmits it.
    #[test]
    fn health_readmission_resets_the_shard_for_every_worker() {
        let (_, key) = tiny_workload_job();
        let live = qprac_serve::Server::bind("127.0.0.1:0", qprac_serve::ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap()
            .to_string();
        let exec = RemoteExecutor::new(&live)
            .with_timeout(Duration::from_secs(5))
            .with_cooldown(Duration::from_millis(150));
        let readmitted = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let worker_b = s.spawn(|| {
                for _ in 0..RemoteExecutor::BREAKER_THRESHOLD {
                    exec.note_failure(0, "injected for test");
                }
                readmitted.wait();
                run_remote(&exec, &key)
            });
            // Wait for worker B's failures to take the shard down.
            while exec.fault_stats().shard_downs.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(200));
            let worker_a = s.spawn(|| run_remote(&exec, &key)).join().unwrap();
            assert!(
                matches!(worker_a, Ok(JobResult::Stats(_))),
                "probe readmits"
            );
            assert_eq!(exec.health()[0], ShardHealth::default());
            readmitted.wait();
            let served = worker_b.join().unwrap();
            assert!(matches!(served, Ok(JobResult::Stats(_))), "{served:?}");
        });
        let stats = exec.fault_stats();
        assert_eq!(stats.shard_recoveries.load(Ordering::Relaxed), 1);
        assert_eq!(stats.retries.load(Ordering::Relaxed), 0);
    }

    /// The tentpole's blast-radius property: with one shard hung and
    /// one live, only the hung shard's keys degrade to the local pool —
    /// the live shard keeps serving its keys remotely.
    #[test]
    fn a_down_shard_degrades_only_its_own_keys() {
        use cpu_model::WorkloadSpec;
        use sim::{MitigationKind, SystemConfig};
        let live = qprac_serve::Server::bind("127.0.0.1:0", qprac_serve::ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
        let hung = hung_listener();
        let exec = RemoteExecutor::new(&format!("{live},{hung}"))
            .with_timeout(Duration::from_millis(150))
            .with_retry(qprac_serve::RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            })
            .with_cooldown(Duration::from_secs(30));
        // Shard 0 = live, shard 1 = hung (list order). Scan instruction
        // limits until each shard owns one key: routing is a pure
        // function of the key text, so this is deterministic.
        let mut per_shard: [Option<(Job, RunKey)>; 2] = [None, None];
        for instr in 300..500 {
            let cfg = SystemConfig::paper_default()
                .with_mitigation(MitigationKind::Qprac)
                .with_instruction_limit(instr);
            let job = Job::Workload {
                cfg,
                workload: WorkloadSpec::by_name("ycsb/a_like").unwrap(),
            };
            let key = job.key();
            let idx = exec.shard_map().shard_for(&key);
            if per_shard[idx].is_none() {
                per_shard[idx] = Some((job, key));
            }
            if per_shard.iter().all(Option::is_some) {
                break;
            }
        }
        let [Some((live_job, live_key)), Some((hung_job, hung_key))] = per_shard else {
            panic!("200 candidate keys never covered both shards");
        };
        let out =
            exec.execute_cells(&[(&live_job, live_key.clone()), (&hung_job, hung_key.clone())]);
        assert!(out.iter().all(|r| matches!(r, JobResult::Stats(_))));
        let stats = exec.fault_stats();
        assert_eq!(
            stats.local_fallbacks.load(Ordering::Relaxed),
            1,
            "exactly the hung shard's key degrades"
        );
        assert_eq!(stats.shard_downs.load(Ordering::Relaxed), 1);
        // The live shard actually served its key (not the local pool).
        let mut probe = qprac_serve::Client::connect(live).unwrap();
        assert_eq!(probe.stat("simulated").unwrap(), 1, "live shard served");
    }

    /// Shard-down semantics: inside the cooldown its keys fail fast
    /// (no timeout burn); after the cooldown a successful `HEALTH`
    /// probe readmits the shard and traffic goes remote again.
    #[test]
    fn down_shard_fails_fast_then_recovers_via_health_probe() {
        let (job, key) = tiny_workload_job();
        let live = qprac_serve::Server::bind("127.0.0.1:0", qprac_serve::ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap()
            .to_string();
        let exec = RemoteExecutor::new(&live)
            .with_timeout(Duration::from_secs(5))
            .with_cooldown(Duration::from_millis(150));
        for _ in 0..RemoteExecutor::BREAKER_THRESHOLD {
            exec.note_failure(0, "injected for test");
        }
        assert_eq!(exec.fault_stats().shard_downs.load(Ordering::Relaxed), 1);
        // Inside the cooldown: immediate local-degrade, no remote dial.
        let t0 = Instant::now();
        let err = run_remote(&exec, &key).unwrap_err();
        assert!(err.contains("marked down"), "{err}");
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "down-table hit must not burn a timeout ({:?})",
            t0.elapsed()
        );
        let _ = job; // the fallback path is covered elsewhere
                     // After the cooldown: the HEALTH probe readmits the shard.
        std::thread::sleep(Duration::from_millis(200));
        let out = run_remote(&exec, &key).expect("readmitted shard serves");
        assert!(matches!(out, JobResult::Stats(_)));
        assert_eq!(
            exec.fault_stats().shard_recoveries.load(Ordering::Relaxed),
            1
        );
    }

    /// Cluster scrape: per-shard `METRICS` expositions merge into one
    /// snapshot whose counters sum across shards and whose simulated
    /// count matches what the cluster actually ran.
    #[test]
    fn scrape_cluster_merges_shard_metrics() {
        let (_, key) = tiny_workload_job();
        let shards: Vec<String> = (0..2)
            .map(|_| {
                qprac_serve::Server::bind("127.0.0.1:0", qprac_serve::ServerConfig::default())
                    .unwrap()
                    .spawn()
                    .unwrap()
                    .to_string()
            })
            .collect();
        // Run the same key on both shards: each simulates it once.
        for addr in &shards {
            let mut c = qprac_serve::Client::connect(addr.as_str()).unwrap();
            c.run(&key).unwrap();
        }
        let merged = scrape_cluster(&shards).expect("both shards scrape");
        assert_eq!(merged.counter("qprac_simulated_total"), 2);
        assert!(merged.counter("qprac_requests_total") >= 2);
        assert_eq!(
            merged.hists["qprac_lat_runb_us"].count(),
            2,
            "run latency histograms merge across shards"
        );
        // The merged snapshot still renders as valid exposition text.
        let text = merged.render_prometheus();
        let reparsed = qprac_obs::Snapshot::parse_prometheus(&text).unwrap();
        assert_eq!(reparsed, merged);
        // An unreachable shard fails the scrape loudly, naming it.
        let mut bad = shards.clone();
        bad.push("127.0.0.1:1".into());
        let err = scrape_cluster(&bad).unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "{err}");
    }

    /// A server-side rejection ("unknown workload") is authoritative:
    /// every shard would answer the same, so the executor must not
    /// burn the retry ladder before degrading.
    #[test]
    fn authoritative_server_errors_skip_retries() {
        use sim::SystemConfig;
        let live = qprac_serve::Server::bind("127.0.0.1:0", qprac_serve::ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap()
            .to_string();
        let exec = RemoteExecutor::new(&live);
        let cfg = SystemConfig::paper_default().with_instruction_limit(100);
        let bad = RunKey::workload(&cfg, "nope/nope");
        let good = RunKey::workload(
            &cfg.with_mitigation(sim::MitigationKind::Qprac),
            "ycsb/a_like",
        );
        // One lane, the rejected key first: only its own cell fails,
        // and the key behind it is still served remotely.
        let mut answers = exec.run_lane(0, &[&bad, &good]).into_iter();
        let err = answers.next().unwrap().unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        assert!(matches!(answers.next(), Some(Ok(JobResult::Stats(_)))));
        assert_eq!(
            exec.fault_stats().retries.load(Ordering::Relaxed),
            0,
            "authoritative errors must not burn the retry ladder"
        );
        assert_eq!(
            exec.fault_stats().shard_downs.load(Ordering::Relaxed),
            0,
            "the daemon answered: the shard is healthy, not down"
        );
    }
}

//! The `qprac-serve` daemon: a std-only TCP service that resolves
//! simulation cells by canonical [`RunKey`] text.
//!
//! Every `RUNB <key>` request walks a three-tier path:
//!
//! 1. **Memory** — an entry-capped LRU of `Arc`-shared results;
//! 2. **Disk** — the persistent [`sim::RunCache`] (same files, same
//!    format as the bench runner's `QPRAC_RUN_CACHE`, so a warm bench
//!    cache can seed a server and vice versa);
//! 3. **Simulation** — the cell executes on a bounded worker budget
//!    (a counting semaphore sized like the bench pool), wrapped in
//!    single-flight coalescing so N concurrent requests for the same
//!    key trigger exactly one run.
//!
//! The reactor thread parses each key and probes the memory tier
//! itself, so a malformed key (`ERR`) or a memory hit (`OKB`) is
//! answered without a thread handoff; only disk lookups and
//! simulations go to the dispatch pool. Both paths count and time a
//! request the same way.
//!
//! One serve loop runs everything: the poll-readiness core in
//! [`crate::reactor`], one event loop plus a fixed dispatch pool, so
//! thousands of idle connections cost buffers, not OS threads. Armed
//! fault injection (`QPRAC_CHAOS`) runs inside that same loop. The
//! semaphore is what bounds simulation parallelism, so a thousand
//! clients asking for twelve distinct cells produce at most `workers`
//! concurrent simulations and zero duplicates.
//!
//! Every counter, gauge and latency histogram lives in the server's own
//! [`Registry`]; `STATS`, `HEALTH` and `METRICS` are three renderings
//! of one [`Snapshot`].

use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use qprac_obs::{Counter, Gauge, Histogram, Registry, Snapshot};
use sim::{CellResult, CellSpec, RunCache, RunKey};

use crate::chaos::{Chaos, ChaosSpec, CHAOS_COUNTERS};
use crate::memcache::LruCache;
use crate::protocol::Request;
use crate::singleflight::Group;

/// Default listen address of the daemon.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";
/// Default in-memory LRU capacity (entries).
pub const DEFAULT_LRU_ENTRIES: usize = 4096;
/// Default concurrent-connection ceiling (`QPRAC_SERVE_MAX_CONNS`).
pub const DEFAULT_MAX_CONNS: usize = 4096;
/// Reply-backlog soft cap per connection, in bytes: while more
/// unflushed reply bytes than this are queued, the server neither reads
/// nor answers further requests on the connection, so a peer that
/// pipelines requests and never reads its replies stalls on TCP
/// backpressure. One reply may still push the backlog past the cap.
pub const REPLY_BACKLOG_CAP: usize = 256 * 1024;
/// Disk-cache GC cadence: a sweep every this many stores.
const GC_EVERY_STORES: u64 = 32;

/// Server tuning, independent of process environment so tests and
/// embedders configure it explicitly.
#[derive(Debug)]
pub struct ServerConfig {
    /// In-memory LRU capacity in entries (0 disables the tier).
    pub lru_entries: usize,
    /// Maximum concurrent simulations (the worker-pool bound).
    pub workers: usize,
    /// Persistent disk tier (use [`RunCache::disabled`] for none).
    pub disk: RunCache,
    /// Deterministic fault injection (`QPRAC_CHAOS`); `None` = off.
    pub chaos: Option<ChaosSpec>,
    /// Concurrent-connection ceiling: past it, new connections are
    /// refused at accept (hang-up, no bytes) and counted.
    pub max_conns: usize,
}

impl ServerConfig {
    /// Environment-driven configuration: `QPRAC_SERVE_LRU`,
    /// `QPRAC_JOBS` (same knob as the bench pool; 0/unset = machine
    /// parallelism), `QPRAC_RUN_CACHE`/`QPRAC_RUN_CACHE_MAX_MB`,
    /// `QPRAC_CHAOS` (seeded fault injection, tests/CI only) and
    /// `QPRAC_SERVE_MAX_CONNS` (connection ceiling).
    pub fn from_env() -> Self {
        let available = ServerConfig::default().workers;
        let jobs = sim::env_usize("QPRAC_JOBS", 0);
        ServerConfig {
            lru_entries: sim::env_usize("QPRAC_SERVE_LRU", DEFAULT_LRU_ENTRIES),
            workers: if jobs == 0 {
                available
            } else {
                jobs.min(available)
            },
            disk: RunCache::from_env(),
            chaos: ChaosSpec::from_env(),
            max_conns: sim::env_usize("QPRAC_SERVE_MAX_CONNS", DEFAULT_MAX_CONNS),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            lru_entries: DEFAULT_LRU_ENTRIES,
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(8),
            disk: RunCache::disabled(),
            chaos: None,
            max_conns: DEFAULT_MAX_CONNS,
        }
    }
}

/// Verbs with a latency histogram (`qprac_lat_<verb>_us`), in `STATS`
/// render order.
const VERBS: [&str; 5] = ["runb", "stats", "health", "ping", "metrics"];

/// `STATS` keys and the registry metric behind each, in render order.
const STATS_FIELDS: [(&str, &str); 9] = [
    ("requests", "qprac_requests_total"),
    ("mem_hits", "qprac_mem_hits_total"),
    ("disk_hits", "qprac_disk_hits_total"),
    ("simulated", "qprac_simulated_total"),
    ("coalesced", "qprac_coalesced_total"),
    ("errors", "qprac_errors_total"),
    // Keys naming a mitigation this build does not register: the
    // version-skew signal (a subset of `errors`).
    ("unknown_mitigation", "qprac_unknown_mitigation_total"),
    ("store_errors", "qprac_store_errors_total"),
    ("in_flight", "qprac_in_flight"),
];

/// `HEALTH` keys after `status`, and the registry metric behind each.
const HEALTH_FIELDS: [(&str, &str); 8] = [
    ("uptime_ms", "qprac_uptime_ms"),
    ("workers", "qprac_workers"),
    ("active", "qprac_active"),
    ("queue_depth", "qprac_queue_depth"),
    ("in_flight", "qprac_in_flight"),
    ("connections", "qprac_connections"),
    ("max_conns", "qprac_max_conns"),
    ("rejected_conns", "qprac_rejected_conns_total"),
];

/// Handles into the server's registry, fetched once at bind so no
/// request looks a metric up by name.
pub(crate) struct Metrics {
    registry: Registry,
    /// Requests received (all verbs).
    pub(crate) requests: Counter,
    /// `RUNB` resolves answered (what a load test accounts exactly).
    pub(crate) run_requests: Counter,
    pub(crate) mem_hits: Counter,
    pub(crate) disk_hits: Counter,
    pub(crate) simulated: Counter,
    /// Resolves coalesced onto another request's in-flight simulation.
    pub(crate) coalesced: Counter,
    /// Requests answered with `ERR`.
    pub(crate) errors: Counter,
    pub(crate) unknown_mitigation: Counter,
    /// Connections refused at the `max_conns` ceiling.
    pub(crate) rejected_conns: Counter,
    /// Currently open connections.
    pub(crate) connections: Gauge,
    /// Reply bytes queued on all connections but not yet written.
    pub(crate) reply_backlog: Gauge,
    /// Resolves in progress, queued on the worker semaphore included.
    active: Gauge,
    pub(crate) lat_runb: Arc<Histogram>,
    lat_stats: Arc<Histogram>,
    lat_health: Arc<Histogram>,
    lat_ping: Arc<Histogram>,
    lat_metrics: Arc<Histogram>,
}

impl Metrics {
    fn new(workers: usize, max_conns: usize) -> Metrics {
        let registry = Registry::new();
        registry.gauge("qprac_workers").set(workers as i64);
        registry.gauge("qprac_max_conns").set(max_conns as i64);
        let counter = |name: &str| registry.counter(&format!("qprac_{name}_total"));
        let lat = |verb: &str| registry.histogram(&format!("qprac_lat_{verb}_us"));
        Metrics {
            requests: counter("requests"),
            run_requests: counter("run_requests"),
            mem_hits: counter("mem_hits"),
            disk_hits: counter("disk_hits"),
            simulated: counter("simulated"),
            coalesced: counter("coalesced"),
            errors: counter("errors"),
            unknown_mitigation: counter("unknown_mitigation"),
            rejected_conns: counter("rejected_conns"),
            connections: registry.gauge("qprac_connections"),
            reply_backlog: registry.gauge("qprac_reply_backlog_bytes"),
            active: registry.gauge("qprac_active"),
            lat_runb: lat("runb"),
            lat_stats: lat("stats"),
            lat_health: lat("health"),
            lat_ping: lat("ping"),
            lat_metrics: lat("metrics"),
            registry,
        }
    }

    /// The latency histogram of a control verb (`SHUTDOWN` has none).
    pub(crate) fn latency(&self, req: &Request) -> Option<&Histogram> {
        match req {
            Request::RunBin(_) => Some(&self.lat_runb),
            Request::Stats => Some(&self.lat_stats),
            Request::Health => Some(&self.lat_health),
            Request::Ping => Some(&self.lat_ping),
            Request::Metrics => Some(&self.lat_metrics),
            Request::Shutdown => None,
        }
    }
}

/// A bound, not-yet-serving server. [`Server::serve`] blocks the
/// calling thread; [`Server::spawn`] detaches it (tests, examples).
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

pub(crate) struct Inner {
    lru: Mutex<LruCache<RunKey, Arc<CellResult>>>,
    disk: RunCache,
    flights: Group<RunKey, Result<Arc<CellResult>, String>>,
    workers: Semaphore,
    pub(crate) worker_count: usize,
    stores: AtomicU64,
    pub(crate) chaos: Option<Chaos>,
    start: Instant,
    /// Set by `SHUTDOWN`: stop accepting, drain, exit [`Server::serve`].
    shutting_down: AtomicBool,
    /// Concurrent-connection ceiling.
    pub(crate) max_conns: usize,
    pub(crate) metrics: Metrics,
}

impl Inner {
    /// The memory tier. No cache operation panics halfway through an
    /// update, so a poisoned lock still guards a consistent cache: the
    /// poison is ignored rather than allowed to take the reactor thread
    /// down.
    pub(crate) fn lru(&self) -> MutexGuard<'_, LruCache<RunKey, Arc<CellResult>>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7117`, or `127.0.0.1:0` for an
    /// ephemeral test port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = config.workers.max(1);
        let max_conns = config.max_conns.max(1);
        let metrics = Metrics::new(workers, max_conns);
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                lru: Mutex::new(LruCache::new(config.lru_entries)),
                disk: config.disk,
                flights: Group::new(Err("simulation worker panicked".into())),
                workers: Semaphore::new(workers),
                worker_count: workers,
                stores: AtomicU64::new(0),
                chaos: config.chaos.map(|spec| Chaos::new(spec, &metrics.registry)),
                start: Instant::now(),
                shutting_down: AtomicBool::new(false),
                max_conns,
                metrics,
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `SHUTDOWN` request. Teardown is graceful:
    /// accepting stops, in-flight resolves drain, then the call
    /// returns `Ok` — so the daemon can exit cleanly instead of being
    /// killed mid-simulation.
    ///
    /// Runs the poll-readiness core ([`crate::reactor`]): one event-loop
    /// thread plus a fixed dispatch pool.
    #[cfg(unix)]
    pub fn serve(self) -> io::Result<()> {
        crate::reactor::serve(self.listener, self.inner)
    }

    /// The server needs poll(2): on non-unix targets this returns
    /// [`io::ErrorKind::Unsupported`].
    #[cfg(not(unix))]
    pub fn serve(self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "qprac-serve needs poll(2), which only unix targets provide",
        ))
    }

    /// Start serving on a detached background thread and return the
    /// bound address. The listener lives until process exit — meant for
    /// tests, examples and embedders, not for the daemon binary.
    pub fn spawn(self) -> io::Result<std::net::SocketAddr> {
        let addr = self.local_addr()?;
        std::thread::spawn(move || {
            let _ = self.serve();
        });
        Ok(addr)
    }
}

/// Answer a control verb (anything but `RUNB`) with its text payload.
/// `SHUTDOWN` flags the drain; the reactor stops accepting.
pub(crate) fn control_payload(inner: &Inner, req: &Request) -> String {
    match req {
        Request::Ping => "pong".into(),
        Request::Stats => render_stats(&snapshot(inner)),
        Request::Health => render_health(inner, &snapshot(inner)),
        Request::Metrics => snapshot(inner).render_prometheus(),
        Request::Shutdown => {
            inner.shutting_down.store(true, Ordering::SeqCst);
            "draining".into()
        }
        Request::RunBin(_) => unreachable!("RUNB is not a control verb"),
    }
}

/// The server's exported state: the registry plus the values derived
/// at read time (in-flight flights, queue depth, uptime, store errors).
pub(crate) fn snapshot(inner: &Inner) -> Snapshot {
    let mut snap = inner.metrics.registry.snapshot();
    snap.counters.insert(
        "qprac_store_errors_total".into(),
        inner.disk.failed_stores(),
    );
    let active = inner.metrics.active.get();
    for (name, value) in [
        ("qprac_in_flight", inner.flights.in_flight() as i64),
        (
            "qprac_queue_depth",
            (active - inner.worker_count as i64).max(0),
        ),
        ("qprac_uptime_ms", inner.start.elapsed().as_millis() as i64),
        (
            "qprac_draining",
            inner.shutting_down.load(Ordering::SeqCst) as i64,
        ),
    ] {
        snap.gauges.insert(name.into(), value);
    }
    snap
}

/// Append `\n<key>=<value>` per field (a counter or a gauge of `snap`).
fn render_fields(snap: &Snapshot, fields: &[(&str, &str)], out: &mut String) {
    for (key, name) in fields {
        let value = match snap.counters.get(*name) {
            Some(v) => v.to_string(),
            None => snap.gauge(name).to_string(),
        };
        out.push_str(&format!("\n{key}={value}"));
    }
}

/// Append every non-empty verb's `lat_<verb>_*` lines.
fn render_latency(snap: &Snapshot, out: &mut String) {
    for verb in VERBS {
        if let Some(hist) = snap.hists.get(&format!("qprac_lat_{verb}_us")) {
            hist.render_stats(verb, out);
        }
    }
}

/// The `STATS` payload: monotonic counters plus per-verb latency
/// quantiles.
fn render_stats(snap: &Snapshot) -> String {
    let mut text = String::new();
    render_fields(snap, &STATS_FIELDS, &mut text);
    render_latency(snap, &mut text);
    text.split_off(1) // every field line starts with '\n'
}

/// The `HEALTH` payload: liveness plus the load signals a
/// failover-aware client routes on, and fired faults when chaos is
/// armed.
fn render_health(inner: &Inner, snap: &Snapshot) -> String {
    let draining = snap.gauge("qprac_draining") != 0;
    let mut text = format!("status={}", if draining { "draining" } else { "ok" });
    render_fields(snap, &HEALTH_FIELDS, &mut text);
    render_latency(snap, &mut text);
    if inner.chaos.is_some() {
        render_fields(snap, &CHAOS_COUNTERS, &mut text);
    }
    text
}

/// Panic-safe tally of resolves in progress: the chaos leader-kill
/// unwinds straight through `resolve`, and a stuck gauge would report
/// phantom load forever.
struct ActiveGuard<'a>(&'a Gauge);

impl<'a> ActiveGuard<'a> {
    fn enter(gauge: &'a Gauge) -> Self {
        gauge.add(1);
        ActiveGuard(gauge)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Parse a `RUNB` key. A rejection is final: the reply is a clean
/// `ERR` the client treats as authoritative.
pub(crate) fn parse_key(inner: &Inner, key_text: &str) -> Result<CellSpec, String> {
    RunKey::parse_text(key_text).map_err(|e| {
        // Version-skew signal: a newer peer minted a key for a design
        // this build does not register. Counted (STATS) separately from
        // plain errors.
        if matches!(e, sim::KeyError::UnknownMitigation(_)) {
            inner.metrics.unknown_mitigation.inc();
        }
        e.to_string()
    })
}

/// The memory tier alone: what the reactor answers inline.
pub(crate) fn memory_hit(inner: &Inner, key: &RunKey) -> Option<Arc<CellResult>> {
    let hit = inner.lru().get(key)?;
    inner.metrics.mem_hits.inc();
    Some(hit)
}

/// The full three-tier resolve of a parsed cell and its key: memory,
/// disk, then single-flight simulate. Runs on the reactor's dispatch
/// pool.
pub(crate) fn resolve(
    inner: &Inner,
    spec: &CellSpec,
    key: RunKey,
) -> Result<Arc<CellResult>, String> {
    let m = &inner.metrics;
    let _active = ActiveGuard::enter(&m.active);
    // The reactor missed the memory tier, but a flight may have
    // published since (and a delayed request never looked).
    if let Some(hit) = memory_hit(inner, &key) {
        return Ok(hit);
    }
    if let Some(hit) = inner.disk.load(&key) {
        m.disk_hits.inc();
        let hit = Arc::new(hit);
        inner.lru().insert(key, Arc::clone(&hit));
        return Ok(hit);
    }
    let (result, led) = inner.flights.run(&key, || {
        // Re-check the caches inside the flight: a previous flight for
        // this key may have published between our miss above and this
        // registration (the group only collapses concurrent work).
        if let Some(hit) = memory_hit(inner, &key) {
            return Ok(hit);
        }
        if let Some(hit) = inner.disk.load(&key) {
            m.disk_hits.inc();
            return Ok(Arc::new(hit));
        }
        let _permit = inner.workers.acquire();
        if let Some(chaos) = &inner.chaos {
            // The leader-death fault: panic OUTSIDE the catch_unwind
            // below, so the unwind escapes the flight closure and the
            // single-flight guard must publish its poison value to the
            // followers (the property the chaos suite pins).
            chaos.kill_leader();
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| spec.run())).map_err(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            format!("simulation panicked: {msg}")
        })?;
        m.simulated.inc();
        let result = Arc::new(outcome);
        if let Err(e) = inner.disk.store(&key, &result) {
            // Counted by the cache (STATS `store_errors`); the result
            // itself still flows to the caller and the memory tier.
            qprac_obs::warn!("qprac-serve: disk-cache store failed: {e}");
        }
        if inner
            .stores
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(GC_EVERY_STORES)
        {
            inner.disk.gc();
        }
        inner.lru().insert(key.clone(), Arc::clone(&result));
        Ok(result)
    });
    if !led {
        m.coalesced.inc();
    }
    result
}

/// Counting semaphore bounding concurrent simulations (std has no
/// stable `Semaphore`; a mutex + condvar is all the server needs).
struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

struct Permit<'a>(&'a Semaphore);

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.freed.wait(permits).unwrap();
        }
        *permits -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.permits.lock().unwrap() += 1;
        self.0.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semaphore_bounds_concurrency() {
        let sem = Semaphore::new(2);
        let peak = AtomicU64::new(0);
        let current = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _p = sem.acquire();
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    current.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "semaphore leaked permits");
    }

    #[test]
    fn counters_render_all_fields() {
        let inner = Server::bind("127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .inner;
        inner.metrics.requests.add(3);
        let text = render_stats(&snapshot(&inner));
        let keys: Vec<&str> = text.lines().map(|l| l.split('=').next().unwrap()).collect();
        assert_eq!(
            keys,
            STATS_FIELDS.map(|(key, _)| key),
            "no latency lines before traffic: {text}"
        );
        assert!(text.starts_with("requests=3\n"), "{text}");
        let health = render_health(&inner, &snapshot(&inner));
        assert!(health.starts_with("status=ok\nuptime_ms="), "{health}");
        assert!(
            health.ends_with("max_conns=4096\nrejected_conns=0"),
            "{health}"
        );
        // METRICS renders the same snapshot: every STATS and HEALTH
        // field has its metric, and nothing else is exported.
        let prom = snapshot(&inner).render_prometheus();
        for (_, name) in STATS_FIELDS.iter().chain(&HEALTH_FIELDS) {
            assert!(prom.contains(&format!("\n{name} ")), "{name} missing");
        }
        let snap = snapshot(&inner);
        let counters: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(
            counters,
            [
                "qprac_coalesced_total",
                "qprac_disk_hits_total",
                "qprac_errors_total",
                "qprac_mem_hits_total",
                "qprac_rejected_conns_total",
                "qprac_requests_total",
                "qprac_run_requests_total",
                "qprac_simulated_total",
                "qprac_store_errors_total",
                "qprac_unknown_mitigation_total",
            ]
        );
        let mut hists = VERBS.map(|v| format!("qprac_lat_{v}_us")).to_vec();
        hists.sort();
        assert_eq!(snap.hists.keys().cloned().collect::<Vec<_>>(), hists);
    }

    #[test]
    fn render_emits_count_and_quantiles_only_when_nonempty() {
        let inner = Server::bind("127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .inner;
        let stats = || render_stats(&snapshot(&inner));
        assert!(!stats().contains("lat_"), "no observations, no lines");
        inner.metrics.lat_runb.record_us(100);
        inner.metrics.lat_runb.record_us(200);
        let text = stats();
        assert!(text.contains("lat_runb_count=2"), "{text}");
        assert!(text.contains("lat_runb_p50_us=127"), "{text}");
        assert!(text.contains("lat_runb_p99_us=255"), "{text}");
        assert!(!text.contains("lat_ping"), "{text}");
    }

    #[test]
    fn render_includes_the_metrics_verb() {
        let inner = Server::bind("127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .inner;
        let hist = inner.metrics.latency(&Request::Metrics).unwrap();
        hist.record_us(50);
        let text = render_health(&inner, &snapshot(&inner));
        assert!(text.contains("lat_metrics_count=1"), "{text}");
    }
}

//! The `qprac-serve` daemon: a std-only TCP service that resolves
//! simulation cells by canonical [`RunKey`] text.
//!
//! Every `RUNB <key>` request walks a three-tier path:
//!
//! 1. **Memory** — an entry-capped LRU, keyed by canonical key text,
//!    of each cell's encoded [`sim::codec`] payload (the bytes an `OKB`
//!    frame carries), encoded once as the result enters the tier;
//! 2. **Disk** — the persistent [`sim::RunCache`] (same files, same
//!    format as the bench runner's `QPRAC_RUN_CACHE`, so a warm bench
//!    cache can seed a server and vice versa);
//! 3. **Simulation** — the cell executes on one of the dispatch pool's
//!    `workers` threads (sized like the bench pool), wrapped in
//!    single-flight coalescing so N concurrent requests for the same
//!    key trigger exactly one run.
//!
//! The reactor thread probes the memory tier with the request's raw key
//! text before parsing it: only keys that parsed, and were therefore
//! canonical, are ever inserted, so a byte-equal hit is a well-formed
//! key and is answered (`OKB`) with one lookup and one copy. A miss is
//! parsed, and a malformed key answered (`ERR`), on the same thread;
//! only disk lookups and simulations go to the dispatch pool. Both
//! paths count and time a request the same way.
//!
//! One serve loop runs everything: a poll-readiness core, one event
//! loop plus a fixed dispatch pool, so thousands of idle connections
//! cost buffers, not OS threads. Armed fault injection (`QPRAC_CHAOS`)
//! runs inside that same loop. Only the dispatch pool resolves, and it
//! has exactly `workers` threads, so a thousand clients asking for
//! twelve distinct cells produce at most `workers` concurrent
//! simulations and zero duplicates; the rest wait in the dispatch
//! queue, whose length is the `qprac_queue_depth` gauge.
//!
//! Every counter, gauge and latency histogram lives in the server's own
//! [`Registry`]; `METRICS` renders one [`Snapshot`] of it, plus the
//! values derived at read time, as Prometheus text. That is the one way
//! to read a shard's state; `PING` is the liveness probe.

use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use qprac_obs::{Counter, Gauge, Histogram, Registry, Snapshot};
use sim::{CellResult, CellSpec, RunCache, RunKey};

use crate::chaos::{Chaos, ChaosSpec};
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

/// One cell's encoded [`sim::codec`] payload, as the memory tier holds
/// it and an `OKB` frame carries it.
pub(crate) type Payload = Arc<[u8]>;

/// Verbs with a latency histogram (`qprac_lat_<verb>_us`).
pub const VERBS: [&str; 3] = ["runb", "ping", "metrics"];

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
    /// Resolves in progress on the dispatch pool.
    active: Gauge,
    /// Resolves handed to the dispatch pool but not yet taken by a
    /// worker.
    pub(crate) queue_depth: Gauge,
    pub(crate) lat_runb: Arc<Histogram>,
    lat_ping: Arc<Histogram>,
    lat_metrics: Arc<Histogram>,
}

impl Metrics {
    fn new(workers: usize, max_conns: usize) -> Metrics {
        let registry = Registry::new();
        registry.gauge("qprac_workers").set(workers as i64);
        registry.gauge("qprac_max_conns").set(max_conns as i64);
        let counter = |name: &str| registry.counter(&format!("qprac_{name}_total"));
        let [lat_runb, lat_ping, lat_metrics] =
            VERBS.map(|verb| registry.histogram(&format!("qprac_lat_{verb}_us")));
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
            queue_depth: registry.gauge("qprac_queue_depth"),
            lat_runb,
            lat_ping,
            lat_metrics,
            registry,
        }
    }

    /// The latency histogram of a control verb (`SHUTDOWN` has none).
    pub(crate) fn latency(&self, req: &Request) -> Option<&Histogram> {
        match req {
            Request::RunBin(_) => Some(&self.lat_runb),
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
    lru: Mutex<LruCache<String, Payload>>,
    disk: RunCache,
    flights: Group<RunKey, Result<Payload, String>>,
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
    pub(crate) fn lru(&self) -> MutexGuard<'_, LruCache<String, Payload>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Encode `result` as it enters the memory tier under `key`: the one
    /// encoding every later hit on that key serves.
    fn admit(&self, key: &RunKey, result: &CellResult) -> Payload {
        let payload: Payload = sim::codec::encode_cell(result).into();
        self.lru().insert(key.as_str().into(), Arc::clone(&payload));
        payload
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
    /// Runs the poll-readiness core: one event-loop thread plus a
    /// fixed dispatch pool.
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
        Request::Metrics => snapshot(inner).render_prometheus(),
        Request::Shutdown => {
            inner.shutting_down.store(true, Ordering::SeqCst);
            "draining".into()
        }
        Request::RunBin(_) => unreachable!("RUNB is not a control verb"),
    }
}

/// The server's exported state: the registry plus the values derived
/// at read time (in-flight flights, uptime, store errors).
pub(crate) fn snapshot(inner: &Inner) -> Snapshot {
    let mut snap = inner.metrics.registry.snapshot();
    snap.counters.insert(
        "qprac_store_errors_total".into(),
        inner.disk.failed_stores(),
    );
    for (name, value) in [
        ("qprac_in_flight", inner.flights.in_flight() as i64),
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
        // this build does not register. Counted separately from plain
        // errors.
        if matches!(e, sim::KeyError::UnknownMitigation(_)) {
            inner.metrics.unknown_mitigation.inc();
        }
        e.to_string()
    })
}

/// The memory tier alone, counted as a hit when it holds `key_text`.
fn memory_hit(inner: &Inner, key_text: &str) -> Option<Payload> {
    let hit = inner.lru().get(key_text)?;
    inner.metrics.mem_hits.inc();
    Some(hit)
}

/// The full three-tier resolve of a parsed cell and its key: memory,
/// disk, then single-flight simulate. Runs on the reactor's dispatch
/// pool.
pub(crate) fn resolve(inner: &Inner, spec: &CellSpec, key: RunKey) -> Result<Payload, String> {
    let m = &inner.metrics;
    let _active = ActiveGuard::enter(&m.active);
    // The reactor missed the memory tier, but a flight may have
    // published since (and a delayed request was not served from it).
    if let Some(hit) = memory_hit(inner, key.as_str()) {
        return Ok(hit);
    }
    if let Some(hit) = inner.disk.load(&key) {
        m.disk_hits.inc();
        return Ok(inner.admit(&key, &hit));
    }
    let (result, led) = inner.flights.run(&key, || {
        // Re-check the caches inside the flight: a previous flight for
        // this key may have published between our miss above and this
        // registration (the group only collapses concurrent work).
        if let Some(hit) = memory_hit(inner, key.as_str()) {
            return Ok(hit);
        }
        if let Some(hit) = inner.disk.load(&key) {
            m.disk_hits.inc();
            return Ok(inner.admit(&key, &hit));
        }
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
        if let Err(e) = inner.disk.store(&key, &outcome) {
            // Counted by the cache (`qprac_store_errors_total`); the result
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
        Ok(inner.admit(&key, &outcome))
    });
    if !led {
        m.coalesced.inc();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `METRICS` scrape of `inner`, parsed back the way a client reads it.
    fn scrape(inner: &Inner) -> Snapshot {
        Snapshot::parse_prometheus(&snapshot(inner).render_prometheus()).expect("METRICS parses")
    }

    /// `METRICS` exports exactly this set: every counter and gauge the
    /// retired `name=value` verbs printed (their `status=draining` is
    /// `qprac_draining`), and one latency histogram per verb that has one.
    #[test]
    fn counters_render_all_fields() {
        let inner = Server::bind("127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .inner;
        inner.metrics.requests.add(3);
        assert!(inner.metrics.latency(&Request::Shutdown).is_none());
        let snap = scrape(&inner);
        assert_eq!(snap.counter("qprac_requests_total"), 3);
        assert_eq!(
            snap.counters.keys().map(String::as_str).collect::<Vec<_>>(),
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
        assert_eq!(
            snap.gauges.keys().map(String::as_str).collect::<Vec<_>>(),
            [
                "qprac_active",
                "qprac_connections",
                "qprac_draining",
                "qprac_in_flight",
                "qprac_max_conns",
                "qprac_queue_depth",
                "qprac_reply_backlog_bytes",
                "qprac_uptime_ms",
                "qprac_workers",
            ]
        );
        assert_eq!(snap.gauge("qprac_max_conns"), DEFAULT_MAX_CONNS as i64);
        assert_eq!(snap.gauge("qprac_draining"), 0);
        let mut hists = VERBS.map(|v| format!("qprac_lat_{v}_us")).to_vec();
        hists.sort();
        assert_eq!(snap.hists.keys().cloned().collect::<Vec<_>>(), hists);
        // `SHUTDOWN` flips the draining gauge.
        assert_eq!(control_payload(&inner, &Request::Shutdown), "draining");
        assert_eq!(snapshot(&inner).gauge("qprac_draining"), 1);
    }

    /// A histogram is exported empty or not; its count and quantiles
    /// read 0 until its verb is observed, and only that verb's move.
    #[test]
    fn render_emits_count_and_quantiles_only_when_nonempty() {
        let inner = Server::bind("127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .inner;
        let runb = |snap: &Snapshot| {
            let h = &snap.hists["qprac_lat_runb_us"];
            (h.count(), h.quantile_us(0.5), h.quantile_us(0.99))
        };
        assert_eq!(runb(&scrape(&inner)), (0, 0, 0), "no observations");
        for us in [100, 200] {
            inner
                .metrics
                .latency(&Request::RunBin("k".into()))
                .unwrap()
                .record_us(us);
        }
        let snap = scrape(&inner);
        assert_eq!(runb(&snap), (2, 127, 255));
        assert_eq!(snap.hists["qprac_lat_ping_us"].count(), 0);
    }

    /// The `METRICS` verb feeds its own latency histogram.
    #[test]
    fn render_includes_the_metrics_verb() {
        let inner = Server::bind("127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .inner;
        inner
            .metrics
            .latency(&Request::Metrics)
            .unwrap()
            .record_us(50);
        let snap = scrape(&inner);
        assert_eq!(snap.hists["qprac_lat_metrics_us"].count(), 1);
        assert_eq!(snap.hists["qprac_lat_runb_us"].count(), 0);
    }
}

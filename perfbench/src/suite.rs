//! The figure-suite workload `suite_remote`: the whole `run_all` cell
//! population through `qprac_bench::execute_with` on a `RemoteExecutor`
//! without a client cache, against a two-shard `qprac-serve` cluster on
//! loopback whose disk tier a cold local pass filled and whose memory
//! tier one untimed remote pass filled. Traced runs also time that cold
//! pass cell by cell, and a warm pass from the local run cache.
//!
//! The population is fixed (`QPRAC_INSTR`/`QPRAC_ATTACK_WINDOW` below)
//! and does not depend on `--seed`. Every pass writes the suite's CSVs
//! into the run's work directory; their digest must equal the stored
//! one, so the CSVs of cold, warm local and remote passes are
//! byte-identical.

use std::fs;
use std::os::fd::AsRawFd;
use std::os::raw::c_int;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use qprac_bench::experiments::run_all_specs;
use qprac_bench::harness::parallel;
use qprac_bench::{
    execute_with, profile, scrape_cluster, CellExecutor, ExperimentSpec, Job, JobResult,
    LocalExecutor, RemoteExecutor, RunReport,
};
use qprac_obs::{HistSnapshot, Snapshot};
use qprac_serve::{Client, Server, ServerConfig};
use sim::{CellResult, RunCache, RunKey};

use crate::report::{self, AddUp, Report, CELL_KINDS, PHASES};
use crate::{fnv64, peak_rss_mb, Args, Checks, WorkDir};

/// Instructions per core of every suite cell.
const SUITE_INSTR: &str = "1000";
/// Bandwidth-attack window of the Fig 19 cells, in memory cycles.
const SUITE_ATTACK_WINDOW: &str = "50000";
/// Shards of the loopback cluster.
const SHARDS: usize = 2;

extern "C" {
    fn dup(fd: c_int) -> c_int;
    fn dup2(src: c_int, dst: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// Sends this process's stdout (the figure tables every pass prints) to
/// a file in the work directory until dropped, so the benchmark's own
/// output stays short and pipe back-pressure never enters a timing.
struct Captured {
    file: fs::File,
    saved: c_int,
}

impl Captured {
    fn to(path: &Path) -> std::io::Result<Captured> {
        use std::io::Write;
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        std::io::stdout().flush()?;
        // SAFETY: plain descriptor calls on fd 1 and on a descriptor
        // `file` owns for the guard's lifetime; no Rust object aliases
        // the duplicate `saved`.
        let saved = unsafe { dup(1) };
        if saved < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: as above; `saved` is closed on the error path since no
        // guard will own it.
        if unsafe { dup2(file.as_raw_fd(), 1) } < 0 {
            let err = std::io::Error::last_os_error();
            unsafe { close(saved) };
            return Err(err);
        }
        Ok(Captured { file, saved })
    }

    /// Discard what the last pass printed.
    fn clear(&self) {
        use std::io::Write;
        let _ = std::io::stdout().flush();
        let _ = self.file.set_len(0);
    }
}

impl Drop for Captured {
    fn drop(&mut self) {
        use std::io::Write;
        let _ = std::io::stdout().flush();
        // SAFETY: `saved` is the descriptor `dup` returned in `to`,
        // owned by this guard and closed exactly once here.
        unsafe {
            dup2(self.saved, 1);
            close(self.saved);
        }
    }
}

/// The loopback cluster: `SHARDS` in-process servers on ephemeral
/// ports, each with one simulation worker and the run cache as its disk
/// tier.
struct Cluster {
    addrs: Vec<String>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Cluster {
    fn bind(cache_dir: &Path) -> std::io::Result<Vec<Server>> {
        (0..SHARDS)
            .map(|_| {
                let config = ServerConfig {
                    workers: 1,
                    disk: RunCache::at(cache_dir),
                    ..ServerConfig::default()
                };
                Server::bind("127.0.0.1:0", config)
            })
            .collect()
    }

    fn serve(servers: Vec<Server>) -> std::io::Result<Cluster> {
        let mut addrs = Vec::new();
        let mut threads = Vec::new();
        for server in servers {
            addrs.push(server.local_addr()?.to_string());
            threads.push(std::thread::spawn(move || server.serve()));
        }
        Ok(Cluster { addrs, threads })
    }

    /// `SHUTDOWN` every shard and join its thread.
    fn stop(self) -> Result<(), String> {
        let mut result = Ok(());
        for addr in &self.addrs {
            if let Err(e) = Client::connect(addr.as_str())
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()))
            {
                result = Err(format!("shard {addr}: shutdown failed: {e}"));
            }
        }
        for t in self.threads {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => result = Err(format!("shard exited with {e}")),
                Err(_) => result = Err("shard thread panicked".into()),
            }
        }
        result
    }
}

/// Times every cell by kind (traced runs only). Wrapping the local pool
/// it runs the cells itself, exactly as `LocalExecutor` does, timing
/// each; wrapping any other executor it only times the whole call.
struct Timing<'a> {
    inner: Option<&'a dyn CellExecutor>,
    samples: Mutex<Vec<(usize, f64)>>,
    wall_s: Mutex<f64>,
}

impl<'a> Timing<'a> {
    fn new(inner: Option<&'a dyn CellExecutor>) -> Self {
        Timing {
            inner,
            samples: Mutex::new(Vec::new()),
            wall_s: Mutex::new(0.0),
        }
    }
}

/// Index of a key's kind in [`CELL_KINDS`], from its canonical prefix.
fn kind_of(key: &RunKey) -> usize {
    let prefix = key.as_str().split(':').next().unwrap_or("");
    CELL_KINDS
        .iter()
        .position(|k| *k == prefix)
        .unwrap_or(CELL_KINDS.len() - 1)
}

impl CellExecutor for Timing<'_> {
    fn describe(&self) -> String {
        self.inner
            .map_or_else(|| LocalExecutor.describe(), |e| e.describe())
    }

    fn execute_cells(&self, cells: &[(&Job, RunKey)]) -> Vec<JobResult> {
        let t0 = Instant::now();
        let out = match self.inner {
            Some(inner) => inner.execute_cells(cells),
            None => parallel(cells.len(), |i| {
                let t = Instant::now();
                let result = profile::time("simulate", || cells[i].0.run());
                let secs = t.elapsed().as_secs_f64();
                self.samples
                    .lock()
                    .expect("sample lock")
                    .push((kind_of(&cells[i].1), secs));
                result
            }),
        };
        *self.wall_s.lock().expect("wall lock") += t0.elapsed().as_secs_f64();
        out
    }
}

/// Digest of every file the pass wrote into `dir` (name, length and
/// bytes, in name order); the files are removed afterwards.
fn digest_and_clear(dir: &Path) -> (u64, usize) {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        let bytes = fs::read(f).unwrap_or_default();
        all.extend_from_slice(f.file_name().unwrap_or_default().as_encoded_bytes());
        all.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        all.extend_from_slice(&bytes);
        let _ = fs::remove_file(f);
    }
    (fnv64(&all), files.len())
}

/// Simulated instructions the population's results stand for: retired
/// instructions summed over every unique workload and mix cell, read
/// back from a filled run cache.
fn delivered_instructions(specs: &[ExperimentSpec], cache: &RunCache) -> u64 {
    let mut keys: Vec<RunKey> = specs
        .iter()
        .flat_map(|s| s.jobs.iter().map(Job::key))
        .collect();
    keys.sort();
    keys.dedup();
    keys.iter()
        .filter_map(|k| match cache.load(k) {
            Some(CellResult::Stats(s)) => Some(s.cpu.retired),
            _ => None,
        })
        .sum()
}

/// Per-run state shared by the passes.
struct Suite {
    specs: Vec<ExperimentSpec>,
    results: PathBuf,
    capture: Captured,
    reference: &'static str,
    cluster: Cluster,
    /// The cold pass's run cache, the shards' disk tier.
    shared_cache: PathBuf,
}

/// One timed pass and what it produced.
struct Outcome {
    report: RunReport,
    wall_s: f64,
}

/// Server-side counter deltas of one remote pass.
struct ServeDelta {
    before: Snapshot,
    after: Snapshot,
}

impl ServeDelta {
    fn counter(&self, name: &str) -> u64 {
        self.after.counter(name) - self.before.counter(name)
    }
}

impl Suite {
    /// Run one pass and check its CSVs against the stored digest.
    fn pass(
        &mut self,
        executor: &dyn CellExecutor,
        cache: &RunCache,
        checks: &mut Checks,
    ) -> Outcome {
        let t0 = Instant::now();
        let report = execute_with(&self.specs, executor, cache, false)
            .expect("a suite pass writes its CSVs into the work directory");
        let wall_s = t0.elapsed().as_secs_f64();
        self.capture.clear();
        let (digest, files) = digest_and_clear(&self.results);
        let line = format!("digest {digest:016x} files={files}");
        checks.check(report.unique as u64, line == self.reference, || {
            format!(
                "suite CSVs ({line}) differ from the stored reference ({}); only if the \
                 change is meant to alter results, put this line in \
                 perfbench/reference/suite.txt: {line}",
                self.reference
            )
        });
        Outcome { report, wall_s }
    }

    /// The cold pass that fills the shards' disk tier, on `executor`
    /// (the local pool, or the timing wrapper around it).
    fn cold(&mut self, executor: &dyn CellExecutor, checks: &mut Checks) -> Outcome {
        let _ = fs::remove_dir_all(&self.shared_cache);
        let out = self.pass(executor, &RunCache::at(&self.shared_cache), checks);
        checks.check(1, out.report.executed == out.report.unique, || {
            format!(
                "cold pass executed {} of {} cells",
                out.report.executed, out.report.unique
            )
        });
        out
    }

    /// A warm pass on the local pool over the filled cache.
    fn warm(&mut self, checks: &mut Checks) -> Outcome {
        let out = self.pass(&LocalExecutor, &RunCache::at(&self.shared_cache), checks);
        checks.check(1, out.report.cache_hits == out.report.unique, || {
            format!(
                "warm pass hit {} of {} cells",
                out.report.cache_hits, out.report.unique
            )
        });
        out
    }

    /// One pass through the cluster on `executor` (`remote`, or the
    /// timing wrapper around it), with the cluster checks: nothing
    /// simulated on the shards, no server errors, no local fallbacks.
    fn remote(
        &mut self,
        executor: &dyn CellExecutor,
        remote: &RemoteExecutor,
        checks: &mut Checks,
    ) -> (Outcome, ServeDelta) {
        let scrape = |addrs: &[String]| scrape_cluster(addrs).expect("scrape the cluster");
        let before = scrape(&self.cluster.addrs);
        let out = self.pass(executor, &RunCache::disabled(), checks);
        let delta = ServeDelta {
            before,
            after: scrape(&self.cluster.addrs),
        };
        let simulated = delta.counter("qprac_simulated_total");
        let errors = delta.counter("qprac_errors_total");
        checks.check(
            delta.counter("qprac_run_requests_total"),
            simulated == 0 && errors == 0,
            || {
                format!(
                    "warm cluster pass simulated {simulated} cells and answered {errors} errors"
                )
            },
        );
        let fallbacks = remote
            .fault_stats()
            .local_fallbacks
            .load(std::sync::atomic::Ordering::Relaxed);
        checks.check(1, fallbacks == 0, || {
            format!("{fallbacks} cells fell back to the local pool")
        });
        (out, delta)
    }
}

/// Configure the process environment for the suite. Called before any
/// thread starts; nothing changes it afterwards.
fn configure_env(results: &Path) {
    std::env::set_var("QPRAC_INSTR", SUITE_INSTR);
    std::env::set_var("QPRAC_ATTACK_WINDOW", SUITE_ATTACK_WINDOW);
    std::env::set_var("QPRAC_RESULTS_DIR", results);
    // The runner pool is the load generator: one worker holding one
    // connection per shard keeps client threads plus connections within
    // the two cores of the reference box.
    std::env::set_var("QPRAC_JOBS", "1");
}

/// The set-up before the first timed call: build the specs and bind the
/// shards. Returns them with its host seconds.
fn set_up(shared_cache: &Path) -> (Vec<ExperimentSpec>, Vec<Server>, f64) {
    let t = Instant::now();
    let specs = run_all_specs();
    let servers = Cluster::bind(shared_cache).expect("bind the shards");
    (specs, servers, t.elapsed().as_secs_f64())
}

/// Run the workload; returns the end-to-end report (untraced) or the
/// per-layer report (traced).
pub fn run(args: &Args, work: &WorkDir, checks: &mut Checks, notes: &mut Vec<String>) -> Report {
    let results = work.path().join("results");
    fs::create_dir_all(&results).expect("create the results directory");
    configure_env(&results);
    let shared_cache = work.path().join("shared-cache");
    let (specs, servers, _) = set_up(&shared_cache);
    let mut suite = Suite {
        specs,
        results,
        capture: Captured::to(&work.path().join("stdout.txt")).expect("capture stdout"),
        reference: include_str!("../reference/suite.txt").trim(),
        cluster: Cluster::serve(servers).expect("start the shards"),
        shared_cache,
    };
    // Preparation, untimed unless traced: fill the disk tier, then the
    // shards' memory tier.
    let cold_timing = Timing::new(None);
    let cold = if args.trace {
        suite.cold(&cold_timing, checks)
    } else {
        suite.cold(&LocalExecutor, checks)
    };
    let remote = RemoteExecutor::new(&suite.cluster.addrs.join(","));
    suite.remote(&remote, &remote, checks);
    let report = if args.trace {
        traced(
            &mut suite,
            &remote,
            &cold,
            &cold_timing,
            args,
            checks,
            notes,
        )
    } else {
        untraced(&mut suite, &remote, args, checks, notes)
    };
    let Suite {
        cluster, capture, ..
    } = suite;
    drop(capture);
    let stopped = cluster.stop();
    checks.check(1, stopped.is_ok(), || format!("cluster: {stopped:?}"));
    report
}

fn untraced(
    suite: &mut Suite,
    remote: &RemoteExecutor,
    args: &Args,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Report {
    let instructions = delivered_instructions(&suite.specs, &RunCache::at(&suite.shared_cache));
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    while walls.len() < 3 || t0.elapsed() < args.seconds {
        // Repeat the set-up between passes, so its samples spread over
        // the run like the passes' do.
        setups.push(set_up(&suite.shared_cache).2);
        walls.push(suite.remote(remote, remote, checks).0.wall_s);
    }
    let wall_s = report::fastest(&walls);
    let mut r = Report::new(report::END_TO_END);
    r.set("wall_s", wall_s);
    r.set("sim_minstr_per_s", instructions as f64 / wall_s / 1e6);
    r.set("setup_s", report::fastest(&setups));
    notes.push(format!(
        "suite_remote: suite_remote_warm_s = {wall_s} s (fastest of {} passes; median {:.4} s, \
         max {:.4} s; {} simulated instructions delivered per pass; QPRAC_INSTR={SUITE_INSTR} \
         QPRAC_ATTACK_WINDOW={SUITE_ATTACK_WINDOW}, {SHARDS} shards, one pool worker, \
         independent of --seed)",
        walls.len(),
        report::median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        instructions,
    ));
    r
}

/// Bucket-wise difference of two histogram snapshots.
fn hist_delta(after: Option<&HistSnapshot>, before: Option<&HistSnapshot>) -> HistSnapshot {
    let mut out = after.cloned().unwrap_or_default();
    if let Some(b) = before {
        for (o, b) in out.buckets.iter_mut().zip(b.buckets.iter()) {
            *o -= b;
        }
        out.sum_us -= b.sum_us;
    }
    out
}

/// `(p50, tail)` in µs of a histogram under the percentile rule (the
/// tail falls back to the highest occupied bucket).
fn hist_p50_tail(h: &HistSnapshot) -> (f64, f64) {
    let tail_q = report::tail_quantile(h.count()).unwrap_or(1.0);
    (h.quantile_us(0.5) as f64, h.quantile_us(tail_q) as f64)
}

/// Per-kind cell times of the cold pass.
fn record_cells(r: &mut Report, cold: &Outcome, timing: &Timing) {
    r.set("bench.cold_local_s", cold.wall_s);
    let samples = timing.samples.lock().expect("sample lock");
    for (k, kind) in CELL_KINDS.iter().enumerate() {
        let secs: Vec<f64> = samples.iter().filter(|s| s.0 == k).map(|s| s.1).collect();
        let (p50, tail) = report::p50_tail(&secs);
        r.set(&format!("bench.cell_s.{kind}.count"), secs.len() as f64);
        r.set(&format!("bench.cell_s.{kind}.total"), secs.iter().sum());
        r.set(&format!("bench.cell_s.{kind}.p50"), p50 * 1e3);
        r.set(&format!("bench.cell_s.{kind}.tail"), tail * 1e3);
    }
}

/// The per-layer numbers of the cluster layer, from one pass's deltas.
fn record_serve(r: &mut Report, d: &ServeDelta, roundtrip_s: f64) {
    let runs = d.counter("qprac_run_requests_total");
    let mem = d.counter("qprac_mem_hits_total");
    let disk = d.counter("qprac_disk_hits_total");
    r.set("serve.requests", runs as f64);
    r.set("serve.mem_hits", mem as f64);
    r.set("serve.disk_hits", disk as f64);
    r.set("serve.simulated", d.counter("qprac_simulated_total") as f64);
    r.set("serve.coalesced", d.counter("qprac_coalesced_total") as f64);
    r.set("serve.errors", d.counter("qprac_errors_total") as f64);
    r.set("serve.hit_ratio", (mem + disk) as f64 / runs.max(1) as f64);
    let lat = hist_delta(
        d.after.hists.get("qprac_lat_runb_us"),
        d.before.hists.get("qprac_lat_runb_us"),
    );
    let (p50, tail) = hist_p50_tail(&lat);
    r.set("serve.lat_runb_us.p50", p50);
    r.set("serve.lat_runb_us.tail", tail);
    r.set(
        "serve.wire_us",
        (roundtrip_s * 1e6 - lat.sum_us as f64) / runs.max(1) as f64,
    );
}

fn traced(
    suite: &mut Suite,
    remote: &RemoteExecutor,
    cold: &Outcome,
    cold_timing: &Timing,
    args: &Args,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Report {
    let untraced_peak_mb = peak_rss_mb();
    let t0 = Instant::now();
    let mut per_pass: Vec<Report> = Vec::new();
    while per_pass.is_empty() || t0.elapsed() < args.seconds {
        // The untraced twin of the traced pass, for the overhead.
        let plain_wall = suite.remote(remote, remote, checks).0.wall_s;
        let timing = Timing::new(Some(remote));
        let phases_before = qprac_obs::global().snapshot();
        let (out, serve) = suite.remote(&timing, remote, checks);
        let phases_after = qprac_obs::global().snapshot();
        let mut r = Report::new(&report::per_layer());
        let rep = &out.report;
        r.set("bench.cells", rep.cells as f64);
        r.set("bench.unique", rep.unique as f64);
        r.set("bench.dedupe_ratio", rep.dedupe_ratio());
        r.set("bench.cache_hits", rep.cache_hits as f64);
        r.set("bench.executed", rep.executed as f64);
        let outside_s = out.wall_s - *timing.wall_s.lock().expect("wall lock");
        r.set("bench.outside_executor_s", outside_s);
        for phase in PHASES {
            let name = format!("{}{phase}", profile::PREFIX);
            let h = hist_delta(
                phases_after.hists.get(&name),
                phases_before.hists.get(&name),
            );
            let (p50, tail) = hist_p50_tail(&h);
            r.set(&format!("bench.phase.{phase}.total"), h.sum_us as f64 / 1e6);
            r.set(&format!("bench.phase.{phase}.p50"), p50);
            r.set(&format!("bench.phase.{phase}.tail"), tail);
        }
        let simulate_s = r.get("bench.phase.simulate.total");
        let roundtrip_s = r.get("bench.phase.remote_roundtrip.total");
        record_serve(&mut r, &serve, roundtrip_s);
        record_cells(&mut r, cold, cold_timing);
        r.set("bench.warm_local_s", suite.warm(checks).wall_s);
        r.set("trace.overhead_s", out.wall_s - plain_wall);
        r.set("proc.peak_rss_mb", untraced_peak_mb);
        // One pool worker: summed work is wall work.
        AddUp::suite(out.wall_s, simulate_s, roundtrip_s, 1, outside_s).record(&mut r);
        per_pass.push(r);
    }
    let r = Report::median_of(&per_pass);
    notes.push(format!(
        "suite_remote: {} traced passes; add-up: engine cells simulated locally {:.4} s + round \
         trips {:.4} s + outside the executor {:.4} s explain {:.1}% of wall {:.4} s, \
         unexplained {:.4} s; warm local pass {:.4} s; cold pass {:.4} s, of which {} engine \
         cells took {:.4} s (cell tails: {} for engine, {} for workload cells; phase tails: {})",
        per_pass.len(),
        r.get("bench.phase.simulate.total"),
        r.get("bench.phase.remote_roundtrip.total"),
        r.get("bench.outside_executor_s"),
        100.0 * r.get("addup.explained_share"),
        r.get("addup.wall_s"),
        r.get("addup.unexplained_s"),
        r.get("bench.warm_local_s"),
        r.get("bench.cold_local_s"),
        r.get("bench.cell_s.engine.count"),
        r.get("bench.cell_s.engine.total"),
        report::tail_label(r.get("bench.cell_s.engine.count") as u64),
        report::tail_label(r.get("bench.cell_s.workload.count") as u64),
        report::tail_label(r.get("bench.unique") as u64),
    ));
    r
}

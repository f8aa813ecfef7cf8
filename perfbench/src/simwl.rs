//! The simulator workloads: a fixed list of cells run one after another
//! on one thread through `System::new(..).run()`.
//!
//! The untraced run repeats the whole list until `--seconds` elapse.
//! It reports `wall_s` and `setup_s` as the sum over cells of each
//! cell's fastest time across the passes: interference from other
//! tenants of a shared host only ever adds time, and the fastest sample
//! of each cell is far steadier from run to run than a median. The sum is
//! lower than the wall of any single pass. The traced run alternates an
//! untraced pass with
//! a traced one (an event [`Recorder`] on the system and a counting
//! wrapper around every [`TraceSource`]), checks that both produce the
//! same statistics, and reports the per-layer numbers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cpu_model::{SyntheticTrace, TraceEntry, TraceSource, WorkloadSpec};
use sim::{EventKind, MitigationKind, Recorder, RunStats, System, SystemConfig, TraceHandle};

use crate::report::{self, AddUp, Report};
use crate::{fnv64, peak_rss_mb, Args, Checks};

/// Instructions each core retires per cell.
const INSTR_PER_CORE: u64 = 200_000;

/// Which cell list to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Memory-bound workloads under three QPRAC variants, 1 and 4
    /// channels.
    Memory,
    /// Compute-bound workloads under the paper default, 1 channel.
    Compute,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Memory => "sim_memory",
            Kind::Compute => "sim_compute",
        }
    }

    fn reference(self) -> &'static str {
        match self {
            Kind::Memory => include_str!("../reference/sim_memory.txt"),
            Kind::Compute => include_str!("../reference/sim_compute.txt"),
        }
    }

    fn cells(self) -> Vec<Cell> {
        let designs: &[(MitigationKind, &str)] = match self {
            Kind::Memory => &[
                (MitigationKind::QpracProactiveEa, "qprac-pro-ea"),
                (MitigationKind::Qprac, "qprac"),
                (MitigationKind::QpracNoOp, "qprac-noop"),
            ],
            Kind::Compute => &[(MitigationKind::QpracProactiveEa, "qprac-pro-ea")],
        };
        let (workloads, channels): (&[&str], &[usize]) = match self {
            Kind::Memory => (
                &["ycsb/a_like", "tpc/tpcc64_like", "spec06/mcf_like"],
                &[1, 4],
            ),
            Kind::Compute => (
                &["media/gsm_like", "media/mp3_like", "spec06/sjeng_like"],
                &[1],
            ),
        };
        let mut cells = Vec::new();
        for &workload in workloads {
            for &(mitigation, label) in designs {
                for &channels in channels {
                    cells.push(Cell {
                        workload,
                        mitigation,
                        label,
                        channels,
                    });
                }
            }
        }
        cells
    }
}

/// One simulated configuration.
#[derive(Debug, Clone, Copy)]
struct Cell {
    workload: &'static str,
    mitigation: MitigationKind,
    label: &'static str,
    channels: usize,
}

impl Cell {
    fn id(&self) -> String {
        format!("{}|{}|{}ch", self.workload, self.label, self.channels)
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::paper_default()
            .with_mitigation(self.mitigation)
            .with_channels(self.channels)
            .with_instruction_limit(INSTR_PER_CORE)
    }

    /// The workload with the run's seed XOR-ed into its generator seed.
    fn spec(&self, seed: u64) -> WorkloadSpec {
        let mut spec = WorkloadSpec::by_name(self.workload).expect("cell names a known workload");
        spec.seed ^= seed;
        spec
    }
}

/// One untraced cell run, timed in three parts.
struct Timed {
    stats: RunStats,
    /// Spec and trace construction plus `System::new`.
    setup_s: f64,
    /// `System::new` alone.
    new_s: f64,
    /// `System::run`.
    run_s: f64,
}

fn run_untraced(cell: &Cell, seed: u64) -> Timed {
    let t0 = Instant::now();
    let cfg = cell.config();
    let spec = cell.spec(seed);
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
        .collect();
    let t1 = Instant::now();
    let system = System::new(cfg, traces, spec.params.mlp);
    let t2 = Instant::now();
    let stats = system.run();
    let t3 = Instant::now();
    Timed {
        stats,
        setup_s: (t2 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
    }
}

/// One untraced pass over the whole list.
struct Pass {
    wall_s: f64,
    setup_s: f64,
    new_s: f64,
    run_s: f64,
    /// Per cell: set-up plus run, and set-up alone.
    cell_wall_s: Vec<f64>,
    cell_setup_s: Vec<f64>,
    stats: Vec<RunStats>,
}

fn untraced_pass(cells: &[Cell], seed: u64) -> Pass {
    let t0 = Instant::now();
    let runs: Vec<Timed> = cells.iter().map(|c| run_untraced(c, seed)).collect();
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        wall_s,
        setup_s: runs.iter().map(|r| r.setup_s).sum(),
        new_s: runs.iter().map(|r| r.new_s).sum(),
        run_s: runs.iter().map(|r| r.run_s).sum(),
        cell_wall_s: runs.iter().map(|r| r.setup_s + r.run_s).collect(),
        cell_setup_s: runs.iter().map(|r| r.setup_s).collect(),
        stats: runs.into_iter().map(|r| r.stats).collect(),
    }
}

/// Sum over cells of each cell's uncontended estimate across passes.
fn per_cell_estimate(passes: &[Pass], field: impl Fn(&Pass) -> &[f64]) -> f64 {
    let cells = field(&passes[0]).len();
    (0..cells)
        .map(|i| report::fastest(&passes.iter().map(|p| field(p)[i]).collect::<Vec<_>>()))
        .sum()
}

/// A [`TraceSource`] that counts the entries the core consumes.
struct Counting {
    inner: SyntheticTrace,
    entries: Arc<AtomicU64>,
}

impl TraceSource for Counting {
    fn next_entry(&mut self) -> TraceEntry {
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.inner.next_entry()
    }
}

/// The event kinds the per-layer numbers need. Alert raises, RFMs and
/// refreshes are left out: the device statistics count them exactly,
/// and leaving them out keeps the ring small.
fn trace_mask() -> u64 {
    [
        EventKind::AlertServed,
        EventKind::PsqOffer,
        EventKind::PsqEvict,
        EventKind::PsqPop,
        EventKind::ProactiveFire,
        EventKind::FastForward,
    ]
    .iter()
    .map(|k| k.bit())
    .sum()
}

/// What one traced cell run saw.
struct TracedRun {
    stats: RunStats,
    /// Trace entries consumed, per core.
    entries: Vec<u64>,
    dropped: u64,
    kinds: HashMap<&'static str, u64>,
    ff_skipped: u64,
    /// `AlertServed` span lengths in memory cycles.
    alert_spans: Vec<f64>,
}

/// Run `cell` with the event recorder and counting trace wrappers. The
/// ring starts large enough for the heaviest cell and grows (re-running
/// the cell) until nothing is dropped.
fn run_traced(cell: &Cell, seed: u64, capacity: &mut usize) -> TracedRun {
    loop {
        let cfg = cell.config();
        let spec = cell.spec(seed);
        let counters: Vec<Arc<AtomicU64>> = (0..cfg.cores).map(|_| Arc::default()).collect();
        let traces: Vec<Box<dyn TraceSource>> = counters
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(Counting {
                    inner: spec.source(i as u64),
                    entries: Arc::clone(n),
                }) as Box<dyn TraceSource>
            })
            .collect();
        let recorder = Arc::new(Recorder::with_mask(trace_mask(), *capacity));
        let stats = System::new(cfg, traces, spec.params.mlp)
            .with_tracer(TraceHandle::new(Arc::clone(&recorder)))
            .run();
        let dropped = recorder.dropped();
        if dropped > 0 {
            *capacity += dropped as usize + *capacity / 4;
            continue;
        }
        let mut kinds = HashMap::new();
        let mut ff_skipped = 0;
        let mut alert_spans = Vec::new();
        for ev in recorder.events() {
            *kinds.entry(ev.kind.name()).or_default() += 1;
            match ev.kind {
                EventKind::FastForward => ff_skipped += ev.row,
                EventKind::AlertServed => alert_spans.push(ev.dur as f64),
                _ => {}
            }
        }
        return TracedRun {
            stats,
            entries: counters.iter().map(|n| n.load(Ordering::Relaxed)).collect(),
            dropped,
            kinds,
            ff_skipped,
            alert_spans,
        };
    }
}

/// Host seconds to regenerate `entries[core]` trace entries for every
/// core of `cell`: the trace-generation share of `System::run`.
fn replay_trace_s(cell: &Cell, seed: u64, entries: &[u64]) -> f64 {
    let spec = cell.spec(seed);
    let t0 = Instant::now();
    for (core, &n) in entries.iter().enumerate() {
        let mut source = spec.source(core as u64);
        for _ in 0..n {
            std::hint::black_box(source.next_entry());
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The reference line of one cell: its id, the digest of its `RunStats`
/// in cache-text form, and two counts that make a change readable.
fn reference_line(cell: &Cell, s: &RunStats) -> String {
    format!(
        "{} {:016x} cpu_cycles={} alerts={}",
        cell.id(),
        fnv64(s.to_cache_text().as_bytes()),
        s.cpu_cycles,
        s.device.alerts
    )
}

/// Check a pass against the stored reference, cell by cell. A mismatch
/// prints the line that would replace the stored one.
fn check_reference(kind: Kind, cells: &[Cell], stats: &[RunStats], checks: &mut Checks) {
    let stored: HashMap<&str, &str> = kind
        .reference()
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?, it.next()?))
        })
        .collect();
    for (cell, s) in cells.iter().zip(stats) {
        let id = cell.id();
        let line = reference_line(cell, s);
        let got = line.split_whitespace().nth(1);
        let want = stored.get(id.as_str()).copied();
        checks.check(1, want == got, || {
            format!(
                "{id}: RunStats digest {} differs from the reference {want:?}; \
                 only if the change is meant to alter results, put this line in \
                 perfbench/reference/{}.txt: {line}",
                got.unwrap_or_default(),
                kind.name()
            )
        });
    }
}

/// Run the workload; returns the end-to-end report (untraced) or the
/// per-layer report (traced).
pub fn run(kind: Kind, args: &Args, checks: &mut Checks, notes: &mut Vec<String>) -> Report {
    let cells = kind.cells();
    if args.trace {
        traced(kind, &cells, args, checks, notes)
    } else {
        untraced(kind, &cells, args, checks, notes)
    }
}

fn untraced(
    kind: Kind,
    cells: &[Cell],
    args: &Args,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Report {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 3 || t0.elapsed() < args.seconds {
        let pass = untraced_pass(cells, args.seed);
        match passes.first() {
            None if args.seed == 0 => check_reference(kind, cells, &pass.stats, checks),
            None => checks.check(cells.len() as u64, true, String::new),
            Some(first) => {
                for (i, (a, b)) in first.stats.iter().zip(&pass.stats).enumerate() {
                    checks.check(1, a == b, || {
                        format!("{}: two runs of one seed disagree", cells[i].id())
                    });
                }
            }
        }
        passes.push(pass);
    }
    let wall_s = per_cell_estimate(&passes, |p| &p.cell_wall_s);
    let retired: u64 = passes[0].stats.iter().map(|s| s.cpu.retired).sum();
    let cycles: u64 = passes[0].stats.iter().map(|s| s.cpu_cycles).sum();
    let mut r = Report::new(report::END_TO_END);
    r.set("wall_s", wall_s);
    r.set("sim_minstr_per_s", retired as f64 / wall_s / 1e6);
    r.set("setup_s", per_cell_estimate(&passes, |p| &p.cell_setup_s));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    notes.push(format!(
        "{}: {} cells x {} passes, {} instructions and {} simulated CPU cycles per pass, \
         pass walls {:.4}..{:.4} s (median {:.4} s), seed {}{}",
        kind.name(),
        cells.len(),
        passes.len(),
        retired,
        cycles,
        report::fastest(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        report::median(&walls),
        args.seed,
        if args.seed == 0 {
            " (checked against the stored reference)"
        } else {
            " (checked for determinism)"
        }
    ));
    r
}

fn traced(
    kind: Kind,
    cells: &[Cell],
    args: &Args,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Report {
    let t0 = Instant::now();
    let mut capacity = 1usize << 20;
    let mut per_pass: Vec<Report> = Vec::new();
    let mut untraced_peak_mb = 0.0;
    while per_pass.is_empty() || t0.elapsed() < args.seconds {
        let plain = untraced_pass(cells, args.seed);
        if per_pass.is_empty() {
            untraced_peak_mb = peak_rss_mb();
            if args.seed == 0 {
                check_reference(kind, cells, &plain.stats, checks);
            }
        }
        let t_traced = Instant::now();
        let runs: Vec<TracedRun> = cells
            .iter()
            .map(|c| run_traced(c, args.seed, &mut capacity))
            .collect();
        let traced_wall = t_traced.elapsed().as_secs_f64();
        let mut trace_s = 0.0;
        for (i, (run, untraced)) in runs.iter().zip(&plain.stats).enumerate() {
            checks.check(1, run.stats == *untraced, || {
                format!("{}: traced RunStats differ from untraced", cells[i].id())
            });
            trace_s += replay_trace_s(&cells[i], args.seed, &run.entries);
        }
        let mut r = layer_report(&plain, &runs);
        r.set("cpu-model.trace_s", trace_s);
        r.set("trace.overhead_s", traced_wall - plain.wall_s);
        r.set("proc.peak_rss_mb", untraced_peak_mb);
        AddUp::sim(plain.wall_s, plain.setup_s, plain.run_s).record(&mut r);
        per_pass.push(r);
    }
    let r = Report::median_of(&per_pass);
    notes.push(format!(
        "{}: {} traced passes; add-up: cell set-up plus System::run ({:.4} s) explain {:.1}% of \
         wall {:.4} s, unexplained {:.4} s; {:.1} host ns per stepped cycle; the alert-span tail \
         is the {} of {} spans",
        kind.name(),
        per_pass.len(),
        r.get("sim.run_s"),
        100.0 * r.get("addup.explained_share"),
        r.get("addup.wall_s"),
        r.get("addup.unexplained_s"),
        r.get("sim.host_ns_per_stepped_cycle"),
        report::tail_label(r.get("dram-core.alerts") as u64),
        r.get("dram-core.alerts"),
    ));
    r
}

/// The per-layer report of one (untraced, traced) pass pair.
fn layer_report(plain: &Pass, runs: &[TracedRun]) -> Report {
    let mut r = Report::new(&report::per_layer());
    let sum =
        |f: &dyn Fn(&RunStats) -> u64| -> f64 { plain.stats.iter().map(f).sum::<u64>() as f64 };
    let retired = sum(&|s| s.cpu.retired);
    let core_cycles = sum(&|s| s.cpu.cycles * s.core_ipc.len() as u64);
    let llc = sum(&|s| s.cache.hits + s.cache.misses);
    r.set("cpu-model.retired", retired);
    r.set(
        "cpu-model.stall_share",
        sum(&|s| s.cpu.stall_cycles) / core_cycles.max(1.0),
    );
    r.set(
        "cpu-model.llc_miss_ratio",
        sum(&|s| s.cache.misses) / llc.max(1.0),
    );
    r.set("cpu-model.llc_blocked", sum(&|s| s.cache.blocked));
    r.set(
        "cpu-model.trace_entries",
        runs.iter().flat_map(|t| &t.entries).sum::<u64>() as f64,
    );
    let cpu_cycles = sum(&|s| s.cpu_cycles);
    let count = |name: &str| {
        runs.iter()
            .map(|t| t.kinds.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let skipped = runs.iter().map(|t| t.ff_skipped).sum::<u64>() as f64;
    r.set("sim.setup_s", plain.new_s);
    r.set("sim.run_s", plain.run_s);
    r.set("sim.cpu_cycles", cpu_cycles);
    r.set("sim.ff_jumps", count(EventKind::FastForward.name()));
    r.set("sim.ff_skipped_cycles", skipped);
    r.set("sim.ff_skip_ratio", skipped / cpu_cycles.max(1.0));
    r.set(
        "sim.host_ns_per_stepped_cycle",
        plain.run_s * 1e9 / (cpu_cycles - skipped).max(1.0),
    );
    let reads = sum(&|s| s.mc.reads);
    r.set("mem-ctrl.reads", reads);
    r.set("mem-ctrl.writes", sum(&|s| s.mc.writes));
    r.set("mem-ctrl.rejected", sum(&|s| s.mc.rejected));
    r.set(
        "mem-ctrl.avg_read_latency_cyc",
        sum(&|s| s.mc.read_latency_sum) / reads.max(1.0),
    );
    r.set(
        "mem-ctrl.alert_service_cycles",
        sum(&|s| s.mc.alert_service_cycles),
    );
    r.set("dram-core.acts", sum(&|s| s.device.acts));
    r.set("dram-core.refs", sum(&|s| s.device.refs));
    r.set(
        "dram-core.rfms",
        sum(&|s| s.device.rfm_ab + s.device.rfm_sb + s.device.rfm_pb),
    );
    r.set("dram-core.alerts", sum(&|s| s.device.alerts));
    r.set(
        "dram-core.mitigations_alert",
        sum(&|s| s.device.mitigations_alert),
    );
    r.set(
        "dram-core.mitigations_opportunistic",
        sum(&|s| s.device.mitigations_opportunistic),
    );
    r.set(
        "dram-core.mitigations_proactive",
        sum(&|s| s.device.mitigations_proactive),
    );
    let offers = count(EventKind::PsqOffer.name());
    r.set("qprac.psq_offers", offers);
    r.set("qprac.psq_evicts", count(EventKind::PsqEvict.name()));
    r.set("qprac.psq_pops", count(EventKind::PsqPop.name()));
    r.set(
        "qprac.evict_ratio",
        count(EventKind::PsqEvict.name()) / offers.max(1.0),
    );
    r.set(
        "qprac.proactive_fires",
        count(EventKind::ProactiveFire.name()),
    );
    let spans: Vec<f64> = runs
        .iter()
        .flat_map(|t| t.alert_spans.iter().copied())
        .collect();
    let (p50, tail) = report::p50_tail(&spans);
    r.set("qprac.alert_span_cyc.p50", p50);
    r.set("qprac.alert_span_cyc.tail", tail);
    r.set(
        "trace.dropped",
        runs.iter().map(|t| t.dropped).sum::<u64>() as f64,
    );
    r
}

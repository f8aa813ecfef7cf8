//! Observability overhead: the event tracer must be free when off and
//! cheap when on, and a `METRICS` render must be far below any scrape
//! interval.
//!
//! - `tracing_off_10k_instr` — the BENCH_06-pinned memory-bound
//!   full-system run with the tracer disabled (the shipped default):
//!   must stay within noise of the untraced baseline, since every
//!   record site is gated by an `#[inline]` enabled-check.
//! - `tracing_on_10k_instr` — the same run with a live all-events
//!   recorder, measuring the true cost of capture.
//! - `metrics_render` — rendering a populated registry to Prometheus
//!   text (what one `METRICS` request costs the serve event loop).

use std::sync::Arc;

use cpu_model::{TraceSource, WorkloadSpec};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sim::{run_workload, MitigationKind, Recorder, System, SystemConfig, TraceHandle};

fn storm_cfg() -> SystemConfig {
    SystemConfig::paper_default()
        .with_mitigation(MitigationKind::QpracProactiveEa)
        .with_instruction_limit(10_000)
}

fn traced_run(spec: &WorkloadSpec, rec: Arc<Recorder>) -> f64 {
    let cfg = storm_cfg();
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
        .collect();
    let mlp = spec.params.mlp;
    System::new(cfg, traces, mlp)
        .with_tracer(TraceHandle::new(rec))
        .run()
        .ipc_sum()
}

fn bench_trace_overhead(c: &mut Criterion) {
    let spec = WorkloadSpec::by_name("ycsb/a_like").unwrap();
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    // Identical workload/config to full_system's memory_bound_10k_instr:
    // this row IS the no-tracer baseline, for direct comparison.
    g.bench_function("tracing_off_10k_instr", |b| {
        b.iter(|| black_box(run_workload(&storm_cfg(), &spec).ipc_sum()));
    });
    g.bench_function("tracing_on_10k_instr", |b| {
        b.iter(|| {
            let rec = Arc::new(Recorder::with_mask(qprac_obs::trace::mask_all(), 1 << 21));
            black_box(traced_run(&spec, rec))
        });
    });
    g.finish();
}

fn bench_metrics_render(c: &mut Criterion) {
    // A registry shaped like a busy shard's: the serve counter/gauge
    // set plus one latency histogram per verb, all populated.
    let reg = qprac_obs::Registry::new();
    for name in [
        "qprac_requests_total",
        "qprac_run_requests_total",
        "qprac_mem_hits_total",
        "qprac_disk_hits_total",
        "qprac_simulated_total",
        "qprac_coalesced_total",
        "qprac_errors_total",
    ] {
        reg.counter(name).add(123_456);
    }
    for name in ["qprac_connections", "qprac_in_flight", "qprac_queue_depth"] {
        reg.gauge(name).set(42);
    }
    for verb in qprac_serve::VERBS {
        let h = reg.histogram(&format!("qprac_lat_{verb}_us"));
        for i in 0..1000u64 {
            h.record_us(i * 17 % 50_000);
        }
    }
    let mut g = c.benchmark_group("trace_overhead");
    g.bench_function("metrics_render", |b| {
        b.iter(|| black_box(reg.render_prometheus().len()));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_trace_overhead, bench_metrics_render
}
criterion_main!(benches);

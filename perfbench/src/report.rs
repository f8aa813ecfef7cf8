//! Metric bookkeeping shared by every workload: the metric schemas,
//! the name grammar, the percentile rule, the add-up arithmetic and the
//! one-line JSON result.

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("setup_s", "s"),
];

/// Scheduler phases of `qprac_bench::profile`, in pipeline order.
pub const PHASES: [&str; 5] = [
    "key_canonicalize",
    "cache_lookup",
    "simulate",
    "serialize",
    "remote_roundtrip",
];

/// Cell kinds, named by the prefix of their canonical run key.
pub const CELL_KINDS: [&str; 4] = ["workload", "mix", "attack", "engine"];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("cpu-model.retired", "count"),
        ("cpu-model.stall_share", "ratio"),
        ("cpu-model.llc_miss_ratio", "ratio"),
        ("cpu-model.llc_blocked", "count"),
        ("cpu-model.trace_entries", "count"),
        ("cpu-model.trace_s", "s"),
        ("sim.setup_s", "s"),
        ("sim.run_s", "s"),
        ("sim.cpu_cycles", "cycles"),
        ("sim.ff_jumps", "count"),
        ("sim.ff_skipped_cycles", "cycles"),
        ("sim.ff_skip_ratio", "ratio"),
        ("sim.host_ns_per_stepped_cycle", "ns"),
        ("mem-ctrl.reads", "count"),
        ("mem-ctrl.writes", "count"),
        ("mem-ctrl.rejected", "count"),
        ("mem-ctrl.avg_read_latency_cyc", "cycles"),
        ("mem-ctrl.alert_service_cycles", "cycles"),
        ("dram-core.acts", "count"),
        ("dram-core.refs", "count"),
        ("dram-core.rfms", "count"),
        ("dram-core.alerts", "count"),
        ("dram-core.mitigations_alert", "count"),
        ("dram-core.mitigations_opportunistic", "count"),
        ("dram-core.mitigations_proactive", "count"),
        ("qprac.psq_offers", "count"),
        ("qprac.psq_evicts", "count"),
        ("qprac.psq_pops", "count"),
        ("qprac.evict_ratio", "ratio"),
        ("qprac.proactive_fires", "count"),
        ("qprac.alert_span_cyc.p50", "cycles"),
        ("qprac.alert_span_cyc.tail", "cycles"),
        ("bench.cells", "count"),
        ("bench.unique", "count"),
        ("bench.dedupe_ratio", "ratio"),
        ("bench.cache_hits", "count"),
        ("bench.executed", "count"),
        ("bench.outside_executor_s", "s"),
        ("bench.warm_local_s", "s"),
        ("bench.cold_local_s", "s"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for phase in PHASES {
        out.push((format!("bench.phase.{phase}.total"), "s"));
        out.push((format!("bench.phase.{phase}.p50"), "us"));
        out.push((format!("bench.phase.{phase}.tail"), "us"));
    }
    for kind in CELL_KINDS {
        out.push((format!("bench.cell_s.{kind}.count"), "count"));
        out.push((format!("bench.cell_s.{kind}.total"), "s"));
        out.push((format!("bench.cell_s.{kind}.p50"), "ms"));
        out.push((format!("bench.cell_s.{kind}.tail"), "ms"));
    }
    let tail: &[(&str, &str)] = &[
        ("serve.requests", "count"),
        ("serve.mem_hits", "count"),
        ("serve.disk_hits", "count"),
        ("serve.simulated", "count"),
        ("serve.coalesced", "count"),
        ("serve.errors", "count"),
        ("serve.hit_ratio", "ratio"),
        ("serve.lat_runb_us.p50", "us"),
        ("serve.lat_runb_us.tail", "us"),
        ("serve.wire_us", "us"),
        ("proc.peak_rss_mb", "MB"),
        ("trace.dropped", "count"),
        ("trace.overhead_s", "s"),
        ("addup.wall_s", "s"),
        ("addup.explained_share", "ratio"),
        ("addup.unexplained_s", "s"),
    ];
    out.extend(tail.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Whether `name` is a legal metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A fixed set of named metrics, all present from the start (at 0), so
/// every run of every workload prints the same keys.
#[derive(Debug)]
pub struct Report {
    metrics: Vec<(String, &'static str, f64)>,
}

impl Report {
    /// A report holding every metric of `schema` at 0.
    pub fn new<S: AsRef<str>>(schema: &[(S, &'static str)]) -> Report {
        let mut metrics: Vec<(String, &'static str, f64)> = Vec::with_capacity(schema.len());
        for (name, unit) in schema {
            let name = name.as_ref();
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
            assert!(
                metrics.iter().all(|(n, _, _)| n != name),
                "metric {name} listed twice"
            );
            metrics.push((name.to_string(), unit, 0.0));
        }
        Report { metrics }
    }

    /// Set a metric of the schema. Panics on a name outside it or a
    /// non-finite value: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let slot = self
            .metrics
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"));
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        slot.2 = value + 0.0;
    }

    /// The current value of a metric of the schema.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"))
            .2
    }

    /// Metric-wise median of reports that share one schema (that of
    /// the first; an empty slice gives an empty report).
    pub fn median_of(reports: &[Report]) -> Report {
        let Some(first) = reports.first() else {
            return Report {
                metrics: Vec::new(),
            };
        };
        let mut out = Report {
            metrics: first.metrics.clone(),
        };
        for (name, _, value) in &mut out.metrics {
            let values: Vec<f64> = reports.iter().map(|r| r.get(name)).collect();
            *value = median(&values) + 0.0;
        }
        out
    }

    /// Human-readable `name = value unit` lines, one per metric.
    pub fn lines(&self, workload: &str) -> String {
        self.metrics
            .iter()
            .map(|(n, u, v)| format!("{workload:<12} {n:<40} = {v} {u}\n"))
            .collect()
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// Median of `samples` (mean of the middle two for an even count; 0
/// for none).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// The percentile rule: the highest percentile of [`TAIL_LADDER`] with
/// at least 10 of `n` samples beyond it (nearest-rank), or `None` when
/// even the median has fewer than 10 beyond it.
pub fn tail_quantile(n: u64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n.saturating_sub((q * n as f64).ceil() as u64) >= 10)
}

/// Human label of the tail percentile for `n` samples (`p99`, `max`, ...).
pub fn tail_label(n: u64) -> String {
    match tail_quantile(n) {
        Some(q) => format!("p{}", q * 100.0),
        None => "max".into(),
    }
}

/// Nearest-rank `q`-quantile of `samples` (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The benchmark's estimate of an uncontended host time from repeated
/// samples: the fastest one (0 for none). Interference from other
/// tenants of a shared host only adds time, and it comes in spells of
/// seconds that can cover most of a run, so the fastest of many short
/// samples is far steadier across runs than their median.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `(p50, tail)` of `samples` under the percentile rule; the tail falls
/// back to the maximum when fewer than 20 samples exist.
pub fn p50_tail(samples: &[f64]) -> (f64, f64) {
    let tail = match tail_quantile(samples.len() as u64) {
        Some(q) => quantile(samples, q),
        None => samples.iter().copied().fold(0.0, f64::max),
    };
    (quantile(samples, 0.5), tail)
}

/// How much of a workload's wall time the per-layer numbers explain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddUp {
    /// The end-to-end wall being explained.
    pub wall_s: f64,
    /// The part of it the layers account for.
    pub explained_s: f64,
}

impl AddUp {
    /// Simulator workloads: time in `System::new` plus time in
    /// `System::run`, against the wall of the whole cell list.
    pub fn sim(wall_s: f64, setup_s: f64, run_s: f64) -> AddUp {
        AddUp {
            wall_s,
            explained_s: setup_s + run_s,
        }
    }

    /// Suite workloads: the executor's summed per-cell work (local
    /// simulations and remote round trips, summed across the pool)
    /// spread over its `workers`, plus the time spent outside the
    /// executor (dedupe, cache, emit).
    pub fn suite(
        wall_s: f64,
        simulate_s: f64,
        roundtrip_s: f64,
        workers: usize,
        outside_s: f64,
    ) -> AddUp {
        AddUp {
            wall_s,
            explained_s: (simulate_s + roundtrip_s) / workers.max(1) as f64 + outside_s,
        }
    }

    /// Explained share of the wall (0 for an empty wall).
    pub fn share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.explained_s / self.wall_s
        } else {
            0.0
        }
    }

    /// The wall the layers leave unexplained (negative when the layers
    /// overlap, e.g. parallel workers summed past the wall).
    pub fn unexplained_s(&self) -> f64 {
        self.wall_s - self.explained_s
    }

    /// Record the add-up into the per-layer report.
    pub fn record(&self, report: &mut Report) {
        report.set("addup.wall_s", self.wall_s);
        report.set("addup.explained_share", self.share());
        report.set("addup.unexplained_s", self.unexplained_s());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar_accepts_the_schema_and_rejects_garbage() {
        for (name, unit) in END_TO_END {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        for (name, unit) in per_layer() {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(valid_name("sim_memory"));
        assert!(valid_name("9lives.a-b_c"));
        for bad in ["", "_lead", ".lead", "-lead", "has space", "slash/no", "é"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        for good in ["ms", "s", "1/s", "count", "%", "Minstr/s"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "ms!", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn schemas_are_unique_and_within_the_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        // Report::new asserts uniqueness.
        let _ = Report::new(&layers);
        let _ = Report::new(END_TO_END);
    }

    #[test]
    fn schemas_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let layers = per_layer();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(layers);
        for (name, unit) in all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(39), Some(0.5));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(101), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_label(1468), "p99");
        assert_eq!(tail_label(5), "max");
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(p50_tail(&v), (50.0, 90.0));
        // Too few samples for any percentile: the tail is the maximum.
        assert_eq!(p50_tail(&[3.0, 1.0, 2.0]), (2.0, 3.0));
        assert_eq!(p50_tail(&[]), (0.0, 0.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn add_up_arithmetic() {
        let sim = AddUp::sim(2.0, 0.25, 1.5);
        assert_eq!(sim.explained_s, 1.75);
        assert_eq!(sim.share(), 0.875);
        assert_eq!(sim.unexplained_s(), 0.25);
        // Two workers: 0.6 s of summed cell work is 0.3 s of wall.
        let suite = AddUp::suite(0.5, 0.4, 0.2, 2, 0.1);
        assert!((suite.explained_s - 0.4).abs() < 1e-12);
        assert!((suite.share() - 0.8).abs() < 1e-12);
        assert!((suite.unexplained_s() - 0.1).abs() < 1e-12);
        // Zero workers is treated as one; an empty wall explains nothing.
        assert_eq!(AddUp::suite(1.0, 0.5, 0.0, 0, 0.0).explained_s, 0.5);
        assert_eq!(AddUp::sim(0.0, 0.0, 0.0).share(), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(&[("wall_s", "s"), ("setup_s", "s")]);
        r.set("wall_s", 1.25);
        let line = r.json_line(10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(r.json_line(10, 1).starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_of_reports_is_metric_wise() {
        let schema = [("a", "s"), ("b", "count")];
        let reports: Vec<Report> = [(1.0, 9.0), (3.0, 7.0), (2.0, 8.0)]
            .iter()
            .map(|&(a, b)| {
                let mut r = Report::new(&schema);
                r.set("a", a);
                r.set("b", b);
                r
            })
            .collect();
        let m = Report::median_of(&reports);
        assert_eq!((m.get("a"), m.get("b")), (2.0, 8.0));
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn unknown_metrics_are_rejected() {
        Report::new(END_TO_END).set("nope", 1.0);
    }
}

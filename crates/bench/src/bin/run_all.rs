//! Regenerates the paper's tables and figures.
//!
//! ```text
//! run_all [--profile] [SPEC...]
//! ```
//!
//! Each `SPEC` is the name of one experiment in `run_all_specs()`:
//! `table01` `table02` `table04` `fig02` `fig03` `fig06` `fig07`
//! `fig08` `fig11` `fig12` `fig13` `fig23` `wave_validate` `fig19`
//! `fig16` `fig17` `fig18` `fig20` `fig21_22` `table03` `fig14_15`
//! `ablation_psq_size` `ablation_opportunistic` `ablation_tie_policy`
//! `mix_speedup` `compare_mitigations`. With no names every spec runs;
//! an unknown name or flag exits 2 before any cell runs and lists the
//! valid names on stderr.
//!
//! The selected specs' cells are collected up front, deduplicated
//! globally (identical `(config, workload)` cells across figures
//! simulate once), optionally resolved from the persistent cache
//! (`QPRAC_RUN_CACHE`), and scheduled through one work pool before any
//! figure renders — in-process by default, or against a
//! consistent-hash-sharded `qprac-serve` cluster when
//! `QPRAC_REMOTE=host:port[,host:port...]` is set (CSVs are
//! byte-identical either way). Results land in `results/*.csv`; the
//! dedupe ratio and cache hits are reported on the final `run-cache:`
//! line.
//!
//! `--profile` prints a per-phase wall-time table (key canonicalize,
//! cache lookup, remote round trip, simulate, serialize) after the
//! sweep. A remote pass additionally scrapes every shard's `METRICS`
//! exposition, merges them, and writes `results/metrics_cluster.txt`.
use qprac_bench::experiments::select_specs;

fn main() -> std::io::Result<()> {
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--profile")
        .collect();
    let specs = select_specs(&names).unwrap_or_else(|e| {
        eprintln!("run_all: {e}\nusage: run_all [--profile] [SPEC...]");
        std::process::exit(2);
    });
    let t0 = std::time::Instant::now();
    if names.is_empty() {
        println!("=== QPRAC reproduction: full experiment sweep ===\n");
    }
    qprac_bench::execute(&specs)?;
    qprac_bench::profile::print_if_requested();
    match qprac_bench::scrape_cluster_from_env() {
        Some(Ok((snap, path))) => println!(
            "metrics-scrape: cluster requests={} simulated={} -> {}",
            snap.counter("qprac_requests_total"),
            snap.counter("qprac_simulated_total"),
            path.display(),
        ),
        Some(Err(e)) => qprac_obs::warn!("warning: cluster METRICS scrape failed: {e}"),
        None => {}
    }
    println!(
        "=== complete in {:.1} min ===",
        t0.elapsed().as_secs_f64() / 60.0
    );
    Ok(())
}

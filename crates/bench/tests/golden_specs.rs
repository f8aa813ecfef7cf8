//! Refactor-fidelity goldens: figures/tables rendered through `run_all
//! <spec>` (the spec/runner path) must emit CSVs byte-identical to
//! snapshots captured from the pre-refactor (imperative-loop) code at
//! the same shrunken environment. Covers one analytical figure (fig07), one
//! table (table04) and one simulation-driven sensitivity sweep (fig18,
//! which exercises the work pool, the baseline dedupe and the
//! `RunKey` normalization of unmitigated cells).
//!
//! The `*_matches_snapshot` goldens pin the remaining emitter shapes,
//! captured from the hand-written emitters before figures returned
//! tables: per-workload rows plus geomean/mean rows (fig14_15),
//! bandwidth-attack cells (fig19), an engine column beside an analytic
//! column (fig23), a text-valued table (table02), mix cells
//! (mix_speedup) and the registry-driven arena summary
//! (compare_summary).
//!
//! The design-by-workload sweeps (fig16, fig17, fig20, fig21/fig22,
//! table03, ablation_opportunistic and the per-design arena table
//! compare_qprac) are pinned the same way, captured from their
//! hand-written job loops and aggregates before they were declared as
//! sweeps.
//!
//! The rest of the 40 CSVs `run_all` writes are pinned too, captured
//! before emitters read their cells by position: the engine grids
//! (fig02, fig03, wave_validate, ablation_psq_size), the analytic
//! figures and tables (fig06, fig08, fig11–fig13, table01,
//! ablation_tie_policy) and every per-design arena table
//! (`compare_<stem>`).
//!
//! At 400 instructions per core no mitigation fires, so every design
//! reads the baseline's performance. `compare_summary` is therefore
//! pinned a second time at 1000 instructions per core, where Mithril
//! and PrIDE already pay for their refreshes: a refactor that read a
//! design's baseline in place of its own run would change it.
//!
//! `run_all` runs as a subprocess with a pinned environment
//! (`QPRAC_INSTR=400` unless a test names another count, no full
//! suite, no persistent cache) so the snapshots are reproducible and
//! the test never mutates this process' environment.

use std::path::PathBuf;
use std::process::Command;

fn results_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qprac-golden-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Run `run_all <spec>` at the golden environment and compare each of
/// `csvs` (CSV stems) with `golden/<stem>.csv`.
fn run_and_compare(spec: &str, csvs: &[&str]) {
    run_and_compare_at(400, spec, csvs);
}

/// [`run_and_compare`] at `instr` instructions per core. Snapshots
/// taken at any count but 400 live in `golden/instr<instr>/`.
fn run_and_compare_at(instr: u64, spec: &str, csvs: &[&str]) {
    let dir = results_dir(&format!("{spec}-{instr}"));
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg(spec)
        .env("QPRAC_INSTR", instr.to_string())
        .env("QPRAC_ATTACK_WINDOW", "20000")
        .env("QPRAC_RESULTS_DIR", &dir)
        .env_remove("QPRAC_FULL_SUITE")
        .env_remove("QPRAC_RUN_CACHE")
        .env_remove("QPRAC_NO_FASTFORWARD")
        .env_remove("QPRAC_REMOTE")
        .output()
        .expect("spawn run_all");
    assert!(
        out.status.success(),
        "run_all {spec} failed with {:?}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    let mut golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    if instr != 400 {
        golden_dir.push(format!("instr{instr}"));
    }
    for name in csvs {
        let read = |dir: &PathBuf| {
            std::fs::read_to_string(dir.join(format!("{name}.csv")))
                .unwrap_or_else(|e| panic!("{name}.csv missing in {}: {e}", dir.display()))
        };
        assert_eq!(
            read(&dir),
            read(&golden_dir),
            "{name}.csv diverged from the pre-refactor snapshot"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig07_matches_pre_refactor_snapshot() {
    run_and_compare("fig07", &["fig07"]);
}

#[test]
fn table04_matches_pre_refactor_snapshot() {
    run_and_compare("table04", &["table04"]);
}

#[test]
fn fig18_matches_pre_refactor_snapshot() {
    run_and_compare("fig18", &["fig18"]);
}

#[test]
fn fig14_15_matches_snapshot() {
    run_and_compare("fig14_15", &["fig14", "fig15"]);
}

#[test]
fn fig19_matches_snapshot() {
    run_and_compare("fig19", &["fig19"]);
}

#[test]
fn fig23_matches_snapshot() {
    run_and_compare("fig23", &["fig23"]);
}

#[test]
fn table02_matches_snapshot() {
    run_and_compare("table02", &["table02"]);
}

#[test]
fn mix_speedup_matches_snapshot() {
    run_and_compare("mix_speedup", &["mix_speedup"]);
}

#[test]
fn compare_summary_matches_snapshot() {
    run_and_compare(
        "compare_mitigations",
        &[
            "compare_summary",
            // One per-design table per registry entry.
            "compare_none",
            "compare_qprac-noop",
            "compare_qprac",
            "compare_qprac-pro",
            "compare_qprac-pro-ea",
            "compare_qprac-ideal",
            "compare_moat",
            "compare_mithril",
            "compare_pride",
            "compare_practical",
            "compare_cnc-prac",
            "compare_loaded-dice",
        ],
    );
}

/// The arena summary where mitigations already cost performance: at
/// 1000 instructions per core Mithril reads 0.9452.
#[test]
fn compare_summary_at_1000_instr_matches_snapshot() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/instr1000/compare_summary.csv");
    let text = std::fs::read_to_string(golden).expect("read the 1000-instr snapshot");
    // The snapshot must pin an effect: some design's geomean_perf
    // (7th column) is below the baseline's 1.0000.
    assert!(
        text.lines()
            .skip(1)
            .any(|row| row.split(',').nth(6).is_some_and(|p| p != "1.0000")),
        "no design in the snapshot pays any performance:\n{text}"
    );
    run_and_compare_at(1000, "compare_mitigations", &["compare_summary"]);
}

#[test]
fn fig16_matches_snapshot() {
    run_and_compare("fig16", &["fig16"]);
}

#[test]
fn fig17_matches_snapshot() {
    run_and_compare("fig17", &["fig17"]);
}

#[test]
fn fig20_matches_snapshot() {
    run_and_compare("fig20", &["fig20"]);
}

#[test]
fn fig21_22_matches_snapshot() {
    run_and_compare("fig21_22", &["fig21", "fig22"]);
}

#[test]
fn table03_matches_snapshot() {
    run_and_compare("table03", &["table03"]);
}

#[test]
fn ablation_opportunistic_matches_snapshot() {
    run_and_compare("ablation_opportunistic", &["ablation_opportunistic"]);
}

#[test]
fn fig02_matches_snapshot() {
    run_and_compare("fig02", &["fig02"]);
}

#[test]
fn fig03_matches_snapshot() {
    run_and_compare("fig03", &["fig03"]);
}

#[test]
fn fig06_matches_snapshot() {
    run_and_compare("fig06", &["fig06"]);
}

#[test]
fn fig08_matches_snapshot() {
    run_and_compare("fig08", &["fig08"]);
}

#[test]
fn fig11_matches_snapshot() {
    run_and_compare("fig11", &["fig11"]);
}

#[test]
fn fig12_matches_snapshot() {
    run_and_compare("fig12", &["fig12"]);
}

#[test]
fn fig13_matches_snapshot() {
    run_and_compare("fig13", &["fig13"]);
}

/// Pins today's bytes, unquoted commas included: `Table::csv` writes
/// `1 (1, 2 or 4)` as three fields (as in table02).
#[test]
fn table01_matches_snapshot() {
    run_and_compare("table01", &["table01"]);
}

#[test]
fn wave_validate_matches_snapshot() {
    run_and_compare("wave_validate", &["wave_validate"]);
}

#[test]
fn ablation_psq_size_matches_snapshot() {
    run_and_compare("ablation_psq_size", &["ablation_psq_size"]);
}

#[test]
fn ablation_tie_policy_matches_snapshot() {
    run_and_compare("ablation_tie_policy", &["ablation_tie_policy"]);
}

/// Canonical-key fidelity through the registry refactor: the exact key
/// text the pre-registry code rendered for every legacy mitigation,
/// pinned as literals. A byte of drift here silently orphans every
/// persisted run-cache entry and every warm `qprac-serve` disk tier,
/// so this is a golden, not a round-trip property.
#[test]
fn legacy_canonical_keys_are_byte_identical() {
    use sim::{MitigationKind, RunKey, SystemConfig};
    let pre_refactor = [
        (
            MitigationKind::None,
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=none;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::QpracNoOp,
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=qprac-noop;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::Qprac,
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=qprac;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::QpracProactive,
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=qprac-pro;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::QpracProactiveEa,
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=qprac-pro-ea;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::QpracIdeal,
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=qprac-ideal;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::Moat,
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=moat;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::Mithril { trh: 512 },
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=mithril@512;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
        (
            MitigationKind::Pride { trh: 512 },
            "workload:ycsb/a_like;cores=4;channels=1;instr=100000;mit=pride@512;nbo=32;nmit=1;psq=5;pro=1;rfm=ab;plain=false;map=mop-xor;seed=0xd5",
        ),
    ];
    for (kind, golden) in pre_refactor {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(kind)
            .with_instruction_limit(100_000);
        assert_eq!(
            RunKey::workload(&cfg, "ycsb/a_like").as_str(),
            golden,
            "canonical key drifted for {kind:?}"
        );
    }
}

/// Canonical engine-key golden: one literal per attack, so a change to
/// the rendering (field order, spelling) cannot silently orphan the
/// cached engine cells of every run cache and shard.
#[test]
fn canonical_engine_keys_are_byte_identical() {
    use attack_engine::EngineSpec;
    use qprac_bench::Job;
    let pinned = [
        (
            EngineSpec::ToggleForget { queue: 4, tbit: 6 },
            "engine:toggle_forget;queue=4;tbit=6",
        ),
        (
            EngineSpec::FillEscape {
                queue: 4,
                threshold: 64,
            },
            "engine:fill_escape;queue=4;threshold=64",
        ),
        (
            EngineSpec::BlockedTbit { queue: 4, tbit: 6 },
            "engine:blocked_tbit;queue=4;tbit=6",
        ),
        (
            EngineSpec::Wave {
                nmit: 1,
                nbo: 32,
                psq: 5,
                r1: 200,
            },
            "engine:wave;nmit=1;nbo=32;psq=5;r1=200",
        ),
    ];
    for (spec, golden) in pinned {
        assert_eq!(
            Job::from(spec).key().as_str(),
            golden,
            "canonical key drifted for {spec:?}"
        );
    }
}

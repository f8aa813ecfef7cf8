//! Differential tests: the event-driven fast-forward core must produce
//! **identical** `RunStats` to plain cycle-by-cycle stepping, across
//! workloads, mitigations, channel counts, and alert-heavy attack
//! scenarios. Any divergence means a skipped cycle was not actually
//! dead.

use std::collections::BTreeMap;

use cpu_model::{LoopTrace, TraceEntry, TraceSource, WorkloadSpec};
use dram_core::{AddressMapper, RfmKind};
use sim::{run_bandwidth_attack_with, MitigationKind, RunStats, System, SystemConfig};

fn run_mode_channels(
    workload: &str,
    kind: MitigationKind,
    instrs: u64,
    channels: usize,
    fast: bool,
) -> RunStats {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(kind)
        .with_channels(channels)
        .with_instruction_limit(instrs);
    let spec = WorkloadSpec::by_name(workload).unwrap();
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
        .collect();
    System::new(cfg, traces, spec.params.mlp)
        .with_fast_forward(fast)
        .run()
}

fn run_mode(workload: &str, kind: MitigationKind, instrs: u64, fast: bool) -> RunStats {
    run_mode_channels(workload, kind, instrs, 1, fast)
}

#[test]
fn fast_forward_is_bit_exact_across_workloads_and_mitigations() {
    // Periodic RFMs issued under Mithril and PrIDE, summed over the
    // workloads.
    let mut periodic_rfms = [0u64; 2];
    for workload in ["ycsb/a_like", "media/gsm_like", "tpc/tpcc64_like"] {
        for kind in [
            MitigationKind::None,
            MitigationKind::Qprac,
            MitigationKind::QpracProactive,
            MitigationKind::QpracNoOp,
            MitigationKind::Moat,
            MitigationKind::Mithril { trh: 512 },
            MitigationKind::Pride { trh: 512 },
        ] {
            let fast = run_mode(workload, kind, 3_000, true);
            let slow = run_mode(workload, kind, 3_000, false);
            assert_eq!(
                fast, slow,
                "fast-forward diverged for {workload} under {kind:?}"
            );
            assert!(fast.instructions() >= 12_000, "{workload} ran");
            match kind {
                MitigationKind::Mithril { .. } => periodic_rfms[0] += fast.device.rfm_pb,
                MitigationKind::Pride { .. } => periodic_rfms[1] += fast.device.rfm_pb,
                _ => {}
            }
        }
    }
    // The periodic-RFM cadence must actually fire, or the owed-RFM
    // bound in the controller goes untested.
    assert!(
        periodic_rfms.iter().all(|&n| n > 0),
        "Mithril/PrIDE issued no periodic RFM: {periodic_rfms:?}"
    );
}

/// Build a hammering trace for one core: a cyclic working set of lines
/// that (a) all fall into the same LLC set, so with more lines than
/// ways every access misses, and (b) contains same-bank different-row
/// pairs, so the DRAM sees a steady stream of row conflicts and the
/// PRAC counters climb to N_BO. With a small N_BO this drives the
/// device through alert assertion and RFM service — exactly the code
/// paths fast-forward must not skip over. In multi-channel
/// configurations core `i` hammers channel `i % channels` only, so
/// every channel sees its own alert storm.
fn hammer_trace(cfg: &SystemConfig, core: u64) -> LoopTrace {
    let dram = cfg.dram_config();
    let mapper = AddressMapper::new(&dram, cfg.mapping);
    let want_channel = (core % cfg.channels as u64) as u8;
    // The paper LLC has 16384 sets; lines 2^14 apart share a set.
    let set = 911 + core * 131;
    let stride = 16_384u64;
    let mut by_bank: BTreeMap<(u8, u8, u8), Vec<(u64, u32)>> = BTreeMap::new();
    for j in 0..1024u64 {
        let line = set + j * stride;
        let a = mapper.decode(line % mapper.num_lines());
        if a.channel != want_channel {
            continue;
        }
        let key = (a.coord.rank, a.coord.bank_group, a.coord.bank);
        let rows = by_bank.entry(key).or_default();
        if rows.iter().all(|&(_, r)| r != a.row.0) {
            rows.push((line, a.row.0));
        }
    }
    // Take the distinct-row lines of the richest banks: cycling them
    // makes every DRAM access a row conflict in those banks.
    let mut banks: Vec<&Vec<(u64, u32)>> = by_bank.values().collect();
    banks.sort_by_key(|rows| std::cmp::Reverse(rows.len()));
    let mut lines = Vec::new();
    for rows in banks {
        lines.extend(rows.iter().take(12).map(|&(line, _)| line));
        if lines.len() >= 12 {
            lines.truncate(12);
            break;
        }
    }
    assert!(lines.len() >= 10, "probe found too few conflict rows");
    LoopTrace::new(
        lines
            .into_iter()
            .map(|line| TraceEntry {
                bubbles: 0,
                line,
                is_store: false,
            })
            .collect(),
    )
}

fn run_hammer(channels: usize, fast: bool) -> RunStats {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::Qprac)
        .with_nbo(8)
        .with_channels(channels)
        .with_instruction_limit(4_000);
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| Box::new(hammer_trace(&cfg, i as u64)) as Box<dyn TraceSource>)
        .collect();
    System::new(cfg, traces, 4).with_fast_forward(fast).run()
}

#[test]
fn fast_forward_is_bit_exact_under_alert_storms() {
    let fast = run_hammer(1, true);
    let slow = run_hammer(1, false);
    assert_eq!(fast, slow, "fast-forward diverged in the alert-storm run");
    assert!(
        fast.device.alerts > 0,
        "scenario must actually exercise alert service: {:?}",
        fast.device
    );
    assert!(
        fast.mc.alert_service_cycles > 0,
        "skipped alert cycles must still be accounted"
    );
}

#[test]
fn fast_forward_is_bit_exact_at_two_and_four_channels() {
    for channels in [2usize, 4] {
        for (workload, kind) in [
            ("ycsb/a_like", MitigationKind::Qprac),
            ("ycsb/a_like", MitigationKind::QpracProactive),
            ("tpc/tpcc64_like", MitigationKind::Qprac),
        ] {
            let fast = run_mode_channels(workload, kind, 3_000, channels, true);
            let slow = run_mode_channels(workload, kind, 3_000, channels, false);
            assert_eq!(
                fast, slow,
                "fast-forward diverged for {workload} under {kind:?} at {channels} channels"
            );
            assert_eq!(fast.channel_device.len(), channels);
            assert!(
                fast.channel_device.iter().all(|d| d.acts > 0),
                "{workload} at {channels} channels left a channel idle"
            );
        }
    }
}

#[test]
fn fast_forward_is_bit_exact_under_a_two_channel_alert_storm() {
    let fast = run_hammer(2, true);
    let slow = run_hammer(2, false);
    assert_eq!(
        fast, slow,
        "fast-forward diverged in the 2-channel alert-storm run"
    );
    for (c, d) in fast.channel_device.iter().enumerate() {
        assert!(
            d.alerts > 0,
            "channel {c} saw no alerts — the storm must hit both channels: {:?}",
            fast.channel_device
        );
    }
    assert!(
        fast.mc.alert_service_cycles > 0,
        "skipped alert cycles must still be accounted"
    );
}

#[test]
fn fast_forward_is_bit_exact_for_the_bandwidth_attack() {
    for rfm_kind in [RfmKind::AllBank, RfmKind::SameBank, RfmKind::PerBank] {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_nbo(8)
            .with_alert_rfm_kind(rfm_kind);
        let fast = run_bandwidth_attack_with(&cfg, 8, 150_000, true);
        let slow = run_bandwidth_attack_with(&cfg, 8, 150_000, false);
        assert_eq!(fast, slow, "attack fast path diverged with {rfm_kind:?}");
        assert!(
            fast.alerts > 0,
            "attack must trigger alerts with {rfm_kind:?}"
        );
    }
}

//! Run-cache foundations: the cache codec must round-trip real
//! multi-channel runs losslessly (checked against the text rendering),
//! and the `RunKey` normalization rules (each registry entry's
//! declared-inert tracker knobs, all of them under
//! `MitigationKind::None`) must hold differentially — equal keys imply
//! bit-identical statistics.

use cpu_model::WorkloadSpec;
use dram_core::RfmKind;
use sim::{
    decode_cell, encode_cell, run_bandwidth_attack, run_workload, CellResult, MitigationKind,
    RunKey, SystemConfig,
};

/// Flip every knob the registry entry declares inert for `kind` away
/// from its paper default. If the keys still collapse but the stats
/// diverge, the inertness declaration is a lie.
fn flip_inert_knobs(cfg: &SystemConfig) -> SystemConfig {
    let inert = mitigations::spec_of(cfg.mitigation).inert;
    let mut c = cfg.clone();
    if inert.nbo {
        c.nbo = 128;
    }
    if inert.nmit {
        c.nmit = 4;
    }
    if inert.psq {
        c.psq_size = 1;
    }
    if inert.proactive {
        c.proactive_per_refs = 4;
    }
    if inert.rfm {
        c.alert_rfm_kind = RfmKind::PerBank;
    }
    if inert.seed {
        c.seed = 0x1234_5678;
    }
    c
}

#[test]
fn cache_text_round_trips_a_multi_channel_alert_storm() {
    // tpc/tpcc64_like hammers a small hot set; N_BO = 8 makes its hot
    // rows alert on both channels within a short run.
    let cfg = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::Qprac)
        .with_nbo(8)
        .with_channels(2)
        .with_instruction_limit(6_000);
    let stats = run_workload(&cfg, &WorkloadSpec::by_name("tpc/tpcc64_like").unwrap());
    assert_eq!(stats.channel_device.len(), 2);
    for (c, d) in stats.channel_device.iter().enumerate() {
        assert!(
            d.alerts > 0,
            "channel {c} must see alerts: {:?}",
            stats.channel_device
        );
    }
    let text = stats.to_cache_text();
    assert!(text.contains("\nchannel_device=[DeviceStats {"), "{text}");
    let cell = CellResult::Stats(Box::new(stats));
    let back = decode_cell(&encode_cell(&cell)).expect("decode cached stats");
    assert_eq!(back, cell, "cache round-trip must be lossless");
    assert_eq!(back.payload(), text, "re-render must be stable");
}

#[test]
fn equal_none_keys_imply_equal_stats() {
    // The canonicalization in RunKey claims nbo/nmit/psq/proactive/
    // rfm-kind/seed cannot affect an unmitigated run. Prove it on a
    // real simulation: knobs maxed out vs paper defaults.
    let knobbed = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::None)
        .with_nbo(128)
        .with_nmit(4)
        .with_psq_size(1)
        .with_proactive_per_refs(4)
        .with_alert_rfm_kind(RfmKind::PerBank)
        .with_instruction_limit(2_000);
    let knobbed = SystemConfig { seed: 7, ..knobbed };
    let plain = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::None)
        .with_instruction_limit(2_000);
    let w = WorkloadSpec::by_name("ycsb/a_like").unwrap();
    assert_eq!(
        RunKey::workload(&knobbed, w.name),
        RunKey::workload(&plain, w.name),
        "keys must collapse"
    );
    assert_eq!(
        run_workload(&knobbed, &w),
        run_workload(&plain, &w),
        "collapsed keys must mean bit-identical stats"
    );
}

#[test]
fn every_registered_inertness_claim_holds_on_a_real_run() {
    // Registry-driven version of the None differential above: for each
    // registered design, flipping exactly the knobs its entry declares
    // inert must leave both the key and the simulated statistics
    // bit-identical. A design added with an over-broad inert mask fails
    // here, not in production cache corruption.
    let w = WorkloadSpec::by_name("ycsb/a_like").unwrap();
    for spec in mitigations::registry() {
        let base = SystemConfig::paper_default()
            .with_mitigation(spec.default_kind)
            .with_instruction_limit(1_500);
        let knobbed = flip_inert_knobs(&base);
        assert_eq!(
            RunKey::workload(&base, w.name),
            RunKey::workload(&knobbed, w.name),
            "{}: inert knobs must not change the key",
            spec.stem
        );
        assert_eq!(
            run_workload(&base, &w),
            run_workload(&knobbed, &w),
            "{}: collapsed keys must mean bit-identical stats",
            spec.stem
        );
    }
}

#[test]
fn equal_none_attack_keys_imply_equal_attack_stats() {
    // Fig 19 relies on the same normalization for its unmitigated
    // bandwidth-attack baselines (one shared cell across all N_BO
    // points), so the inertness claim must hold on the attack driver
    // too — it exercises the device alert-service path (which reads
    // `nmit`) differently from System::run.
    let knobbed = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::None)
        .with_nbo(128)
        .with_nmit(4)
        .with_psq_size(1)
        .with_proactive_per_refs(4)
        .with_alert_rfm_kind(RfmKind::PerBank);
    let knobbed = SystemConfig { seed: 7, ..knobbed };
    let plain = SystemConfig::paper_default().with_mitigation(MitigationKind::None);
    assert_eq!(
        RunKey::attack(&knobbed, 8, 60_000),
        RunKey::attack(&plain, 8, 60_000),
        "attack keys must collapse"
    );
    assert_eq!(
        run_bandwidth_attack(&knobbed, 8, 60_000),
        run_bandwidth_attack(&plain, 8, 60_000),
        "collapsed attack keys must mean bit-identical attack stats"
    );
}

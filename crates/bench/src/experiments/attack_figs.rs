//! Fig 19: worst-case DRAM activation-bandwidth reduction under the
//! multi-bank performance attack (§VI-E).

use dram_core::RfmKind;
use sim::{MitigationKind, SystemConfig};

use crate::csv::{f, Table};
use crate::spec::{ExperimentSpec, Job};

/// Attack window in memory cycles (125 µs at 3200 MHz — long enough for
/// hundreds of alert/RFM round trips). `QPRAC_ATTACK_WINDOW` overrides
/// (the smoke tests shrink it).
fn window() -> u64 {
    sim::env_u64("QPRAC_ATTACK_WINDOW", 400_000)
}
/// Banks hammered simultaneously.
const ATTACK_BANKS: usize = 8;

/// Fig 19: bandwidth reduction vs N_BO for the four design points. The
/// unmitigated baseline is one shared cell (N_BO is a tracker-side knob
/// `RunKey` normalizes away for `MitigationKind::None`), shared by all
/// four variants at every N_BO.
pub fn fig19_spec() -> ExperimentSpec {
    let nbos = [16u32, 32, 64, 128];
    let variants: Vec<(&'static str, MitigationKind, RfmKind)> = vec![
        ("QPRAC-RFMab", MitigationKind::Qprac, RfmKind::AllBank),
        (
            "QPRAC-RFMab+Proactive",
            MitigationKind::QpracProactive,
            RfmKind::AllBank,
        ),
        (
            "QPRAC-RFMsb+Proactive",
            MitigationKind::QpracProactive,
            RfmKind::SameBank,
        ),
        (
            "QPRAC-RFMpb+Proactive",
            MitigationKind::QpracProactive,
            RfmKind::PerBank,
        ),
    ];
    let window = window();
    let attack = |cfg| Job::Attack {
        cfg,
        banks: ATTACK_BANKS,
        window,
    };
    let mut jobs = Vec::new();
    for &nbo in &nbos {
        let cfg = SystemConfig::paper_default().with_nbo(nbo);
        jobs.push(attack(cfg.clone().with_mitigation(MitigationKind::None)));
        for &(_, kind, rfm) in &variants {
            jobs.push(attack(
                cfg.clone().with_mitigation(kind).with_alert_rfm_kind(rfm),
            ));
        }
    }
    ExperimentSpec::new("fig19", jobs, move |r| {
        let mut t = Table::new(
            "fig19",
            "Fig 19: activation-bandwidth reduction under multi-bank attack",
            &["nbo", "variant", "bw_reduction_pct"],
        );
        // Per N_BO: the baseline, then each variant.
        for (&nbo, cells) in nbos.iter().zip(r.chunks(1 + variants.len())) {
            let base = cells[0].attack();
            for (&(label, _, _), s) in variants.iter().zip(&cells[1..]) {
                let red = s.attack().reduction_vs(base);
                t.rows
                    .push(vec![nbo.to_string(), label.to_string(), f(red * 100.0)]);
            }
        }
        vec![t.with_note("(paper: RFMab 62-93% loss; proactive rescues N_BO>=64; RFMpb 15-27%)")]
    })
}

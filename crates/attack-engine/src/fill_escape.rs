//! The **Fill+Escape** attack on FIFO service queues (paper §II-E1,
//! Fig 3; also defeats UPRAC+FIFO, §II-E2).
//!
//! Works even when the tracker compares the *full* counter against the
//! threshold on every activation (so Toggle+Forget's t-bit trick is
//! unavailable). The attacker hammers the target **only** during the
//! non-blocking ABO window while the FIFO is full: insertion attempts are
//! dropped, so the target's count rises without the tracker ever holding
//! it. Entries leave the queue at a bounded rate (`N_mit` per alert),
//! so the attacker refills it with fresh sacrificial rows and repeats.
//!
//! Following the paper's accounting, REF-shadow queue drains are not
//! modeled here (`ref_mitigation = false`); they would remove at most one
//! entry per tREFI and are compensated by one extra refill row in the
//! paper's own count ("and one extra entry may be removed due to
//! mitigation on tREFI").

use dram_core::RowId;
use mitigations::{Panopticon, PanopticonVariant};

use crate::engine::{ActEngine, EngineConfig};

/// Outcome of a Fill+Escape run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillEscapeOutcome {
    /// Maximum activations the target row absorbed without mitigation.
    pub target_unmitigated: u32,
    /// Refill iterations completed.
    pub iterations: u64,
}

/// Run Fill+Escape against full-counter Panopticon with the given FIFO
/// `queue_size` and mitigation `threshold`. Uses PRAC-4 (the paper's
/// accounting drains four entries per alert).
pub fn run(queue_size: usize, threshold: u32) -> FillEscapeOutcome {
    let cfg = EngineConfig {
        ref_mitigation: false,
        ..EngineConfig::paper_default(4)
    };
    let mut engine = ActEngine::new(
        cfg,
        Box::new(Panopticon::new(
            PanopticonVariant::FullCounter,
            queue_size,
            threshold,
        )),
    );

    let stride = (cfg.br + 3) * 2;
    let target = RowId(0);
    // Fresh sacrificial rows are drawn from an arena that never collides
    // with the target or each other's blast radius.
    let mut next_fresh = 1u32;
    let mut fresh = |engine: &ActEngine| -> RowId {
        let r = RowId(next_fresh * stride);
        next_fresh += 1;
        assert!(r.0 < engine.cfg().rows, "arena exhausted");
        r
    };

    // Phase 1: bring the target to threshold - 1 (it must not enter the
    // queue before the hammering starts).
    for _ in 0..threshold - 1 {
        engine.activate(target);
    }
    // Phase 2: fill the FIFO with Q sacrificial rows at the threshold.
    for _ in 0..queue_size {
        let row = fresh(&engine);
        for _ in 0..threshold {
            engine.activate(row);
            if engine.budget_exhausted() {
                return FillEscapeOutcome {
                    target_unmitigated: engine.count(target),
                    iterations: 0,
                };
            }
        }
    }

    let mut iterations = 0u64;
    while !engine.budget_exhausted() {
        if engine.alert_pending() {
            // Queue full: hammer the target through the whole window.
            while engine.abo_acts_left() > 0 {
                engine.activate(target);
            }
            engine.service_alert(); // drains nmit entries
            iterations += 1;
        } else {
            // Refill: one fresh row to the threshold inserts one entry.
            let row = fresh(&engine);
            for _ in 0..threshold {
                engine.activate(row);
                if engine.budget_exhausted() || engine.alert_pending() {
                    break;
                }
            }
        }
    }

    FillEscapeOutcome {
        target_unmitigated: engine.count(target),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_never_enters_queue_yet_exceeds_threshold() {
        let o = run(4, 64);
        assert!(
            o.target_unmitigated > 64,
            "target escaped with only {} ACTs",
            o.target_unmitigated
        );
        assert!(o.iterations > 0);
    }

    #[test]
    fn matches_fig3_anchor_at_512() {
        // Fig 3: minimum ~1283 unmitigated ACTs at threshold 512.
        let o = run(4, 512);
        assert!(
            (900..=1_800).contains(&o.target_unmitigated),
            "M=512: {} (paper 1283)",
            o.target_unmitigated
        );
    }

    #[test]
    fn lower_thresholds_are_worse() {
        // Fig 3: unmitigated activations increase dramatically at lower
        // thresholds (refills get cheap).
        let m64 = run(4, 64).target_unmitigated;
        let m512 = run(4, 512).target_unmitigated;
        assert!(m64 > m512, "M=64: {m64} vs M=512: {m512}");
        assert!(m64 > 3_000, "M=64: {m64} (paper ~5-6K)");
    }

    #[test]
    fn insecure_below_1280_for_all_thresholds() {
        // §II-E1: "insecure below a T_RH of 1280".
        for t in [64u32, 128, 256, 512, 1024] {
            let o = run(4, t);
            assert!(
                o.target_unmitigated >= 1_000,
                "M={t}: only {}",
                o.target_unmitigated
            );
        }
    }

    #[test]
    fn agrees_with_analytic_model() {
        for (q, m) in [(4usize, 256u32), (4, 512), (8, 512)] {
            let sim = run(q, m).target_unmitigated as f64;
            let model = security_model::panopticon::fill_escape_max_acts(q as u64, m as u64) as f64;
            let ratio = sim / model;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "q={q} m={m}: sim {sim} vs model {model}"
            );
        }
    }
}

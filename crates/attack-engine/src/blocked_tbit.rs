//! The Appendix-A attack on Panopticon variants that block ABO_ACT
//! activations from toggling the t-bit (paper Fig 23).
//!
//! If t-bit toggles are suppressed during the alert window, the attacker
//! simply hammers the target *only inside alert windows*: the target's
//! toggles never register, so it is never queued. Alerts are manufactured
//! by filling the FIFO with sacrificial rows, exactly as in Fill+Escape,
//! but here the target needs no pre-conditioning — every windowed
//! activation is invisible to the tracker.

use dram_core::RowId;
use mitigations::{Panopticon, PanopticonVariant};

use crate::engine::{ActEngine, EngineConfig};

/// Outcome of a blocked-t-bit attack run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockedTbitOutcome {
    /// Maximum activations the target absorbed without mitigation.
    pub target_unmitigated: u32,
    /// Alerts exploited.
    pub alerts: u64,
}

/// Run the attack against blocked-toggle Panopticon with the given FIFO
/// `queue_size` and t-bit threshold `2^tbit`.
pub fn run(queue_size: usize, tbit: u32) -> BlockedTbitOutcome {
    let threshold = 1u32 << tbit;
    let cfg = EngineConfig {
        ref_mitigation: false,
        ..EngineConfig::paper_default(4)
    };
    let mut engine = ActEngine::new(
        cfg,
        Box::new(Panopticon::new(
            PanopticonVariant::BlockedToggle,
            queue_size,
            threshold,
        )),
    );

    let stride = (cfg.br + 3) * 2;
    let target = RowId(0);
    let mut next_fresh = 1u32;

    while !engine.budget_exhausted() {
        if engine.alert_pending() {
            // Hammer the target through the window; its toggles are
            // suppressed, so it is never queued.
            while engine.abo_acts_left() > 0 {
                engine.activate(target);
            }
            engine.service_alert();
        } else {
            // Refill one fresh sacrificial row to its toggle point.
            let row = RowId(next_fresh * stride);
            next_fresh += 1;
            if row.0 >= engine.cfg().rows {
                break; // arena exhausted (very low thresholds)
            }
            for _ in 0..threshold {
                engine.activate(row);
                if engine.budget_exhausted() || engine.alert_pending() {
                    break;
                }
            }
        }
    }

    BlockedTbitOutcome {
        target_unmitigated: engine.count(target),
        alerts: engine.stats().alerts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_tbit_does_not_fix_panopticon() {
        // Appendix A: the attack still leaves hundreds of unmitigated
        // ACTs per bank at a threshold of 1024 (the paper's ~1800 counts
        // refills pipelined across all 32 banks of a rank; this engine is
        // single-bank, so its per-bank result is lower by roughly the
        // parallelism factor — the conclusion "still insecure" holds).
        let o = run(4, 10);
        assert!(
            o.target_unmitigated > 300,
            "target only got {}",
            o.target_unmitigated
        );
        assert!(o.alerts > 100);
    }

    #[test]
    fn decreases_with_threshold() {
        let low = run(4, 6).target_unmitigated;
        let high = run(4, 12).target_unmitigated;
        assert!(low > high, "M=64: {low} vs M=4096: {high}");
    }

    #[test]
    fn decreases_with_queue_size() {
        let q4 = run(4, 8).target_unmitigated;
        let q32 = run(32, 8).target_unmitigated;
        assert!(q4 > q32, "Q=4: {q4} vs Q=32: {q32}");
    }
}

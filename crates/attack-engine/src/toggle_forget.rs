//! The **Toggle+Forget** attack on Panopticon (paper §II-E1, Fig 2).
//!
//! Exploits the combination of (1) t-bit-toggle-only insertions, (2) the
//! bounded FIFO, and (3) PRAC's non-blocking alert. The attacker keeps
//! `Q + 1` rows marching toward their toggle points in lockstep; when the
//! `Q` filler rows toggle they fill the FIFO and raise the alert, and the
//! target row's own toggle is spent *inside* the ABO window while the
//! queue is full — so the target is silently dropped and will not be
//! offered again for another `2^t` activations. Repeated every toggle
//! period, the target accumulates activations for the whole refresh
//! window without a single mitigation.

use dram_core::RowId;
use mitigations::Panopticon;

use crate::engine::{ActEngine, EngineConfig};

/// Outcome of a Toggle+Forget run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToggleForgetOutcome {
    /// Maximum activations the target row absorbed without mitigation.
    pub target_unmitigated: u32,
    /// Attack iterations completed in the refresh window.
    pub iterations: u64,
    /// Alerts raised (each one is an exploited full-queue window).
    pub alerts: u64,
}

/// Run Toggle+Forget against Panopticon with a `queue_size`-entry FIFO
/// and mitigation threshold `2^tbit`.
pub fn run(queue_size: usize, tbit: u32) -> ToggleForgetOutcome {
    let threshold = 1u32 << tbit;
    let cfg = EngineConfig::paper_default(1);
    let mut engine = ActEngine::new(cfg, Box::new(Panopticon::tbit(queue_size, tbit)));

    // Rows spaced beyond the blast radius so victim refreshes never
    // touch other attack rows.
    let stride = (cfg.br + 3) * 2;
    let target = RowId(0);
    let fillers: Vec<RowId> = (1..=queue_size as u32).map(|i| RowId(i * stride)).collect();

    let mut iterations = 0u64;
    'outer: loop {
        // Phase 1: march every filler to one activation before its next
        // toggle point (counters may have been reset by mitigations).
        for &row in &fillers {
            loop {
                let c = engine.count(row);
                if c % threshold == threshold - 1 {
                    break;
                }
                engine.activate(row);
                if engine.budget_exhausted() {
                    break 'outer;
                }
            }
        }
        // March the target to just before its toggle as well.
        while engine.count(target) % threshold != threshold - 1 {
            engine.activate(target);
            if engine.budget_exhausted() {
                break 'outer;
            }
        }
        // Phase 2: toggle all fillers back-to-back to fill the FIFO and
        // raise the alert. Step past an imminent REF first so its queue
        // drain cannot race the burst.
        let junk = RowId(cfg.rows - 2);
        while engine.acts_until_ref() <= queue_size as u32 + 2 {
            engine.activate(junk);
            if engine.budget_exhausted() {
                break 'outer;
            }
        }
        for &row in &fillers {
            engine.activate(row);
        }
        // Phase 3: spend the target's toggle inside the ABO window while
        // the queue is full; the insertion is lost. A second activation
        // moves it past the toggle point.
        if engine.alert_pending() {
            engine.activate(target);
            engine.activate(target);
            engine.service_alert();
        }
        // If the burst failed to fill the queue (a mitigation raced us),
        // retry: the target sits safely at toggle-1 and is never exposed.
        iterations += 1;
        if engine.budget_exhausted() {
            break;
        }
    }

    ToggleForgetOutcome {
        target_unmitigated: engine.count(target),
        iterations,
        alerts: engine.stats().alerts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_is_never_mitigated_and_exceeds_100x_sub100_trh() {
        // Fig 2 headline: for sub-100 T_RH the target absorbs >100x T_RH
        // activations without mitigation.
        let o = run(4, 8);
        assert!(
            o.target_unmitigated > 10_000,
            "target got {} unmitigated ACTs",
            o.target_unmitigated
        );
    }

    #[test]
    fn matches_fig2_anchors() {
        // Fig 2: >100K at Q=4; ~25K at Q=16 (threshold-independent).
        let q4 = run(4, 8).target_unmitigated;
        let q16 = run(16, 8).target_unmitigated;
        assert!(q4 > 80_000, "Q=4: {q4}");
        assert!((15_000..=40_000).contains(&q16), "Q=16: {q16}");
        assert!(q4 > q16);
    }

    #[test]
    fn roughly_threshold_independent() {
        // Fig 2: "independent of the mitigation threshold (t-bit)".
        let a = run(8, 6).target_unmitigated as f64;
        let b = run(8, 10).target_unmitigated as f64;
        assert!((a - b).abs() / a < 0.25, "t=6: {a}, t=10: {b}");
    }

    #[test]
    fn agrees_with_analytic_model() {
        // Cross-validate simulation vs security-model closed form.
        for (q, t) in [(4usize, 8u32), (8, 8), (16, 6)] {
            let sim = run(q, t).target_unmitigated as f64;
            let model = security_model::panopticon::toggle_forget_max_acts(q as u64, t) as f64;
            let ratio = sim / model;
            assert!(
                (0.6..=1.6).contains(&ratio),
                "q={q} t={t}: sim {sim} vs model {model}"
            );
        }
    }
}

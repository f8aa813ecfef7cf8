//! Declarative attack-engine runs: one [`EngineSpec`] value names one
//! attack, its target and every parameter, so a run can be keyed,
//! cached and shipped like any other simulation cell.

use qprac::{Qprac, QpracConfig};

use crate::engine::EngineConfig;
use crate::{blocked_tbit, fill_escape, toggle_forget, wave};

/// Largest Panopticon FIFO a spec may name (the figures sweep 4-64).
const MAX_QUEUE: usize = 256;
/// Largest t-bit a spec may name: threshold `2^14` (the figures sweep
/// `2^6`-`2^12`), which also caps Fill+Escape thresholds.
const MAX_TBIT: u32 = 14;
/// Smallest Fill+Escape threshold (the figures sweep 64-4096). Below
/// ~36 the sacrificial-row arena of the bank runs out before the
/// refresh window does.
const MIN_FILL_ESCAPE_THRESHOLD: u32 = 64;
/// Largest wave-attack `N_BO` (the paper sweeps up to 256).
const MAX_NBO: u32 = 256;
/// Largest PSQ a wave spec may name (the ablation sweeps 1-5).
const MAX_PSQ: usize = 64;

/// One attack-engine run, reduced to the count the figures report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// Toggle+Forget against t-bit Panopticon (Fig 2).
    ToggleForget {
        /// FIFO entries.
        queue: usize,
        /// Mitigation threshold `2^tbit`.
        tbit: u32,
    },
    /// Fill+Escape against full-counter Panopticon (Fig 3).
    FillEscape {
        /// FIFO entries.
        queue: usize,
        /// Mitigation threshold.
        threshold: u32,
    },
    /// The blocked-t-bit attack on Panopticon (Fig 23).
    BlockedTbit {
        /// FIFO entries.
        queue: usize,
        /// Mitigation threshold `2^tbit`.
        tbit: u32,
    },
    /// The wave attack against QPRAC (§IV-B) under
    /// `EngineConfig::paper_default(nmit)`, with every pool row set up
    /// to `nbo - 1` activations.
    Wave {
        /// RFMs per alert (PRAC level).
        nmit: u32,
        /// Back-Off threshold.
        nbo: u32,
        /// PSQ entries.
        psq: usize,
        /// Starting pool size.
        r1: u64,
    },
}

impl EngineSpec {
    /// Run the attack: the maximum unmitigated activations it reached.
    /// Panics on parameters [`EngineSpec::check`] rejects.
    pub fn run(&self) -> u64 {
        let acts = match *self {
            EngineSpec::ToggleForget { queue, tbit } => {
                toggle_forget::run(queue, tbit).target_unmitigated
            }
            EngineSpec::FillEscape { queue, threshold } => {
                fill_escape::run(queue, threshold).target_unmitigated
            }
            EngineSpec::BlockedTbit { queue, tbit } => {
                blocked_tbit::run(queue, tbit).target_unmitigated
            }
            EngineSpec::Wave { nmit, nbo, psq, r1 } => {
                let tracker = Qprac::new(
                    QpracConfig::paper_default()
                        .with_nbo(nbo)
                        .with_psq_size(psq),
                );
                wave::run_with_setup(
                    EngineConfig::paper_default(nmit),
                    Box::new(tracker),
                    r1,
                    nbo - 1,
                )
                .max_unmitigated
            }
        };
        acts as u64
    }

    /// Whether [`EngineSpec::run`] accepts these parameters: every
    /// value an attack would panic on, and sizes far beyond the
    /// figures' grids, are rejected with the reason.
    pub fn check(&self) -> Result<(), String> {
        let in_range = |name: &str, v: u64, lo: u64, hi: u64| {
            if (lo..=hi).contains(&v) {
                Ok(())
            } else {
                Err(format!("engine {name}={v} outside {lo}..={hi}"))
            }
        };
        let queue_ok = |queue: usize| in_range("queue", queue as u64, 1, MAX_QUEUE as u64);
        match *self {
            EngineSpec::ToggleForget { queue, tbit } | EngineSpec::BlockedTbit { queue, tbit } => {
                queue_ok(queue)?;
                in_range("tbit", tbit.into(), 1, MAX_TBIT.into())
            }
            EngineSpec::FillEscape { queue, threshold } => {
                queue_ok(queue)?;
                let (lo, hi) = (MIN_FILL_ESCAPE_THRESHOLD, 1 << MAX_TBIT);
                in_range("threshold", threshold.into(), lo.into(), hi)
            }
            EngineSpec::Wave { nmit, nbo, psq, r1 } => {
                if !matches!(nmit, 1 | 2 | 4) {
                    return Err(format!(
                        "engine nmit={nmit} is not a PRAC level (1, 2 or 4)"
                    ));
                }
                in_range("nbo", nbo.into(), 1, MAX_NBO.into())?;
                in_range("psq", psq as u64, 1, MAX_PSQ as u64)?;
                // The pool spaces rows one blast radius apart and must
                // fit in the bank.
                let cfg = EngineConfig::paper_default(nmit);
                let stride = u64::from((cfg.br + 3) * 2);
                in_range("r1", r1, 1, (u64::from(cfg.rows) - 1) / stride)
            }
        }
    }
}

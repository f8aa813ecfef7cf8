//! # attack-engine
//!
//! Activation-level Rowhammer security engine plus the attack programs
//! from the QPRAC paper (HPCA 2025):
//!
//! - [`engine`] — a fast single-bank engine with PRAC counters, ABO
//!   semantics (non-blocking window, `ABO_Delay`, `N_mit` RFMs), REF
//!   cadence and the tREFW time budget;
//! - [`toggle_forget`] — breaks original Panopticon via lost t-bit
//!   toggles (Fig 2);
//! - [`fill_escape`] — breaks any full FIFO design (full-counter
//!   Panopticon, UPRAC+FIFO) via ABO-window hammering (Fig 3);
//! - [`blocked_tbit`] — breaks the Appendix-A strawman that suppresses
//!   toggles during alert windows (Fig 23);
//! - [`wave`] — the Wave/Feinting attack used to validate the analytical
//!   security model and to show PSQ ≡ ideal PRAC (§IV-B);
//! - [`spec`] — [`EngineSpec`], one of the runs above as plain data, the
//!   form the figure suite keys, caches and ships them in.
//!
//! ## Example: QPRAC survives what breaks Panopticon
//!
//! ```
//! use attack_engine::{fill_escape, engine::{ActEngine, EngineConfig}};
//! use dram_core::RowId;
//! use qprac::{Qprac, QpracConfig};
//!
//! // Panopticon-style FIFOs leak >1000 unmitigated ACTs...
//! let broken = fill_escape::run(4, 512);
//! assert!(broken.target_unmitigated > 512);
//!
//! // ...while QPRAC's PSQ mitigates the same hot row at N_BO.
//! let cfg = EngineConfig { rows: 4096, ..EngineConfig::paper_default(1) };
//! let mut e = ActEngine::new(cfg, Box::new(Qprac::new(QpracConfig::paper_default())));
//! for _ in 0..32 { e.activate(RowId(0)); }
//! assert!(e.alert_pending());
//! ```

pub mod blocked_tbit;
pub mod engine;
pub mod fill_escape;
pub mod spec;
pub mod toggle_forget;
pub mod wave;

pub use blocked_tbit::BlockedTbitOutcome;
pub use engine::{ActEngine, EngineConfig, EngineStats};
pub use fill_escape::FillEscapeOutcome;
pub use spec::EngineSpec;
pub use toggle_forget::ToggleForgetOutcome;
pub use wave::{run_with_setup as run_wave, WaveOutcome};

//! # mitigations
//!
//! The mitigation zoo: every in-DRAM Rowhammer tracker the suite can
//! host, plus the [`registry`](mod@registry) that makes each design a
//! single self-contained module. Each tracker implements
//! [`dram_core::InDramMitigation`] and can be hosted by the timing-level
//! [`dram_core::DramDevice`] or the activation-level engine in
//! `attack-engine`:
//!
//! | Tracker | Source | Why it matters |
//! |---------|--------|----------------|
//! | [`Panopticon`] | §II-E1, Appendix A | FIFO + t-bit; broken by Toggle+Forget / Fill+Escape |
//! | [`UpracFifo`] | §II-E2 | UPRAC's practical strawman; broken by Fill+Escape |
//! | [`Moat`] | §VII-A | concurrent secure design; single-entry queue |
//! | [`Mithril`] | §VI-G | Misra-Gries tracker; impractical CAM, heavy RFMs |
//! | [`Pride`] | §VI-G | probabilistic FIFO; heavy RFMs at low T_RH |
//! | [`Practical`] | arXiv:2507.18581 | per-subarray queues, recovery isolation |
//! | [`CncPrac`] | arXiv:2506.11970 | coalescing counter write-back queue |
//! | [`LoadedDice`] | arXiv:2605.17358 | probabilistic selection, non-selection fix |
//!
//! The idealized UPRAC / QPRAC-Ideal oracle lives in the `qprac` crate
//! (`qprac::QpracIdeal`) since it shares QPRAC's mitigation policy.
//! Controller cadences for the rate-based designs are in [`rates`].
//!
//! The [`registry`](mod@registry) module owns [`MitigationKind`] and one
//! [`registry::MitigationSpec`] per design — tracker factory, canonical
//! key token, inert-knob normalization, storage/security hooks — so the
//! simulator, the run-key layer, and the bench `compare_mitigations`
//! arena all consume the same table. [`zoo_table`] renders it for the
//! README.

pub mod cnc_prac;
pub mod loaded_dice;
pub mod mithril;
pub mod moat;
pub mod panopticon;
pub mod practical;
pub mod pride;
pub mod rates;
pub mod registry;
pub mod uprac;

pub use cnc_prac::CncPrac;
pub use loaded_dice::LoadedDice;
pub use mithril::Mithril;
pub use moat::Moat;
pub use panopticon::{Panopticon, PanopticonVariant};
pub use practical::Practical;
pub use pride::Pride;
pub use rates::{mithril_entries, mithril_interval, pride_interval};
pub use registry::{
    parse_token, registry, spec_of, zoo_table, InertKnobs, MitigationKind, MitigationSpec,
    SecurityEntry, TokenError, TrackerParams,
};
pub use uprac::UpracFifo;

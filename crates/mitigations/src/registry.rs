//! The mitigation registry: one [`MitigationSpec`] per supported design.
//!
//! Historically every layer of the stack — tracker construction in
//! `sim::config`, run-key canonicalization in `sim::runkey`, storage
//! accounting, security tables — carried its own `match` over
//! `MitigationKind`, so adding a design was a shotgun edit across five
//! crates. The registry collapses all of that into one table: each
//! design declares its tracker factory, its canonical-key token, which
//! configuration knobs it provably ignores (so the key layer can
//! normalize them away), its periodic-RFM cadence (for the rate-based
//! designs), and its security-model entry (provable T_RH bound plus the
//! guaranteed tREFI mitigation tax).
//!
//! Adding a mitigation after this refactor is: write one module under
//! `crates/mitigations/src/` exposing a `SPEC` const, add the enum
//! variant + one `stem()` arm below, and push the spec onto
//! [`REGISTRY`]. Everything else — `RunKey` parse/render, the bench
//! `compare_mitigations` arena, the README zoo table, the serve wire
//! path — picks it up from the table.

use dram_core::{InDramMitigation, NoMitigation};
use qprac::{ProactivePolicy, Qprac, QpracConfig, QpracIdeal};
use security_model::{secure_trh, PracModel};

use crate::{cnc_prac, loaded_dice, practical};
use crate::{mithril_entries, mithril_interval, pride_interval, Mithril, Moat, Pride};

/// Which Rowhammer mitigation the DRAM hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationKind {
    /// Insecure baseline: PRAC timings, no ABO mitigation (the paper's
    /// normalization point).
    None,
    /// QPRAC-NoOp: mitigates only the alerting bank on RFMs.
    QpracNoOp,
    /// QPRAC with opportunistic mitigation (default mechanism).
    Qprac,
    /// QPRAC + proactive mitigation on every eligible REF.
    QpracProactive,
    /// QPRAC + energy-aware proactive mitigation (the paper's default
    /// design, `N_PRO = N_BO / 2`).
    QpracProactiveEa,
    /// Oracle top-N tracker with proactive mitigation (§V item 5).
    QpracIdeal,
    /// MOAT (§VII-A): dual threshold, single entry. Proactive cadence
    /// comes from the system config's `proactive_per_refs` (0 disables).
    Moat,
    /// Mithril at a target Rowhammer threshold (sets the periodic RFM
    /// cadence; §VI-G).
    Mithril {
        /// Target T_RH the cadence must defend.
        trh: u32,
    },
    /// PrIDE at a target Rowhammer threshold (§VI-G).
    Pride {
        /// Target T_RH the cadence must defend.
        trh: u32,
    },
    /// PRACtical (arXiv:2507.18581): per-subarray counter-update queues
    /// with bank-level recovery isolation.
    Practical,
    /// CnC-PRAC (arXiv:2506.11970): coalescing counter write-back queue.
    CncPrac,
    /// Loaded Dice (arXiv:2605.17358): scalable probabilistic row
    /// selection with the non-selection fix.
    LoadedDice,
}

impl MitigationKind {
    /// The design's canonical-key stem — the single remaining
    /// enum-to-table decomposition point. Every other consumer goes
    /// through [`spec_of`].
    pub fn stem(self) -> &'static str {
        match self {
            MitigationKind::None => "none",
            MitigationKind::QpracNoOp => "qprac-noop",
            MitigationKind::Qprac => "qprac",
            MitigationKind::QpracProactive => "qprac-pro",
            MitigationKind::QpracProactiveEa => "qprac-pro-ea",
            MitigationKind::QpracIdeal => "qprac-ideal",
            MitigationKind::Moat => "moat",
            MitigationKind::Mithril { .. } => "mithril",
            MitigationKind::Pride { .. } => "pride",
            MitigationKind::Practical => "practical",
            MitigationKind::CncPrac => "cnc-prac",
            MitigationKind::LoadedDice => "loaded-dice",
        }
    }

    /// The target Rowhammer threshold carried by the rate-based kinds.
    pub fn trh(self) -> Option<u32> {
        match self {
            MitigationKind::Mithril { trh } | MitigationKind::Pride { trh } => Some(trh),
            _ => None,
        }
    }

    /// Canonical run-key token: the stem, plus `@<trh>` for the
    /// rate-based designs (`mithril@512`).
    pub fn token(self) -> String {
        match self.trh() {
            Some(trh) => format!("{}@{trh}", self.stem()),
            None => self.stem().to_string(),
        }
    }
}

/// Error parsing a mitigation token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// The token's stem names no registered design — typically a key
    /// minted by a newer build. Callers should degrade to a cache miss /
    /// local fallback rather than treat the key as garbage.
    UnknownMitigation(String),
    /// The stem is registered but the token is malformed (bad or
    /// missing `@<trh>` suffix).
    Invalid(String),
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenError::UnknownMitigation(t) => write!(f, "unknown mitigation token {t:?}"),
            TokenError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for TokenError {}

/// Parse a canonical mitigation token (the `mit=` field of a run key)
/// by looking the stem up in [`REGISTRY`].
pub fn parse_token(token: &str) -> Result<MitigationKind, TokenError> {
    let (stem, trh_text) = match token.split_once('@') {
        Some((stem, trh)) => (stem, Some(trh)),
        None => (token, None),
    };
    let spec = REGISTRY
        .iter()
        .find(|s| s.stem == stem)
        .ok_or_else(|| TokenError::UnknownMitigation(token.to_string()))?;
    match (spec.at_trh, trh_text) {
        (Some(at_trh), Some(trh_text)) => {
            let trh = trh_text
                .parse()
                .map_err(|e| TokenError::Invalid(format!("bad {stem} trh {trh_text:?}: {e}")))?;
            Ok(at_trh(trh))
        }
        (Some(_), None) => Err(TokenError::Invalid(format!(
            "mitigation {stem} requires a @<trh> suffix"
        ))),
        (None, None) => Ok(spec.default_kind),
        (None, Some(_)) => Err(TokenError::Invalid(format!(
            "mitigation {stem} takes no @<trh> suffix, got {token:?}"
        ))),
    }
}

/// Everything a tracker factory may consume, collected from the system
/// configuration by the host. One struct for all designs keeps the
/// factory signature stable as designs come and go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerParams {
    /// Back-Off threshold.
    pub nbo: u32,
    /// RFMs per alert (PRAC level).
    pub nmit: u8,
    /// Queue/table entries per bank (the PSQ-size knob; capacity for
    /// every queue-backed design).
    pub psq_size: usize,
    /// Proactive cadence in REFs (design-specific meaning; 0 disables
    /// where a design supports that).
    pub proactive_per_refs: u32,
    /// Target T_RH for the rate-based designs.
    pub trh: Option<u32>,
    /// Seed for probabilistic trackers.
    pub seed: u64,
    /// Hosting bank index (probabilistic trackers decorrelate per bank).
    pub bank: usize,
}

impl TrackerParams {
    /// Paper-default parameters (Table I/II) for bank 0 of `kind`.
    pub fn paper_default(kind: MitigationKind) -> Self {
        TrackerParams {
            nbo: 32,
            nmit: 1,
            psq_size: 5,
            proactive_per_refs: 1,
            trh: kind.trh(),
            seed: 0xD5,
            bank: 0,
        }
    }
}

/// Which tracker-side configuration knobs a design provably ignores.
///
/// The run-key layer pins flagged knobs to the paper defaults before
/// rendering, so sweeps over knobs a design cannot observe collapse
/// onto one cacheable cell. Flags are conservative: a knob is marked
/// inert only when the tracker factory and the memory-controller
/// configuration demonstrably never read it for that design
/// (`crates/sim/tests/run_cache.rs` proves each flag differentially).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InertKnobs {
    /// Back-Off threshold `nbo` is ignored.
    pub nbo: bool,
    /// PRAC level `nmit` is ignored.
    pub nmit: bool,
    /// Queue capacity `psq_size` is ignored.
    pub psq: bool,
    /// Proactive cadence `proactive_per_refs` is ignored.
    pub proactive: bool,
    /// Alert-RFM kind is ignored (only possible when no alert can ever
    /// fire).
    pub rfm: bool,
    /// The probabilistic seed is ignored.
    pub seed: bool,
}

impl InertKnobs {
    /// Every knob observable (no normalization).
    pub const ACTIVE: InertKnobs = InertKnobs {
        nbo: false,
        nmit: false,
        psq: false,
        proactive: false,
        rfm: false,
        seed: false,
    };

    /// Only the probabilistic seed is ignored — the common case for the
    /// deterministic ABO-driven designs (`cfg.seed` is consumed solely
    /// by the seeded trackers' samplers).
    pub const SEED_ONLY: InertKnobs = InertKnobs {
        seed: true,
        ..InertKnobs::ACTIVE
    };
}

/// One design's security-model entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityEntry {
    /// Provable minimum secure T_RH under the paper's §IV analysis
    /// (`None` for the insecure baseline).
    pub secure_trh: Option<u64>,
    /// Guaranteed steady-state mitigation tax: the percentage of each
    /// tREFI spent on mitigation commands the design issues regardless
    /// of attack pressure (proactive REF mitigations and periodic RFMs;
    /// reactive-only designs tax 0%).
    pub trefi_tax_pct: f64,
}

/// A registered mitigation design: everything the rest of the stack
/// needs to construct, key, compare and document it.
pub struct MitigationSpec {
    /// Canonical-key stem (`mit=<stem>` or `mit=<stem>@<trh>`).
    pub stem: &'static str,
    /// Human-readable label for experiment output.
    pub label: &'static str,
    /// Where the design comes from (paper section or arXiv id).
    pub paper: &'static str,
    /// Which configuration knobs the design observes, for the zoo table.
    pub knobs: &'static str,
    /// The `MitigationKind` this spec answers to (carrying the paper
    /// default T_RH for the rate-based designs).
    pub default_kind: MitigationKind,
    /// Constructor for `@<trh>` tokens; `None` for threshold-free
    /// designs.
    pub at_trh: Option<fn(u32) -> MitigationKind>,
    /// Knobs the run-key layer may normalize away.
    pub inert: InertKnobs,
    /// Per-bank tracker factory.
    pub build: fn(&TrackerParams) -> Box<dyn InDramMitigation>,
    /// Controller-scheduled RFM cadence in ACTs for a target T_RH
    /// (`None` for the ABO-driven designs).
    pub periodic_rfm: Option<fn(u32) -> u32>,
    /// Security-model entry for a given parameter point.
    pub security: fn(&TrackerParams) -> SecurityEntry,
}

impl MitigationSpec {
    /// Per-bank SRAM bits at parameter point `p`, read off a freshly
    /// built tracker so the factory stays the single source of truth.
    pub fn storage_bits(&self, p: &TrackerParams) -> u64 {
        (self.build)(p).storage_bits()
    }
}

/// The paper's PRAC level as accepted by the analytical model; levels
/// outside {1, 2, 4} conservatively fall back to PRAC-1.
fn prac_level(nmit: u8) -> u32 {
    match nmit {
        2 => 2,
        4 => 4,
        _ => 1,
    }
}

fn abo_model(p: &TrackerParams) -> PracModel {
    PracModel::prac(prac_level(p.nmit), p.nbo.max(1))
}

/// Tax of one proactive mitigation every `per_refs` tREFIs.
fn proactive_tax_pct(m: &PracModel, per_refs: u32) -> f64 {
    if per_refs == 0 {
        return 0.0;
    }
    100.0 * m.trfm_ns / (per_refs as f64 * m.trefi_ns)
}

/// Tax of one controller-scheduled RFM every `interval` ACTs at the
/// modeled peak activation rate.
fn periodic_tax_pct(m: &PracModel, interval: u32) -> f64 {
    let rfms_per_trefi = m.acts_per_trefi as f64 / interval.max(1) as f64;
    100.0 * rfms_per_trefi * m.trfm_ns / m.trefi_ns
}

fn sec_unmitigated(_p: &TrackerParams) -> SecurityEntry {
    SecurityEntry {
        secure_trh: None,
        trefi_tax_pct: 0.0,
    }
}

/// Reactive ABO designs: the §IV bound at (nmit, nbo); no guaranteed
/// steady-state tax (mitigation happens only under alert/RFM pressure).
pub(crate) fn sec_abo_reactive(p: &TrackerParams) -> SecurityEntry {
    SecurityEntry {
        secure_trh: Some(secure_trh(&abo_model(p))),
        trefi_tax_pct: 0.0,
    }
}

/// ABO designs with a proactive REF mitigation each
/// `proactive_per_refs` tREFIs.
pub(crate) fn sec_abo_proactive(p: &TrackerParams) -> SecurityEntry {
    let m = abo_model(p).with_proactive();
    SecurityEntry {
        secure_trh: Some(secure_trh(&m)),
        trefi_tax_pct: proactive_tax_pct(&m, p.proactive_per_refs),
    }
}

/// ABO designs with energy-aware proactive mitigation: same worst-case
/// tax bound as proactive (the threshold only reduces it).
fn sec_abo_proactive_ea(p: &TrackerParams) -> SecurityEntry {
    let m = abo_model(p).with_proactive_ea();
    SecurityEntry {
        secure_trh: Some(secure_trh(&m)),
        trefi_tax_pct: proactive_tax_pct(&m, p.proactive_per_refs),
    }
}

/// Rate-based designs: secure at exactly the T_RH their cadence was
/// calibrated for; the cadence is the tax.
fn sec_rate_based(cadence: fn(u32) -> u32) -> impl Fn(&TrackerParams) -> SecurityEntry {
    move |p: &TrackerParams| {
        let trh = p.trh.unwrap_or(RATE_BASED_DEFAULT_TRH);
        SecurityEntry {
            secure_trh: Some(trh as u64),
            trefi_tax_pct: periodic_tax_pct(&abo_model(p), cadence(trh)),
        }
    }
}

fn sec_mithril(p: &TrackerParams) -> SecurityEntry {
    sec_rate_based(mithril_interval)(p)
}

fn sec_pride(p: &TrackerParams) -> SecurityEntry {
    sec_rate_based(pride_interval)(p)
}

/// Default target threshold when a rate-based design is built without
/// an explicit `@<trh>` (registry-driven iteration, zoo table).
pub const RATE_BASED_DEFAULT_TRH: u32 = 512;

fn qprac_base(p: &TrackerParams) -> QpracConfig {
    QpracConfig::paper_default()
        .with_psq_size(p.psq_size)
        .with_proactive_per_refs(p.proactive_per_refs.max(1))
        .with_nbo(p.nbo)
}

fn ea_policy(p: &TrackerParams) -> ProactivePolicy {
    ProactivePolicy::EnergyAware {
        npro: (p.nbo / 2).max(1),
    }
}

/// All registered mitigation designs, in zoo-table order.
pub static REGISTRY: &[MitigationSpec] = &[
    MitigationSpec {
        stem: "none",
        label: "baseline",
        paper: "HPCA'25 §V (baseline)",
        knobs: "—",
        default_kind: MitigationKind::None,
        at_trh: None,
        inert: InertKnobs {
            nbo: true,
            nmit: true,
            psq: true,
            proactive: true,
            rfm: true,
            seed: true,
        },
        build: |_| Box::new(NoMitigation),
        periodic_rfm: None,
        security: sec_unmitigated,
    },
    MitigationSpec {
        stem: "qprac-noop",
        label: "QPRAC-NoOp",
        paper: "HPCA'25 §III-D1",
        knobs: "nbo, nmit, psq, pro, rfm",
        default_kind: MitigationKind::QpracNoOp,
        at_trh: None,
        inert: InertKnobs::SEED_ONLY,
        build: |p| {
            Box::new(Qprac::new(QpracConfig {
                opportunistic: false,
                ..qprac_base(p)
            }))
        },
        periodic_rfm: None,
        security: sec_abo_reactive,
    },
    MitigationSpec {
        stem: "qprac",
        label: "QPRAC",
        paper: "HPCA'25 §III",
        knobs: "nbo, nmit, psq, pro, rfm",
        default_kind: MitigationKind::Qprac,
        at_trh: None,
        inert: InertKnobs::SEED_ONLY,
        build: |p| Box::new(Qprac::new(qprac_base(p))),
        periodic_rfm: None,
        security: sec_abo_reactive,
    },
    MitigationSpec {
        stem: "qprac-pro",
        label: "QPRAC+Proactive",
        paper: "HPCA'25 §III-D2",
        knobs: "nbo, nmit, psq, pro, rfm",
        default_kind: MitigationKind::QpracProactive,
        at_trh: None,
        inert: InertKnobs::SEED_ONLY,
        build: |p| {
            Box::new(Qprac::new(QpracConfig {
                proactive: ProactivePolicy::EveryRef,
                ..qprac_base(p)
            }))
        },
        periodic_rfm: None,
        security: sec_abo_proactive,
    },
    MitigationSpec {
        stem: "qprac-pro-ea",
        label: "QPRAC+Proactive-EA",
        paper: "HPCA'25 §III-D2",
        knobs: "nbo, nmit, psq, pro, rfm",
        default_kind: MitigationKind::QpracProactiveEa,
        at_trh: None,
        inert: InertKnobs::SEED_ONLY,
        build: |p| {
            Box::new(Qprac::new(QpracConfig {
                proactive: ea_policy(p),
                ..qprac_base(p)
            }))
        },
        periodic_rfm: None,
        security: sec_abo_proactive_ea,
    },
    MitigationSpec {
        stem: "qprac-ideal",
        label: "QPRAC-Ideal",
        paper: "HPCA'25 §V (oracle)",
        knobs: "nbo, nmit, psq, pro, rfm",
        default_kind: MitigationKind::QpracIdeal,
        at_trh: None,
        inert: InertKnobs::SEED_ONLY,
        build: |p| {
            Box::new(QpracIdeal::new(QpracConfig {
                proactive: ea_policy(p),
                ..qprac_base(p)
            }))
        },
        periodic_rfm: None,
        security: sec_abo_proactive_ea,
    },
    MitigationSpec {
        stem: "moat",
        label: "MOAT",
        paper: "HPCA'25 §VII-A",
        knobs: "nbo, nmit, pro, rfm",
        default_kind: MitigationKind::Moat,
        at_trh: None,
        inert: InertKnobs {
            psq: true,
            ..InertKnobs::SEED_ONLY
        },
        build: |p| Box::new(Moat::new((p.nbo / 2).max(1), p.nbo, p.proactive_per_refs)),
        periodic_rfm: None,
        security: sec_abo_reactive,
    },
    MitigationSpec {
        stem: "mithril",
        label: "Mithril",
        paper: "HPCA'25 §VI-G",
        knobs: "trh, nbo, nmit, rfm",
        default_kind: MitigationKind::Mithril {
            trh: RATE_BASED_DEFAULT_TRH,
        },
        at_trh: Some(|trh| MitigationKind::Mithril { trh }),
        inert: InertKnobs {
            psq: true,
            proactive: true,
            ..InertKnobs::SEED_ONLY
        },
        build: |p| {
            Box::new(Mithril::new(mithril_entries(
                p.trh.unwrap_or(RATE_BASED_DEFAULT_TRH),
            )))
        },
        periodic_rfm: Some(mithril_interval),
        security: sec_mithril,
    },
    MitigationSpec {
        stem: "pride",
        label: "PrIDE",
        paper: "ISCA'24; HPCA'25 §VI-G",
        knobs: "trh, nbo, nmit, rfm, seed",
        default_kind: MitigationKind::Pride {
            trh: RATE_BASED_DEFAULT_TRH,
        },
        at_trh: Some(|trh| MitigationKind::Pride { trh }),
        inert: InertKnobs {
            psq: true,
            proactive: true,
            ..InertKnobs::ACTIVE
        },
        build: |p| Box::new(Pride::paper(p.seed ^ p.bank as u64)),
        periodic_rfm: Some(pride_interval),
        security: sec_pride,
    },
    practical::SPEC,
    cnc_prac::SPEC,
    loaded_dice::SPEC,
];

/// Look a kind's spec up in [`REGISTRY`]. Every [`MitigationKind`]
/// variant is registered, so this never fails.
pub fn spec_of(kind: MitigationKind) -> &'static MitigationSpec {
    let stem = kind.stem();
    REGISTRY
        .iter()
        .find(|s| s.stem == stem)
        .unwrap_or_else(|| unreachable!("unregistered mitigation kind {kind:?}"))
}

/// All registered designs, in zoo-table order.
pub fn registry() -> &'static [MitigationSpec] {
    REGISTRY
}

/// Render the README "Mitigation zoo" table from the registry, one row
/// per design at the paper-default parameter point.
///
/// ```
/// let table = mitigations::zoo_table();
/// for spec in mitigations::registry() {
///     assert!(table.contains(spec.label), "{} missing from zoo table", spec.label);
///     assert!(table.contains(spec.paper), "{} paper missing", spec.stem);
/// }
/// assert!(table.contains("| 120 |"), "QPRAC's 5x24-bit PSQ row missing:\n{table}");
/// ```
pub fn zoo_table() -> String {
    let mut out = String::from(
        "| design | token | paper | key fields | storage (bits/bank) | provable T_RH | tREFI tax |\n\
         |--------|-------|-------|------------|---------------------|---------------|-----------|\n",
    );
    for spec in REGISTRY {
        let p = TrackerParams::paper_default(spec.default_kind);
        let sec = (spec.security)(&p);
        let trh = sec
            .secure_trh
            .map_or_else(|| "—".to_string(), |t| t.to_string());
        out.push_str(&format!(
            "| {} | `{}` | {} | {} | {} | {} | {:.1}% |\n",
            spec.label,
            spec.default_kind.token(),
            spec.paper,
            spec.knobs,
            spec.storage_bits(&p),
            trh,
            sec.trefi_tax_pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<MitigationKind> {
        REGISTRY.iter().map(|s| s.default_kind).collect()
    }

    #[test]
    fn every_kind_is_registered_and_buildable() {
        for kind in all_kinds() {
            let spec = spec_of(kind);
            assert_eq!(spec.stem, kind.stem());
            let p = TrackerParams::paper_default(kind);
            let tracker = (spec.build)(&p);
            assert!(!tracker.name().is_empty());
        }
        assert_eq!(REGISTRY.len(), 12);
    }

    #[test]
    fn tokens_round_trip_through_parse() {
        for kind in all_kinds() {
            let token = kind.token();
            assert_eq!(parse_token(&token), Ok(kind), "token {token}");
        }
        // Explicit thresholds survive too.
        assert_eq!(
            parse_token("mithril@208"),
            Ok(MitigationKind::Mithril { trh: 208 })
        );
        assert_eq!(
            parse_token("pride@250"),
            Ok(MitigationKind::Pride { trh: 250 })
        );
    }

    #[test]
    fn unknown_stem_is_a_distinct_error() {
        match parse_token("hydra@512") {
            Err(TokenError::UnknownMitigation(t)) => assert_eq!(t, "hydra@512"),
            other => panic!("expected UnknownMitigation, got {other:?}"),
        }
        // Malformed tokens of *known* stems are Invalid, not Unknown.
        assert!(matches!(
            parse_token("mithril"),
            Err(TokenError::Invalid(_))
        ));
        assert!(matches!(
            parse_token("mithril@banana"),
            Err(TokenError::Invalid(_))
        ));
        assert!(matches!(
            parse_token("qprac@64"),
            Err(TokenError::Invalid(_))
        ));
    }

    /// Stems are unique and valid file-name tokens: the arena writes
    /// `compare_<stem>.csv` with the stem as it is.
    #[test]
    fn stems_are_unique() {
        for s in REGISTRY {
            assert!(
                !s.stem.is_empty()
                    && s.stem
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "stem {:?} is not [a-z0-9-]+",
                s.stem
            );
        }
        let mut stems: Vec<_> = REGISTRY.iter().map(|s| s.stem).collect();
        stems.sort_unstable();
        let n = stems.len();
        stems.dedup();
        assert_eq!(stems.len(), n, "duplicate registry stems");
    }

    #[test]
    fn storage_matches_paper_table_iv_anchors() {
        // QPRAC: 5 entries x (17 + 7) bits = 15 bytes per bank (§VI-F).
        let qprac = spec_of(MitigationKind::Qprac);
        let p = TrackerParams::paper_default(MitigationKind::Qprac);
        assert_eq!(qprac.storage_bits(&p), 120);
        // The baseline stores nothing.
        let none = spec_of(MitigationKind::None);
        assert_eq!(
            none.storage_bits(&TrackerParams::paper_default(MitigationKind::None)),
            0
        );
    }

    #[test]
    fn security_entries_match_paper_anchors() {
        // §I / §VI-D: QPRAC at N_BO = 32, PRAC-1 defends T_RH ≈ 71.
        let p = TrackerParams::paper_default(MitigationKind::Qprac);
        let sec = (spec_of(MitigationKind::Qprac).security)(&p);
        let trh = sec.secure_trh.unwrap();
        assert!((68..=74).contains(&trh), "QPRAC T_RH = {trh}");
        assert_eq!(sec.trefi_tax_pct, 0.0, "reactive designs tax nothing");
        // Proactive variants improve the bound and pay one RFM per REF:
        // 350 ns / 3900 ns ≈ 9%.
        let sec_pro = (spec_of(MitigationKind::QpracProactive).security)(&p);
        assert!(sec_pro.secure_trh.unwrap() <= trh);
        assert!((8.0..=10.0).contains(&sec_pro.trefi_tax_pct));
        // The baseline has no bound.
        let sec_none = (spec_of(MitigationKind::None).security)(&p);
        assert_eq!(sec_none.secure_trh, None);
        // Rate-based designs report their calibrated threshold, and a
        // denser cadence (Mithril) costs more than PrIDE's.
        let pm = TrackerParams::paper_default(MitigationKind::Mithril { trh: 512 });
        let sec_mith = (spec_of(MitigationKind::Mithril { trh: 512 }).security)(&pm);
        let pp = TrackerParams::paper_default(MitigationKind::Pride { trh: 512 });
        let sec_prid = (spec_of(MitigationKind::Pride { trh: 512 }).security)(&pp);
        assert_eq!(sec_mith.secure_trh, Some(512));
        assert_eq!(sec_prid.secure_trh, Some(512));
        assert!(sec_mith.trefi_tax_pct > sec_prid.trefi_tax_pct);
    }

    #[test]
    fn inert_seed_claims_match_tracker_factories() {
        // A design may claim the seed inert only if two trackers built
        // from different seeds behave identically. Drive both through a
        // deterministic activation pattern and compare the observable
        // behavior: alert state and the full RFM service sequence.
        use dram_core::{PracCounters, RfmContext, RowId};
        let ctx = RfmContext {
            alerting: true,
            alert_service: true,
        };
        for spec in REGISTRY.iter().filter(|s| s.inert.seed) {
            let mut a = (spec.build)(&TrackerParams {
                seed: 0xD5,
                ..TrackerParams::paper_default(spec.default_kind)
            });
            let mut b = (spec.build)(&TrackerParams {
                seed: 0x1234_5678,
                ..TrackerParams::paper_default(spec.default_kind)
            });
            for i in 0..200u32 {
                a.on_activate(RowId(i % 13), i % 31);
                b.on_activate(RowId(i % 13), i % 31);
            }
            assert_eq!(
                a.needs_alert(),
                b.needs_alert(),
                "{} claims seed-inert but alert state diverged",
                spec.stem
            );
            let mut c = PracCounters::new(16, false);
            for round in 0..40 {
                let (ra, rb) = (a.on_rfm(&mut c, ctx), b.on_rfm(&mut c, ctx));
                assert_eq!(ra, rb, "{} diverged at RFM {round}", spec.stem);
                if ra.is_none() {
                    break;
                }
            }
        }
    }
}

//! Stable run identity for the experiment-orchestration layer.
//!
//! A [`RunKey`] names one simulation cell ([`CellSpec`]) — a
//! `(SystemConfig, workload)` pair, a mix, a bandwidth-attack cell or an
//! attack-engine run — as a canonical text string. Two cells with the
//! same key are guaranteed to produce identical statistics, so the bench
//! runner simulates each key exactly once per suite (and, with
//! `QPRAC_RUN_CACHE`, once per cache lifetime).
//!
//! The canonical form spells every [`SystemConfig`] field in a fixed
//! order (the constructor destructures the struct, so adding a field is
//! a compile error here until the key learns about it), which makes the
//! key independent of how the config was built. Knobs that provably
//! cannot affect a run are normalized away — see [`canonical_config`] —
//! so e.g. the `MitigationKind::None` baselines of every sensitivity
//! sweep collapse onto one cell.

use attack_engine::EngineSpec;
use cpu_model::{WorkloadMix, WorkloadSpec};
use dram_core::{MappingScheme, RfmKind};
use mitigations::TokenError;

use crate::codec::CellResult;
use crate::config::SystemConfig;

/// Why a run key failed to parse.
///
/// [`KeyError::UnknownMitigation`] is the forward-compatibility case: a
/// peer (or a stale `.qbc` cache) minted the key with a design this
/// build does not register. Callers should treat it as a clean cache
/// miss / unserviceable cell — and count it — rather than as garbage
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// The key is well-formed but names an unregistered mitigation.
    UnknownMitigation(String),
    /// The key is structurally invalid or non-canonical.
    Malformed(String),
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::UnknownMitigation(token) => {
                write!(f, "unknown mitigation {token:?} in run key")
            }
            KeyError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for KeyError {}

impl From<String> for KeyError {
    fn from(msg: String) -> Self {
        KeyError::Malformed(msg)
    }
}

impl From<TokenError> for KeyError {
    fn from(e: TokenError) -> Self {
        match e {
            TokenError::UnknownMitigation(token) => KeyError::UnknownMitigation(token),
            TokenError::Invalid(msg) => KeyError::Malformed(msg),
        }
    }
}

/// Canonical identity of one cacheable simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey {
    text: String,
}

impl RunKey {
    /// Key for [`crate::run_workload`]: `cfg.cores` homogeneous copies
    /// of the named workload.
    pub fn workload(cfg: &SystemConfig, workload: &str) -> Self {
        RunKey {
            text: format!("workload:{workload};{}", canonical_config(cfg)),
        }
    }

    /// Key for [`crate::run_mix`]: the named heterogeneous mix.
    pub fn mix(cfg: &SystemConfig, mix: &str) -> Self {
        RunKey {
            text: format!("mix:{mix};{}", canonical_config(cfg)),
        }
    }

    /// Key for [`crate::run_bandwidth_attack`].
    pub fn attack(cfg: &SystemConfig, banks: usize, window: u64) -> Self {
        RunKey {
            text: format!(
                "attack:banks={banks}:window={window};{}",
                canonical_config(cfg)
            ),
        }
    }

    /// The canonical text form.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Stable 64-bit FNV-1a hash of the canonical text, used as the
    /// persistent-cache file stem.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Cache file stem: the FNV hash in hex.
    pub fn file_stem(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// Parse canonical key text received over the wire back into an
    /// executable [`CellSpec`].
    ///
    /// Only *canonical* text is accepted: the parsed spec must re-render
    /// to exactly the input (`CellSpec::key`), so a server and its
    /// clients can never disagree on cache identity. Any deviation — an
    /// unknown kind, workload or mix, a missing or reordered field, a
    /// non-normalized unmitigated config, engine parameters the attack
    /// cannot run — is an error, never a guess. A key naming a
    /// mitigation this build does not register gets the distinct
    /// [`KeyError::UnknownMitigation`] so peers can degrade gracefully.
    pub fn parse_text(text: &str) -> Result<CellSpec, KeyError> {
        let (kind, rest) = text
            .split_once(':')
            .ok_or_else(|| format!("malformed run key {text:?}: missing kind"))?;
        let spec = if kind == "engine" {
            CellSpec::Engine(parse_engine(rest)?)
        } else {
            let (head, cfg_text) = rest
                .split_once(';')
                .ok_or_else(|| format!("malformed {kind} key {text:?}: missing config"))?;
            let cfg = parse_config(cfg_text)?;
            match kind {
                "workload" => CellSpec::Workload {
                    cfg,
                    workload: WorkloadSpec::by_name(head)
                        .ok_or_else(|| format!("unknown workload {head:?}"))?,
                },
                "mix" => CellSpec::Mix {
                    cfg,
                    mix: WorkloadMix::by_name(head)
                        .ok_or_else(|| format!("unknown mix {head:?}"))?,
                },
                "attack" => {
                    let mut f = Fields(head.split(':'));
                    let (banks, window) = (f.num("banks")?, f.num("window")?);
                    f.end()?;
                    CellSpec::Attack { cfg, banks, window }
                }
                other => return Err(format!("unknown run-key kind {other:?}").into()),
            }
        };
        if spec.key().as_str() != text {
            return Err(KeyError::Malformed(format!(
                "non-canonical run key {text:?} (canonical form: {:?})",
                spec.key().as_str()
            )));
        }
        Ok(spec)
    }
}

/// One simulation cell: what a [`RunKey`] names, with its workload, mix
/// or attack already resolved. Every cell is fully described by its key
/// and can therefore run anywhere — in the bench pool, on a
/// `qprac-serve` shard — and be cached under that key.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSpec {
    /// [`crate::run_workload`]: `cfg.cores` homogeneous copies.
    Workload {
        /// Full system configuration.
        cfg: SystemConfig,
        /// Workload run on every core.
        workload: WorkloadSpec,
    },
    /// [`crate::run_mix`]: one heterogeneous mix.
    Mix {
        /// Full system configuration.
        cfg: SystemConfig,
        /// The mix (one workload per core slot).
        mix: WorkloadMix,
    },
    /// [`crate::run_bandwidth_attack`].
    Attack {
        /// Full system configuration.
        cfg: SystemConfig,
        /// Banks hammered simultaneously.
        banks: usize,
        /// Attack window in memory cycles.
        window: u64,
    },
    /// An activation-level attack-engine run ([`EngineSpec::run`]).
    Engine(EngineSpec),
}

impl CellSpec {
    /// The cell's global identity: equal keys are simulated once.
    pub fn key(&self) -> RunKey {
        match self {
            CellSpec::Workload { cfg, workload } => RunKey::workload(cfg, workload.name),
            CellSpec::Mix { cfg, mix } => RunKey::mix(cfg, mix.name),
            CellSpec::Attack { cfg, banks, window } => RunKey::attack(cfg, *banks, *window),
            CellSpec::Engine(spec) => RunKey {
                text: format!("engine:{}", engine_text(spec)),
            },
        }
    }

    /// Execute the cell. Cells from [`RunKey::parse_text`] always run;
    /// an engine cell built in code must pass [`EngineSpec::check`].
    pub fn run(&self) -> CellResult {
        match self {
            CellSpec::Workload { cfg, workload } => {
                CellResult::Stats(Box::new(crate::run_workload(cfg, workload)))
            }
            CellSpec::Mix { cfg, mix } => CellResult::Stats(Box::new(crate::run_mix(cfg, mix))),
            CellSpec::Attack { cfg, banks, window } => {
                CellResult::Attack(crate::run_bandwidth_attack(cfg, *banks, *window))
            }
            CellSpec::Engine(spec) => CellResult::Count(spec.run()),
        }
    }
}

impl From<EngineSpec> for CellSpec {
    fn from(spec: EngineSpec) -> Self {
        CellSpec::Engine(spec)
    }
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

fn rfm_token(k: RfmKind) -> &'static str {
    match k {
        RfmKind::AllBank => "ab",
        RfmKind::SameBank => "sb",
        RfmKind::PerBank => "pb",
    }
}

fn mapping_token(m: MappingScheme) -> &'static str {
    match m {
        MappingScheme::RowBankCol => "rbc",
        MappingScheme::MopXor => "mop-xor",
    }
}

/// Render a [`SystemConfig`] as a canonical `k=v;...` string.
///
/// Normalization: each design's registry entry declares which
/// tracker-side knobs it provably ignores (`MitigationSpec::inert`),
/// and those knobs are pinned to the paper defaults before rendering,
/// so sweeps over knobs a design cannot observe collapse onto one
/// cacheable cell. Under `MitigationKind::None` that is every tracker
/// knob (no tracker, no alert can ever fire), so all unmitigated
/// baselines map to one key; the deterministic ABO designs additionally
/// pin the probabilistic `seed` (consumed only by the seeded samplers
/// of PrIDE and Loaded Dice). `crates/sim/tests/run_cache.rs` proves
/// each flag differentially for the workload path (equal keys ⟹ equal
/// `RunStats`) and the bandwidth-attack path (equal keys ⟹ equal
/// `BwAttackStats`).
fn canonical_config(cfg: &SystemConfig) -> String {
    let inert = mitigations::spec_of(cfg.mitigation).inert;
    let mut c = cfg.clone();
    if inert.nbo {
        c.nbo = 32;
    }
    if inert.nmit {
        c.nmit = 1;
    }
    if inert.psq {
        c.psq_size = 5;
    }
    if inert.proactive {
        c.proactive_per_refs = 1;
    }
    if inert.rfm {
        c.alert_rfm_kind = RfmKind::AllBank;
    }
    if inert.seed {
        c.seed = 0xD5;
    }
    // Exhaustive destructure: a new SystemConfig field fails to compile
    // here until the canonical form accounts for it.
    let SystemConfig {
        cores,
        channels,
        instr_limit,
        mitigation,
        nbo,
        nmit,
        psq_size,
        proactive_per_refs,
        alert_rfm_kind,
        plain_timing,
        mapping,
        seed,
    } = c;
    format!(
        "cores={cores};channels={channels};instr={instr_limit};mit={};nbo={nbo};nmit={nmit};psq={psq_size};pro={proactive_per_refs};rfm={};plain={plain_timing};map={};seed={seed:#x}",
        mitigation.token(),
        rfm_token(alert_rfm_kind),
        mapping_token(mapping),
    )
}

/// Render an [`EngineSpec`] as `attack;k=v;...`, fields in
/// declaration order.
fn engine_text(spec: &EngineSpec) -> String {
    match *spec {
        EngineSpec::ToggleForget { queue, tbit } => {
            format!("toggle_forget;queue={queue};tbit={tbit}")
        }
        EngineSpec::FillEscape { queue, threshold } => {
            format!("fill_escape;queue={queue};threshold={threshold}")
        }
        EngineSpec::BlockedTbit { queue, tbit } => {
            format!("blocked_tbit;queue={queue};tbit={tbit}")
        }
        EngineSpec::Wave { nmit, nbo, psq, r1 } => {
            format!("wave;nmit={nmit};nbo={nbo};psq={psq};r1={r1}")
        }
    }
}

/// Parse the output of [`engine_text`], rejecting parameters the
/// attack cannot run ([`EngineSpec::check`]).
fn parse_engine(text: &str) -> Result<EngineSpec, KeyError> {
    let (attack, params) = text
        .split_once(';')
        .ok_or_else(|| format!("malformed engine key {text:?}: missing parameters"))?;
    let mut f = Fields(params.split(';'));
    let spec = match attack {
        "toggle_forget" => EngineSpec::ToggleForget {
            queue: f.num("queue")?,
            tbit: f.num("tbit")?,
        },
        "fill_escape" => EngineSpec::FillEscape {
            queue: f.num("queue")?,
            threshold: f.num("threshold")?,
        },
        "blocked_tbit" => EngineSpec::BlockedTbit {
            queue: f.num("queue")?,
            tbit: f.num("tbit")?,
        },
        "wave" => EngineSpec::Wave {
            nmit: f.num("nmit")?,
            nbo: f.num("nbo")?,
            psq: f.num("psq")?,
            r1: f.num("r1")?,
        },
        other => return Err(format!("unknown engine attack {other:?}").into()),
    };
    f.end()?;
    spec.check()?;
    Ok(spec)
}

/// Reader over `name=value` fields (`;`-separated, `:` between attack
/// parameters) that must appear in exactly the order asked for.
struct Fields<'a>(std::str::Split<'a, char>);

impl<'a> Fields<'a> {
    fn next(&mut self, name: &str) -> Result<&'a str, String> {
        let kv = self
            .0
            .next()
            .ok_or_else(|| format!("key truncated before field {name:?}"))?;
        kv.strip_prefix(name)
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| format!("expected field {name:?}, got {kv:?}"))
    }

    fn num<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.next(name)?;
        v.parse()
            .map_err(|e| format!("bad field {name}={v:?}: {e}"))
    }

    fn end(mut self) -> Result<(), String> {
        match self.0.next() {
            Some(extra) => Err(format!("trailing field {extra:?}")),
            None => Ok(()),
        }
    }
}

/// Parse the output of [`canonical_config`] back into a
/// [`SystemConfig`]. Field order, count and spelling must match the
/// canonical form exactly (the caller additionally verifies the
/// re-rendered key equals the input, so normalization violations are
/// caught there).
fn parse_config(text: &str) -> Result<SystemConfig, KeyError> {
    let mut f = Fields(text.split(';'));
    let cores = f.num("cores")?;
    let channels = f.num("channels")?;
    let instr_limit = f.num("instr")?;
    let mitigation = mitigations::parse_token(f.next("mit")?)?;
    let nbo = f.num("nbo")?;
    let nmit = f.num("nmit")?;
    let psq_size = f.num("psq")?;
    let proactive_per_refs = f.num("pro")?;
    let alert_rfm_kind = match f.next("rfm")? {
        "ab" => RfmKind::AllBank,
        "sb" => RfmKind::SameBank,
        "pb" => RfmKind::PerBank,
        other => return Err(format!("unknown rfm token {other:?}").into()),
    };
    let plain_timing = match f.next("plain")? {
        "true" => true,
        "false" => false,
        other => return Err(format!("bad plain flag {other:?}").into()),
    };
    let mapping = match f.next("map")? {
        "rbc" => MappingScheme::RowBankCol,
        "mop-xor" => MappingScheme::MopXor,
        other => return Err(format!("unknown mapping token {other:?}").into()),
    };
    let seed_text = f.next("seed")?;
    let seed = seed_text
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad seed {seed_text:?}"))?;
    f.end()?;
    Ok(SystemConfig {
        cores,
        channels,
        instr_limit,
        mitigation,
        nbo,
        nmit,
        psq_size,
        proactive_per_refs,
        alert_rfm_kind,
        plain_timing,
        mapping,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MitigationKind;

    fn wave(nmit: u32, nbo: u32, psq: usize, r1: u64) -> EngineSpec {
        EngineSpec::Wave { nmit, nbo, psq, r1 }
    }

    /// One key per [`EngineSpec`] variant.
    fn engine_keys() -> Vec<RunKey> {
        [
            EngineSpec::ToggleForget { queue: 4, tbit: 6 },
            EngineSpec::FillEscape {
                queue: 64,
                threshold: 4096,
            },
            EngineSpec::BlockedTbit {
                queue: 16,
                tbit: 12,
            },
            wave(1, 32, 5, 200),
        ]
        .map(|e| CellSpec::Engine(e).key())
        .to_vec()
    }

    #[test]
    fn builder_order_does_not_change_the_key() {
        let a = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_nbo(64)
            .with_psq_size(3);
        let b = SystemConfig::paper_default()
            .with_psq_size(3)
            .with_nbo(64)
            .with_mitigation(MitigationKind::Qprac);
        assert_eq!(
            RunKey::workload(&a, "ycsb/a_like"),
            RunKey::workload(&b, "ycsb/a_like")
        );
    }

    #[test]
    fn every_swept_knob_changes_the_key() {
        let base = SystemConfig::paper_default().with_mitigation(MitigationKind::Qprac);
        let key = |c: &SystemConfig| RunKey::workload(c, "ycsb/a_like");
        let variants = [
            base.clone().with_nbo(64),
            base.clone().with_nmit(2),
            base.clone().with_psq_size(3),
            base.clone().with_proactive_per_refs(4),
            base.clone().with_channels(2),
            base.clone().with_instruction_limit(1),
            base.clone().with_alert_rfm_kind(RfmKind::PerBank),
            base.clone().with_mitigation(MitigationKind::QpracProactive),
            base.clone()
                .with_mitigation(MitigationKind::Mithril { trh: 128 }),
            base.clone()
                .with_mitigation(MitigationKind::Mithril { trh: 256 }),
            SystemConfig {
                plain_timing: true,
                ..base.clone()
            },
            // The seed is live only for the seeded probabilistic
            // designs; sweep it on one of those (the default-seed
            // variant below proves the distinction comes from the
            // seed itself, not the mitigation token).
            base.clone()
                .with_mitigation(MitigationKind::Pride { trh: 128 }),
            SystemConfig {
                seed: 7,
                ..base
                    .clone()
                    .with_mitigation(MitigationKind::Pride { trh: 128 })
            },
            SystemConfig {
                cores: 2,
                ..base.clone()
            },
            SystemConfig {
                mapping: MappingScheme::RowBankCol,
                ..base.clone()
            },
        ];
        let mut keys: Vec<RunKey> = variants.iter().map(key).collect();
        keys.push(key(&base));
        keys.push(RunKey::workload(&base, "ycsb/b_like"));
        keys.push(RunKey::mix(&base, "ycsb/a_like"));
        keys.push(RunKey::attack(&base, 8, 1000));
        let engines = [
            EngineSpec::ToggleForget { queue: 4, tbit: 6 },
            EngineSpec::ToggleForget { queue: 4, tbit: 7 },
            EngineSpec::FillEscape {
                queue: 4,
                threshold: 64,
            },
            EngineSpec::FillEscape {
                queue: 8,
                threshold: 64,
            },
            EngineSpec::BlockedTbit { queue: 4, tbit: 6 },
            EngineSpec::BlockedTbit { queue: 16, tbit: 6 },
            wave(1, 32, 5, 200),
            wave(2, 32, 5, 200),
            wave(1, 64, 5, 200),
            wave(1, 32, 4, 200),
            wave(1, 32, 5, 1000),
        ];
        keys.extend(engines.map(|e| CellSpec::Engine(e).key()));
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "keys must be pairwise distinct");
    }

    #[test]
    fn unmitigated_baselines_collapse_regardless_of_tracker_knobs() {
        let a = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::None)
            .with_nbo(128)
            .with_nmit(4)
            .with_psq_size(1)
            .with_proactive_per_refs(4)
            .with_alert_rfm_kind(RfmKind::PerBank);
        let b = SystemConfig::paper_default().with_mitigation(MitigationKind::None);
        assert_eq!(
            RunKey::workload(&a, "ycsb/a_like"),
            RunKey::workload(&b, "ycsb/a_like")
        );
        // ... but non-tracker knobs still differentiate baselines.
        let c = b.clone().with_channels(2);
        assert_ne!(
            RunKey::workload(&b, "ycsb/a_like"),
            RunKey::workload(&c, "ycsb/a_like")
        );
    }

    #[test]
    fn mitigated_runs_never_normalize() {
        let a = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_nbo(64);
        let b = SystemConfig::paper_default().with_mitigation(MitigationKind::Qprac);
        assert_ne!(
            RunKey::workload(&a, "ycsb/a_like"),
            RunKey::workload(&b, "ycsb/a_like")
        );
    }

    #[test]
    fn every_key_kind_parses_back_to_an_equal_spec() {
        let base = SystemConfig::paper_default();
        let configs = [
            base.clone(),
            base.clone().with_mitigation(MitigationKind::None),
            base.clone()
                .with_mitigation(MitigationKind::Mithril { trh: 333 })
                .with_channels(4),
            SystemConfig {
                plain_timing: true,
                mapping: MappingScheme::RowBankCol,
                seed: 0xDEAD_BEEF,
                ..base
                    .clone()
                    .with_mitigation(MitigationKind::Pride { trh: 500 })
            },
        ];
        let mut keys = Vec::new();
        for cfg in &configs {
            keys.push(RunKey::workload(cfg, "ycsb/a_like"));
            keys.push(RunKey::mix(cfg, "mix/hot_quad"));
            keys.push(RunKey::attack(cfg, 8, 123_456));
        }
        keys.extend(engine_keys());
        for key in keys {
            let spec = RunKey::parse_text(key.as_str())
                .unwrap_or_else(|e| panic!("{key} failed to parse: {e}"));
            assert_eq!(spec.key(), key, "parse/render must round-trip");
        }
    }

    #[test]
    fn parsed_workload_spec_executes_like_run_workload() {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_instruction_limit(300);
        let key = RunKey::workload(&cfg, "ycsb/a_like");
        let spec = RunKey::parse_text(key.as_str()).unwrap();
        let via_spec = spec.run();
        let direct = crate::run_workload(
            &cfg,
            &cpu_model::WorkloadSpec::by_name("ycsb/a_like").unwrap(),
        );
        assert_eq!(via_spec, CellResult::Stats(Box::new(direct)));
    }

    #[test]
    fn malformed_and_non_canonical_keys_are_rejected() {
        // Structural garbage.
        assert!(RunKey::parse_text("").is_err());
        assert!(RunKey::parse_text("bogus:x;y").is_err());
        assert!(RunKey::parse_text("workload:ycsb/a_like").is_err());
        assert!(RunKey::parse_text("attack:banks=8;cores=4").is_err());
        // Valid structure, wrong field spelling / truncated config.
        let good = RunKey::workload(&SystemConfig::paper_default(), "ycsb/a_like");
        assert!(RunKey::parse_text(&good.as_str().replace("nbo=", "nbq=")).is_err());
        let truncated = good.as_str().rsplit_once(';').unwrap().0;
        assert!(RunKey::parse_text(truncated).is_err());
        // Canonical-form violation: an unmitigated config whose tracker
        // knobs were not normalized must be rejected, not re-keyed.
        let swept = RunKey::workload(
            &SystemConfig::paper_default()
                .with_mitigation(MitigationKind::Qprac)
                .with_nbo(64),
            "ycsb/a_like",
        );
        let non_canonical = swept.as_str().replace("mit=qprac;", "mit=none;");
        assert!(RunKey::parse_text(&non_canonical)
            .unwrap_err()
            .to_string()
            .contains("non-canonical"));
        // Unknown names are rejected at parse time.
        let ghost = RunKey::workload(&SystemConfig::paper_default(), "nope/nope");
        let err = RunKey::parse_text(ghost.as_str()).unwrap_err();
        assert!(err.to_string().contains("unknown workload"), "{err}");
        let ghost = RunKey::mix(&SystemConfig::paper_default(), "mix/nope");
        let err = RunKey::parse_text(ghost.as_str()).unwrap_err();
        assert!(err.to_string().contains("unknown mix"), "{err}");
        // Engine keys: garbage, missing, reordered, extra and
        // non-canonical fields, and every parameter the attack functions
        // would panic on or that lies far outside the figures' grids.
        for bad in [
            "engine:probe",
            "engine:probe;queue=4;tbit=6",
            "engine:wave:nmit=1:nbo=32:r1=200",
            "engine:wave;nmit=1;nbo=32;r1=200",
            "engine:wave;nbo=32;nmit=1;psq=5;r1=200",
            "engine:wave;nmit=1;nbo=32;psq=5;r1=200;seed=1",
            "engine:wave;nmit=1;nbo=32;psq=05;r1=200",
            "engine:wave;nmit=1;nbo=32;psq=5;r1=-1",
            "engine:toggle_forget;tbit=6;queue=4",
            "engine:wave;nmit=3;nbo=32;psq=5;r1=200",
            "engine:wave;nmit=8;nbo=32;psq=5;r1=200",
            "engine:wave;nmit=1;nbo=32;psq=5;r1=13108",
            "engine:wave;nmit=1;nbo=32;psq=5;r1=0",
            "engine:wave;nmit=1;nbo=0;psq=5;r1=200",
            "engine:wave;nmit=1;nbo=100000;psq=5;r1=200",
            "engine:wave;nmit=1;nbo=32;psq=0;r1=200",
            "engine:wave;nmit=1;nbo=32;psq=1000;r1=200",
            "engine:toggle_forget;queue=0;tbit=6",
            "engine:toggle_forget;queue=4;tbit=0",
            "engine:toggle_forget;queue=4;tbit=32",
            "engine:toggle_forget;queue=100000;tbit=6",
            "engine:fill_escape;queue=0;threshold=64",
            "engine:fill_escape;queue=4;threshold=32",
            "engine:fill_escape;queue=4;threshold=1000000",
            "engine:blocked_tbit;queue=0;tbit=6",
            "engine:blocked_tbit;queue=4;tbit=40",
        ] {
            assert!(
                matches!(RunKey::parse_text(bad), Err(KeyError::Malformed(_))),
                "{bad} must be rejected"
            );
        }
        // The largest pool that fits the bank is accepted.
        assert!(RunKey::parse_text("engine:wave;nmit=1;nbo=32;psq=5;r1=13107").is_ok());
    }

    #[test]
    fn parsed_engine_spec_runs_like_the_attack_function() {
        use attack_engine::engine::EngineConfig;
        use attack_engine::{blocked_tbit, fill_escape, toggle_forget, wave};
        use qprac::{Qprac, QpracConfig};
        let run = |text: &str| RunKey::parse_text(text).unwrap().run();
        assert_eq!(
            run("engine:toggle_forget;queue=4;tbit=10"),
            CellResult::Count(toggle_forget::run(4, 10).target_unmitigated as u64)
        );
        assert_eq!(
            run("engine:fill_escape;queue=64;threshold=4096"),
            CellResult::Count(fill_escape::run(64, 4096).target_unmitigated as u64)
        );
        assert_eq!(
            run("engine:blocked_tbit;queue=64;tbit=12"),
            CellResult::Count(blocked_tbit::run(64, 12).target_unmitigated as u64)
        );
        let tracker = Qprac::new(QpracConfig::paper_default().with_nbo(16).with_psq_size(3));
        let direct =
            wave::run_with_setup(EngineConfig::paper_default(2), Box::new(tracker), 40, 15);
        assert_eq!(
            run("engine:wave;nmit=2;nbo=16;psq=3;r1=40"),
            CellResult::Count(direct.max_unmitigated as u64)
        );
    }

    #[test]
    fn unknown_mitigation_is_a_distinct_clean_error() {
        // A key minted by a build that registers a design this build
        // does not know must fail with the dedicated variant (so peers
        // can count it and degrade gracefully), not as garbage.
        let good = RunKey::workload(
            &SystemConfig::paper_default().with_mitigation(MitigationKind::Qprac),
            "ycsb/a_like",
        );
        let future = good.as_str().replace("mit=qprac;", "mit=hydra-prac;");
        match RunKey::parse_text(&future) {
            Err(KeyError::UnknownMitigation(token)) => assert_eq!(token, "hydra-prac"),
            other => panic!("expected UnknownMitigation, got {other:?}"),
        }
        // A known stem with a malformed suffix is Malformed, not
        // UnknownMitigation.
        let bad_trh = good.as_str().replace("mit=qprac;", "mit=mithril@lots;");
        assert!(matches!(
            RunKey::parse_text(&bad_trh),
            Err(KeyError::Malformed(_))
        ));
    }

    #[test]
    fn every_registered_mitigation_round_trips_through_its_key() {
        // Registry-driven: any design added to the zoo automatically
        // gets parse/render coverage here.
        for spec in mitigations::registry() {
            let cfg = SystemConfig::paper_default().with_mitigation(spec.default_kind);
            for key in [
                RunKey::workload(&cfg, "ycsb/a_like"),
                RunKey::attack(&cfg, 8, 123_456),
            ] {
                let parsed = RunKey::parse_text(key.as_str())
                    .unwrap_or_else(|e| panic!("{key} failed to parse: {e}"));
                assert_eq!(parsed.key(), key, "round-trip failed for {}", spec.stem);
            }
        }
    }

    #[test]
    fn file_stem_is_stable_hex() {
        let k = RunKey::parse_text("engine:wave;nmit=1;nbo=32;psq=5;r1=200")
            .unwrap()
            .key();
        assert_eq!(k.file_stem(), format!("{:016x}", k.hash()));
        assert_eq!(k.file_stem().len(), 16);
        // Pin one hash value so a persisted cache written by an earlier
        // build stays addressable across releases.
        assert_eq!(k.hash(), 9_392_734_972_138_381_317);
    }
}

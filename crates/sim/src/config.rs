//! Full-system configuration: which mitigation runs where, with which
//! PRAC parameters (paper §V "Evaluated Designs" and Table II).

use dram_core::{DramConfig, InDramMitigation, MappingScheme, RfmKind, Timing, TimingNs};
use mem_ctrl::McConfig;
use mitigations::TrackerParams;

// The kind enum and its per-design table live in the `mitigations`
// registry; the simulator re-exports the enum so existing call sites
// (`sim::MitigationKind`) keep working.
pub use mitigations::MitigationKind;

/// Full-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (paper: 4 homogeneous copies).
    pub cores: usize,
    /// Independent memory channels, each with its own controller, DRAM
    /// device and PRAC trackers (paper: 1). Must be a power of two; the
    /// address mapper interleaves line addresses across channels.
    pub channels: usize,
    /// Instructions each core must retire before the run ends.
    pub instr_limit: u64,
    /// Hosted mitigation.
    pub mitigation: MitigationKind,
    /// Back-Off threshold.
    pub nbo: u32,
    /// RFMs per alert (PRAC level).
    pub nmit: u8,
    /// PSQ entries per bank.
    pub psq_size: usize,
    /// Proactive cadence in REFs (1 = every REF). For MOAT, 0 disables
    /// proactive mitigation.
    pub proactive_per_refs: u32,
    /// RFM kind used to service alerts (Fig 19).
    pub alert_rfm_kind: RfmKind,
    /// Use plain (non-PRAC) DDR5 timings — the paper's Fig 20 setting
    /// for Mithril and PrIDE.
    pub plain_timing: bool,
    /// Address interleaving.
    pub mapping: MappingScheme,
    /// Seed for workload generation and probabilistic trackers.
    pub seed: u64,
}

/// Read a `u64` simulation knob from the environment, falling back to
/// `default` when the variable is unset. A variable that is *set but
/// unparsable* also falls back, but prints one greppable `warning:`
/// line — a silently ignored `QPRAC_INSTR=10k` once cost a full wrong
/// sweep. Shared by every `QPRAC_*` knob (the examples and the bench
/// binaries) so the fallback policy lives in one place.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let (value, warning) = numeric_value(name, &v, default);
            if let Some(warning) = warning {
                qprac_obs::warn!("{warning}");
            }
            value
        }
        Err(_) => default,
    }
}

/// [`env_u64`] for `usize` knobs (`QPRAC_JOBS`, LRU capacities).
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => {
            let (value, warning) = numeric_value(name, &v, default);
            if let Some(warning) = warning {
                qprac_obs::warn!("{warning}");
            }
            value
        }
        Err(_) => default,
    }
}

/// The value-parsing half of [`env_u64`] / [`env_usize`], split out so
/// the warning semantics are unit-testable without mutating process
/// environment (same pattern as [`flag_value_enables`]). Returns the
/// parsed value plus the warning line to print, if any.
pub(crate) fn numeric_value<T>(name: &str, value: &str, default: T) -> (T, Option<String>)
where
    T: std::str::FromStr + std::fmt::Display,
{
    match value.parse() {
        Ok(v) => (v, None),
        Err(_) => {
            let warning =
                format!("warning: ignoring unparsable {name}={value:?}; using default {default}");
            (default, Some(warning))
        }
    }
}

/// Read an optional string knob: unset, empty, or the literal `"0"` all
/// mean *off* (`None`), mirroring [`env_flag`]'s disable semantics so
/// `QPRAC_REMOTE=0` reliably turns the remote backend off. Any other
/// value is returned verbatim.
pub fn env_opt(name: &str) -> Option<String> {
    std::env::var(name).ok().and_then(opt_value)
}

/// The value-parsing half of [`env_opt`], split out so the
/// unset/empty/`"0"` semantics are unit-testable without mutating
/// process environment.
pub(crate) fn opt_value(value: String) -> Option<String> {
    if flag_value_enables(&value) {
        Some(value)
    } else {
        None
    }
}

/// Read a directory knob with the run-cache convention: unset, empty or
/// `"0"` disable it (`None`); `"1"`/`"true"` select `default`; any other
/// value is the directory itself. `QPRAC_RUN_CACHE` (the bench runner
/// and `qprac-serve`'s disk tier) goes through this helper.
pub fn env_dir(name: &str, default: &str) -> Option<std::path::PathBuf> {
    std::env::var(name).ok().and_then(|v| dir_value(v, default))
}

/// The value-parsing half of [`env_dir`].
pub(crate) fn dir_value(value: String, default: &str) -> Option<std::path::PathBuf> {
    let value = opt_value(value)?;
    if value == "1" || value.eq_ignore_ascii_case("true") {
        Some(std::path::PathBuf::from(default))
    } else {
        Some(std::path::PathBuf::from(value))
    }
}

/// Read a boolean flag from the environment: set to anything except the
/// empty string or `"0"` means *on*; unset, empty or `"0"` means *off*.
///
/// Every `QPRAC_*` on/off switch (`QPRAC_NO_FASTFORWARD`,
/// `QPRAC_FULL_SUITE`) goes through this helper; a bare
/// `env::var(..).is_ok()` would treat `FLAG=0` as enabled, which has
/// bitten twice now.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| flag_value_enables(&v))
}

/// The value-parsing half of [`env_flag`], split out so the semantics
/// are unit-testable without mutating process environment.
pub(crate) fn flag_value_enables(value: &str) -> bool {
    !value.is_empty() && value != "0"
}

impl SystemConfig {
    /// Paper defaults: 4 cores, N_BO = 32, PRAC-1, 5-entry PSQ, RFMab,
    /// QPRAC+Proactive-EA. The instruction limit defaults to 100 K per
    /// core and can be overridden with the `QPRAC_INSTR` environment
    /// variable (README "Reproducing the paper" gives the scaling
    /// argument).
    pub fn paper_default() -> Self {
        let instr = env_u64("QPRAC_INSTR", 100_000);
        SystemConfig {
            cores: 4,
            channels: 1,
            instr_limit: instr,
            mitigation: MitigationKind::QpracProactiveEa,
            nbo: 32,
            nmit: 1,
            psq_size: 5,
            proactive_per_refs: 1,
            alert_rfm_kind: RfmKind::AllBank,
            plain_timing: false,
            mapping: MappingScheme::MopXor,
            seed: 0xD5,
        }
    }

    /// Select the mitigation.
    pub fn with_mitigation(mut self, m: MitigationKind) -> Self {
        self.mitigation = m;
        self
    }

    /// Set the memory-channel count (power of two).
    pub fn with_channels(mut self, channels: usize) -> Self {
        assert!(
            channels >= 1 && channels.is_power_of_two() && channels <= u8::MAX as usize,
            "channel count must be a power of two in 1..=128, got {channels}"
        );
        self.channels = channels;
        self
    }

    /// Set the Back-Off threshold.
    pub fn with_nbo(mut self, nbo: u32) -> Self {
        self.nbo = nbo;
        self
    }

    /// Set the PRAC level (RFMs per alert).
    pub fn with_nmit(mut self, nmit: u8) -> Self {
        self.nmit = nmit;
        self
    }

    /// Set the PSQ size.
    pub fn with_psq_size(mut self, n: usize) -> Self {
        self.psq_size = n;
        self
    }

    /// Set the proactive cadence.
    pub fn with_proactive_per_refs(mut self, k: u32) -> Self {
        self.proactive_per_refs = k;
        self
    }

    /// Set the per-core instruction limit.
    pub fn with_instruction_limit(mut self, n: u64) -> Self {
        self.instr_limit = n;
        self
    }

    /// Set the alert RFM kind.
    pub fn with_alert_rfm_kind(mut self, k: RfmKind) -> Self {
        self.alert_rfm_kind = k;
        self
    }

    /// Build the DRAM configuration implied by this system config.
    pub fn dram_config(&self) -> DramConfig {
        let mut cfg = DramConfig::paper_default();
        cfg.channels = self.channels as u8;
        cfg.prac = cfg.prac.with_nbo(self.nbo).with_nmit(self.nmit);
        if self.plain_timing {
            cfg.timing = Timing::from_ns(&TimingNs::ddr5_plain(), cfg.freq_mhz);
        }
        cfg
    }

    /// Build the memory-controller configuration (periodic RFM cadence
    /// for the rate-based baselines, read off the mitigation registry).
    pub fn mc_config(&self) -> McConfig {
        let spec = mitigations::spec_of(self.mitigation);
        let periodic = match (spec.periodic_rfm, self.mitigation.trh()) {
            (Some(cadence), Some(trh)) => Some(cadence(trh)),
            _ => None,
        };
        McConfig {
            alert_rfm_kind: self.alert_rfm_kind,
            periodic_rfm_interval: periodic,
            ..McConfig::default()
        }
    }

    /// The registry-facing view of this config's tracker parameters.
    pub fn tracker_params(&self, bank: usize) -> TrackerParams {
        TrackerParams {
            nbo: self.nbo,
            nmit: self.nmit,
            psq_size: self.psq_size,
            proactive_per_refs: self.proactive_per_refs,
            trh: self.mitigation.trh(),
            seed: self.seed,
            bank,
        }
    }

    /// Build one tracker for bank `bank` (deterministic per bank/seed)
    /// through the hosted design's registry factory.
    pub fn make_tracker(&self, bank: usize) -> Box<dyn InDramMitigation> {
        (mitigations::spec_of(self.mitigation).build)(&self.tracker_params(bank))
    }

    /// Short label for experiment output.
    pub fn mitigation_label(&self) -> &'static str {
        mitigations::spec_of(self.mitigation).label
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table_i_and_ii() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.cores, 4);
        assert_eq!(c.channels, 1);
        assert_eq!(c.nbo, 32);
        assert_eq!(c.nmit, 1);
        assert_eq!(c.psq_size, 5);
        let d = c.dram_config();
        assert_eq!(d.channels, 1);
        assert_eq!(d.prac.nbo, 32);
        assert_eq!(d.num_banks(), 64);
    }

    #[test]
    fn channels_propagate_to_dram_config() {
        let c = SystemConfig::paper_default().with_channels(4);
        assert_eq!(c.dram_config().channels, 4);
        assert_eq!(c.dram_config().total_capacity_bytes(), 256 << 30);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn channel_count_must_be_power_of_two() {
        let _ = SystemConfig::paper_default().with_channels(3);
    }

    #[test]
    fn flag_semantics_off_for_empty_and_zero() {
        // The bug class this pins: `env::var(..).is_ok()` treats
        // `FLAG=0` as enabled. `env_flag` must not.
        assert!(!flag_value_enables(""));
        assert!(!flag_value_enables("0"));
        assert!(flag_value_enables("1"));
        assert!(flag_value_enables("true"));
        assert!(flag_value_enables("00")); // only the literal "0" disables
    }

    #[test]
    fn opt_value_semantics_match_env_flag() {
        // The whole helper family shares one disable convention:
        // unset/empty/"0" = off. `QPRAC_REMOTE=0` must not be read as a
        // host named "0".
        assert_eq!(opt_value(String::new()), None);
        assert_eq!(opt_value("0".into()), None);
        assert_eq!(opt_value("host:7117".into()), Some("host:7117".into()));
        assert_eq!(opt_value("00".into()), Some("00".into()));
    }

    #[test]
    fn dir_value_semantics() {
        use std::path::PathBuf;
        let d = "target/qprac-run-cache";
        assert_eq!(dir_value(String::new(), d), None);
        assert_eq!(dir_value("0".into(), d), None);
        assert_eq!(dir_value("1".into(), d), Some(PathBuf::from(d)));
        assert_eq!(dir_value("true".into(), d), Some(PathBuf::from(d)));
        assert_eq!(dir_value("TRUE".into(), d), Some(PathBuf::from(d)));
        assert_eq!(dir_value("/tmp/c".into(), d), Some(PathBuf::from("/tmp/c")));
    }

    #[test]
    fn env_opt_and_dir_read_process_environment() {
        // Unique variable names so parallel tests cannot race on them.
        assert_eq!(env_opt("QPRAC_TEST_OPT_UNSET_XYZZY"), None);
        std::env::set_var("QPRAC_TEST_OPT_ZERO_XYZZY", "0");
        assert_eq!(env_opt("QPRAC_TEST_OPT_ZERO_XYZZY"), None);
        std::env::set_var("QPRAC_TEST_OPT_SET_XYZZY", "1.2.3.4:9");
        assert_eq!(
            env_opt("QPRAC_TEST_OPT_SET_XYZZY"),
            Some("1.2.3.4:9".into())
        );
        assert_eq!(env_dir("QPRAC_TEST_DIR_UNSET_XYZZY", "d"), None);
        std::env::set_var("QPRAC_TEST_DIR_ONE_XYZZY", "1");
        assert_eq!(
            env_dir("QPRAC_TEST_DIR_ONE_XYZZY", "d"),
            Some(std::path::PathBuf::from("d"))
        );
        std::env::set_var("QPRAC_TEST_USIZE_XYZZY", "17");
        assert_eq!(env_usize("QPRAC_TEST_USIZE_XYZZY", 3), 17);
        assert_eq!(env_usize("QPRAC_TEST_USIZE_UNSET_XYZZY", 3), 3);
    }

    #[test]
    fn env_flag_reads_process_environment() {
        // Unique variable names so parallel tests cannot race on them;
        // no test elsewhere reads these.
        assert!(!env_flag("QPRAC_TEST_FLAG_UNSET_XYZZY"));
        std::env::set_var("QPRAC_TEST_FLAG_ZERO_XYZZY", "0");
        assert!(!env_flag("QPRAC_TEST_FLAG_ZERO_XYZZY"));
        std::env::set_var("QPRAC_TEST_FLAG_ON_XYZZY", "1");
        assert!(env_flag("QPRAC_TEST_FLAG_ON_XYZZY"));
    }

    #[test]
    fn rate_based_kinds_set_periodic_rfms() {
        let c = SystemConfig::paper_default().with_mitigation(MitigationKind::Pride { trh: 250 });
        let interval = c.mc_config().periodic_rfm_interval.unwrap();
        assert!((8..=12).contains(&interval), "PrIDE@250 -> {interval}");
        let c = SystemConfig::paper_default().with_mitigation(MitigationKind::Qprac);
        assert!(c.mc_config().periodic_rfm_interval.is_none());
    }

    #[test]
    fn tracker_factory_builds_each_registered_kind() {
        // Iterate the registry instead of a hand-listed variant array:
        // a design added to the registry is covered here automatically.
        for spec in mitigations::registry() {
            let c = SystemConfig::paper_default().with_mitigation(spec.default_kind);
            let t = c.make_tracker(0);
            assert!(!t.name().is_empty(), "{} built no tracker", spec.stem);
            assert_eq!(c.mitigation_label(), spec.label);
        }
    }

    #[test]
    fn numeric_value_warns_once_on_unparsable_input() {
        // Satellite fix: a set-but-unparsable knob must not silently
        // fall back — it produces one greppable `warning:` line.
        let (v, warning) = numeric_value("QPRAC_INSTR", "10k", 100_000u64);
        assert_eq!(v, 100_000);
        let warning = warning.expect("unparsable value must warn");
        assert!(warning.starts_with("warning: "), "{warning}");
        assert!(warning.contains("QPRAC_INSTR"), "{warning}");
        assert!(warning.contains("\"10k\""), "{warning}");
        assert!(warning.contains("100000"), "{warning}");
        // Parsable values pass through silently...
        assert_eq!(numeric_value("QPRAC_INSTR", "2000", 7u64), (2000, None));
        // ... including usize knobs, and edge garbage still warns.
        assert_eq!(numeric_value("QPRAC_JOBS", "4", 1usize), (4, None));
        let (v, warning) = numeric_value("QPRAC_JOBS", "", 3usize);
        assert_eq!((v, warning.is_some()), (3, true));
        let (v, warning) = numeric_value("QPRAC_INSTR", "-5", 9u64);
        assert_eq!((v, warning.is_some()), (9, true));
    }

    #[test]
    fn env_numeric_reads_process_environment() {
        std::env::set_var("QPRAC_TEST_U64_BAD_XYZZY", "not-a-number");
        assert_eq!(env_u64("QPRAC_TEST_U64_BAD_XYZZY", 41), 41);
        std::env::set_var("QPRAC_TEST_U64_OK_XYZZY", "42");
        assert_eq!(env_u64("QPRAC_TEST_U64_OK_XYZZY", 41), 42);
        assert_eq!(env_u64("QPRAC_TEST_U64_UNSET_XYZZY", 41), 41);
    }

    #[test]
    fn mithril_tracker_capacity_tracks_trh() {
        // Regression: `Mithril { trh }` used to discard `trh` and build
        // a fixed 5,300-entry CAM. Capacity is observable through the
        // tracker's storage cost (bits = entries x entry width).
        let small = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Mithril { trh: 1024 })
            .make_tracker(0);
        let large = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Mithril { trh: 128 })
            .make_tracker(0);
        assert!(
            large.storage_bits() > small.storage_bits(),
            "lower T_RH must build a bigger table: {} vs {}",
            large.storage_bits(),
            small.storage_bits()
        );
    }

    #[test]
    fn plain_timing_is_faster() {
        let prac = SystemConfig::paper_default();
        let plain = SystemConfig {
            plain_timing: true,
            ..prac.clone()
        };
        assert!(plain.dram_config().timing.trc < prac.dram_config().timing.trc);
    }

    #[test]
    fn nbo_propagates_to_ea_threshold() {
        let c = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::QpracProactiveEa)
            .with_nbo(64);
        // Indirect check via the tracker's debug output.
        let t = c.make_tracker(0);
        let dbg = format!("{t:?}");
        assert!(dbg.contains("npro: 32"), "{dbg}");
    }
}

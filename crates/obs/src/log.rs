//! A leveled stderr logging facade.
//!
//! `QPRAC_LOG=error|warn|info|debug` selects the maximum level that
//! prints (default `warn`, matching the repo's historical "warnings on
//! stderr" behaviour byte-for-byte — the facade adds no prefix, so
//! greppable line contracts like `remote-fault:` and `warning: shard …`
//! are unchanged). Unparsable values fall back to the default rather
//! than erroring: logging must never take the process down.
//!
//! The simulator's own diagnostics — periodic per-core progress lines
//! and the fast-forward cycle accounting at run end — log at `debug`.

use std::fmt;
use std::sync::OnceLock;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed and was not retried.
    Error = 0,
    /// Something degraded but the run continues (the default cutoff).
    Warn = 1,
    /// Progress milestones.
    Info = 2,
    /// High-volume diagnostics.
    Debug = 3,
}

impl Level {
    /// Parse a `QPRAC_LOG` value (case-insensitive). `None` for
    /// anything unrecognised.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// The cutoff for a `QPRAC_LOG` value that may be absent or garbage —
/// the unit-testable half of [`max_level`].
pub fn level_from(value: Option<&str>) -> Level {
    value.and_then(Level::parse).unwrap_or(Level::Warn)
}

/// The process-wide cutoff, read once from `QPRAC_LOG`.
pub fn max_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| level_from(std::env::var("QPRAC_LOG").ok().as_deref()))
}

/// Whether messages at `level` currently print.
#[inline]
pub fn enabled(level: Level) -> bool {
    level <= max_level()
}

/// Print one line to stderr if `level` passes the cutoff. Prefer the
/// [`error!`](crate::error)/[`warn!`](crate::warn)/[`info!`](crate::info)/
/// [`debug!`](crate::debug) macros, which defer formatting behind the
/// level check.
pub fn emit(level: Level, args: fmt::Arguments<'_>) {
    if enabled(level) {
        eprintln!("{args}");
    }
}

/// Log at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Error, ::std::format_args!($($arg)*))
    };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Warn, ::std::format_args!($($arg)*))
    };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Info, ::std::format_args!($($arg)*))
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Debug, ::std::format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_spellings() {
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" Info "), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn default_cutoff_is_warn() {
        assert_eq!(level_from(None), Level::Warn);
        assert_eq!(level_from(Some("nonsense")), Level::Warn);
        assert_eq!(level_from(Some("debug")), Level::Debug);
        assert_eq!(level_from(Some("error")), Level::Error);
    }

    #[test]
    fn ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        // At cutoff warn: error and warn pass, info and debug do not.
        let cutoff = Level::Warn;
        assert!(Level::Error <= cutoff);
        assert!(Level::Warn <= cutoff);
        assert!(Level::Info > cutoff);
    }
}

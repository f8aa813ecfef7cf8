//! Unified observability for the QPRAC suite.
//!
//! Four instruments, one crate, std-only:
//!
//! - [`hist`] — fixed log2-bucket latency histograms whose snapshot
//!   type is the *single* source of quantiles, means, merges and the
//!   Prometheus histogram rendering.
//! - [`metrics`] — a lock-free registry of named counters, gauges and
//!   histograms with cross-shard [`Snapshot`] merging and a Prometheus
//!   renderer/parser pair: `qprac-serve`'s `METRICS` verb, the one way
//!   to read a shard's state, and `scrape_cluster`, which merges it
//!   across shards.
//! - [`trace`] — a ring-buffered simulation event recorder behind
//!   `QPRAC_TRACE=<path>` that writes Chrome trace-event JSON loadable
//!   in Perfetto. Disabled recorders hold no buffer and every record
//!   site is gated by an `#[inline]` mask check before any formatting.
//! - [`log`] — a leveled stderr facade (`QPRAC_LOG=error|warn|info|debug`,
//!   default `warn`) replacing the repo's scattered `eprintln!` culture
//!   while keeping message text byte-identical.
//!
//! [`json`] is a minimal validity checker used by the trace tests and
//! the CI smoke step — not a general-purpose parser.

pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod trace;

pub use hist::{bucket_index, bucket_upper_us, HistSnapshot, Histogram, BUCKETS};
pub use metrics::{global, Counter, Gauge, Registry, Snapshot};
pub use trace::{EventKind, Recorder, TraceEvent, TraceHandle};

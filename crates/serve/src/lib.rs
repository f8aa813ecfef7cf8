//! # qprac-serve
//!
//! A networked simulation service for the QPRAC reproduction: every
//! simulation cell — a canonical [`sim::RunKey`] — becomes addressable
//! over TCP, so many clients (figure sweeps, CI shards, mitigation
//! comparisons) share one warm cache and one bounded worker pool
//! instead of each re-simulating the same baselines.
//!
//! - [`protocol`] — the line-oriented wire format (cell results travel
//!   as [`sim::codec`] frames, the run cache's own encoding);
//! - [`server`] — the daemon with the three-tier resolve path (LRU →
//!   persistent [`sim::RunCache`] → simulate) and single-flight
//!   coalescing, served by one poll-readiness event loop (unix only)
//!   that also hosts the [`chaos`] fault injector;
//! - [`shard`] — client-side consistent-hash routing: which shard of a
//!   cluster owns a [`sim::RunKey`];
//! - [`singleflight`] / [`memcache`] — the two concurrency primitives,
//!   usable on their own;
//! - [`client`] — the blocking client used by `qprac-client` and the
//!   bench runner's `QPRAC_REMOTE` backend.
//!
//! ## Example
//!
//! ```
//! use qprac_serve::{Client, Server, ServerConfig};
//! use sim::{MitigationKind, RunKey, SystemConfig};
//!
//! let addr = Server::bind("127.0.0.1:0", ServerConfig::default())
//!     .unwrap()
//!     .spawn()
//!     .unwrap();
//! let mut client = Client::connect(addr).unwrap();
//! client.ping().unwrap();
//! let cfg = SystemConfig::paper_default()
//!     .with_mitigation(MitigationKind::Qprac)
//!     .with_instruction_limit(200);
//! let key = RunKey::workload(&cfg, "ycsb/c_like");
//! let result = client.run(&key).unwrap();
//! assert!(matches!(result, sim::CellResult::Stats(_)));
//! ```

pub mod backoff;
pub mod chaos;
pub mod client;
pub mod memcache;
#[cfg(unix)]
pub mod poll;
pub mod protocol;
#[cfg(unix)]
mod reactor;
pub mod server;
pub mod shard;
pub mod singleflight;

pub use backoff::{schedule, RetryPolicy, SplitMix64};
pub use chaos::{Chaos, ChaosSpec};
pub use client::{timeout_from_env, Client, ClientError, DEFAULT_TIMEOUT, PIPELINE_WINDOW};
#[cfg(unix)]
pub use poll::raise_nofile_limit;
pub use server::{Server, ServerConfig, DEFAULT_ADDR, DEFAULT_MAX_CONNS, REPLY_BACKLOG_CAP, VERBS};
pub use shard::{ShardMap, VNODES_PER_SHARD};

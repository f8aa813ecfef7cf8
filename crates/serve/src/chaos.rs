//! Deterministic fault injection for the service stack.
//!
//! `QPRAC_CHAOS=<seed>:<spec>` arms a seeded fault injector inside the
//! server's event loop: connections can be dropped at accept, resolves
//! delayed, response frames truncated mid-payload, and single-flight
//! *leaders* killed mid-simulation (exercising the poison-publication
//! path that keeps followers from hanging). The injector is std-only
//! and driven by one [`SplitMix64`] stream, so a given seed produces a
//! reproducible fault sequence — the chaos integration suite replays
//! the same flaky cluster on every run.
//!
//! `<spec>` is a comma-separated fault list:
//!
//! | token        | fault                                                |
//! |--------------|------------------------------------------------------|
//! | `drop=P`     | close an accepted connection immediately, prob. `P`  |
//! | `delay=P/MS` | stall a well-formed `RUNB` `MS` ms, probability `P`  |
//! | `trunc=P`    | cut a response frame mid-payload and kill the socket |
//! | `kill=N`     | panic the first `N` single-flight leaders mid-run    |
//!
//! e.g. `QPRAC_CHAOS=7:drop=0.05,delay=0.1/20,trunc=0.05,kill=1`.
//!
//! Faults are *transient by construction* — every one maps to an error
//! the retry/failover path classifies as retryable, so a chaotic
//! cluster slows clients down but never changes their results (the
//! key-only protocol is idempotent; re-driving a key is always safe).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use qprac_obs::{Counter, Registry};

use crate::backoff::SplitMix64;

/// Parsed `QPRAC_CHAOS` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosSpec {
    /// PRNG seed for every probabilistic fault decision.
    pub seed: u64,
    /// Probability an accepted connection is dropped on the floor.
    pub drop_prob: f64,
    /// Probability a well-formed `RUNB` is delayed by [`Self::delay`]
    /// (on a dispatch worker, even when the memory tier holds it).
    pub delay_prob: f64,
    /// Stall injected when the delay fault fires.
    pub delay: Duration,
    /// Probability a response write is truncated mid-frame.
    pub trunc_prob: f64,
    /// Number of single-flight leaders to kill (a budget, not a
    /// probability: tests need "exactly one leader dies").
    pub kill_leaders: u32,
}

impl ChaosSpec {
    /// Parse `<seed>:<spec>` (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<ChaosSpec, String> {
        let (seed, tokens) = text
            .split_once(':')
            .ok_or_else(|| format!("chaos spec {text:?}: expected <seed>:<faults>"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("chaos spec {text:?}: seed must be a u64"))?;
        let mut spec = ChaosSpec {
            seed,
            ..ChaosSpec::default()
        };
        for token in tokens.split(',').filter(|t| !t.trim().is_empty()) {
            let (name, value) = token
                .split_once('=')
                .ok_or_else(|| format!("chaos fault {token:?}: expected name=value"))?;
            let parse_prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos fault {token:?}: bad probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos fault {token:?}: probability outside [0,1]"));
                }
                Ok(p)
            };
            match name.trim() {
                "drop" => spec.drop_prob = parse_prob(value)?,
                "trunc" => spec.trunc_prob = parse_prob(value)?,
                "delay" => {
                    let (p, ms) = value
                        .split_once('/')
                        .ok_or_else(|| format!("chaos fault {token:?}: expected delay=P/MS"))?;
                    spec.delay_prob = parse_prob(p)?;
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("chaos fault {token:?}: bad delay ms"))?;
                    spec.delay = Duration::from_millis(ms);
                }
                "kill" => {
                    spec.kill_leaders = value
                        .parse()
                        .map_err(|_| format!("chaos fault {token:?}: kill takes a count"))?;
                }
                other => return Err(format!("unknown chaos fault {other:?}")),
            }
        }
        Ok(spec)
    }

    /// The `QPRAC_CHAOS` environment knob (unset/empty/`0` = off).
    /// A malformed spec aborts loudly — silently running *without*
    /// requested fault injection would make a chaos CI pass vacuous.
    pub fn from_env() -> Option<ChaosSpec> {
        let text = sim::env_opt("QPRAC_CHAOS")?;
        match ChaosSpec::parse(&text) {
            Ok(spec) => Some(spec),
            Err(e) => panic!("QPRAC_CHAOS: {e}"),
        }
    }
}

/// Registry names of the fired-fault counters.
pub const CHAOS_COUNTERS: [&str; 4] = [
    "qprac_chaos_dropped_total",
    "qprac_chaos_delayed_total",
    "qprac_chaos_truncated_total",
    "qprac_chaos_killed_total",
];

/// The armed injector: one shared PRNG stream plus fired-fault counters
/// in the server's registry (reported by `METRICS`, so a
/// chaos CI run can prove faults actually fired).
#[derive(Debug)]
pub struct Chaos {
    spec: ChaosSpec,
    rng: Mutex<SplitMix64>,
    kills_left: AtomicU32,
    /// Connections dropped at accept.
    pub dropped: Counter,
    /// Resolves delayed.
    pub delayed: Counter,
    /// Response frames truncated.
    pub truncated: Counter,
    /// Single-flight leaders killed.
    pub killed: Counter,
}

impl Chaos {
    /// Arm a spec, registering its fault counters in `registry`.
    pub fn new(spec: ChaosSpec, registry: &Registry) -> Chaos {
        let [dropped, delayed, truncated, killed] =
            CHAOS_COUNTERS.map(|name| registry.counter(name));
        Chaos {
            rng: Mutex::new(SplitMix64::new(spec.seed)),
            kills_left: AtomicU32::new(spec.kill_leaders),
            spec,
            dropped,
            delayed,
            truncated,
            killed,
        }
    }

    fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false; // no faults armed: skip the lock entirely
        }
        self.rng.lock().unwrap().chance(p)
    }

    /// Should this freshly-accepted connection be dropped?
    pub fn drop_connection(&self) -> bool {
        Self::fire(self.chance(self.spec.drop_prob), &self.dropped)
    }

    /// Stall to inject before a resolve, if the delay fault fires.
    pub fn delay(&self) -> Option<Duration> {
        Self::fire(self.chance(self.spec.delay_prob), &self.delayed).then_some(self.spec.delay)
    }

    /// Should this response frame be truncated?
    pub fn truncate_write(&self) -> bool {
        Self::fire(self.chance(self.spec.trunc_prob), &self.truncated)
    }

    fn fire(fired: bool, counter: &Counter) -> bool {
        if fired {
            counter.inc();
        }
        fired
    }

    /// Kill the calling single-flight leader if any kill budget
    /// remains. Panics (that is the fault); the server's leader guard
    /// publishes the poison value to followers.
    pub fn kill_leader(&self) {
        let armed = self
            .kills_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1))
            .is_ok();
        if armed {
            self.killed.inc();
            panic!("chaos: single-flight leader killed mid-simulation");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use sim::{MitigationKind, RunKey, SystemConfig};

    use crate::{Client, ClientError, Server, ServerConfig};

    #[test]
    fn specs_parse_and_reject_garbage() {
        let spec = ChaosSpec::parse("7:drop=0.05,delay=0.1/20,trunc=0.5,kill=2").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.drop_prob, 0.05);
        assert_eq!(spec.delay_prob, 0.1);
        assert_eq!(spec.delay, Duration::from_millis(20));
        assert_eq!(spec.trunc_prob, 0.5);
        assert_eq!(spec.kill_leaders, 2);
        // Seed with no faults = a quiet injector.
        assert_eq!(
            ChaosSpec::parse("42:").unwrap(),
            ChaosSpec {
                seed: 42,
                ..ChaosSpec::default()
            }
        );
        for bad in [
            "no-colon",
            "x:drop=0.1",
            "1:drop=2.0",
            "1:drop=-0.1",
            "1:delay=0.5",
            "1:delay=0.5/ms",
            "1:kill=0.5",
            "1:explode=1",
            "1:drop",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        let spec = ChaosSpec::parse("99:drop=0.3,trunc=0.3").unwrap();
        let decisions = |chaos: &Chaos| -> Vec<bool> {
            (0..64)
                .map(|i| {
                    if i % 2 == 0 {
                        chaos.drop_connection()
                    } else {
                        chaos.truncate_write()
                    }
                })
                .collect()
        };
        let a = decisions(&Chaos::new(spec, &Registry::new()));
        let b = decisions(&Chaos::new(spec, &Registry::new()));
        assert_eq!(a, b, "same seed, same fault sequence");
        assert!(a.iter().any(|&f| f), "p=0.3 over 64 draws fires");
        assert!(!a.iter().all(|&f| f), "p=0.3 over 64 draws also misses");
    }

    #[test]
    fn kill_budget_fires_exactly_n_times() {
        let registry = Registry::new();
        let chaos = Chaos::new(ChaosSpec::parse("1:kill=2").unwrap(), &registry);
        for _ in 0..2 {
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chaos.kill_leader();
            }));
            assert!(died.is_err(), "armed kill must panic");
        }
        chaos.kill_leader(); // budget exhausted: a no-op, not a panic
        assert_eq!(chaos.killed.get(), 2);
        assert_eq!(registry.snapshot().counter("qprac_chaos_killed_total"), 2);
    }

    /// A server with `faults` armed, on an ephemeral port.
    fn chaos_server(faults: &str) -> std::net::SocketAddr {
        let config = ServerConfig {
            chaos: Some(ChaosSpec::parse(faults).unwrap()),
            ..ServerConfig::default()
        };
        Server::bind("127.0.0.1:0", config)
            .unwrap()
            .spawn()
            .unwrap()
    }

    fn small_key() -> RunKey {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_instruction_limit(200);
        RunKey::workload(&cfg, "ycsb/a_like")
    }

    #[test]
    fn truncation_cuts_the_frame_and_kills_the_socket() {
        let addr = chaos_server("1:trunc=1");
        let err = Client::connect(addr)
            .unwrap()
            .run(&small_key())
            .unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "{err}");
        assert!(err.is_retryable(), "a cut frame is transient: {err}");
        // The peer sees exactly the first half of the frame, then EOF.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"PING\n").unwrap();
        let mut got = Vec::new();
        let _ = raw.read_to_end(&mut got);
        assert_eq!(got, b"OK text", "half of `OK text 4\\npong`");
    }

    #[test]
    fn delay_stalls_a_runb_then_delivers_intact() {
        let addr = chaos_server("1:delay=1/30");
        let mut client = Client::connect(addr).unwrap();
        let first = client.run(&small_key()).unwrap();
        // The second resolve is a memory hit: only the fault stalls it.
        let t0 = std::time::Instant::now();
        let again = client.run(&small_key()).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "the armed delay must actually stall the resolve"
        );
        assert_eq!(again, first, "delay must not corrupt data");
        assert_eq!(client.stat("qprac_chaos_delayed_total").unwrap(), 2);
    }

    #[test]
    fn drop_hangs_up_without_a_byte() {
        let addr = chaos_server("1:drop=1");
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = raw.write_all(b"PING\n");
        let mut buf = [0u8; 16];
        assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "dropped conn got bytes");
    }
}

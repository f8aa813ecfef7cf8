//! Trace-driven out-of-order core model (paper Table II: 4 GHz, 4-wide,
//! 352-entry ROB), in the style of Ramulator2's SimpleO3 front-end.
//!
//! Each cycle the core retires up to `width` completed instructions from
//! the ROB head and dispatches up to `width` new ones from the trace.
//! Non-memory instructions and posted stores complete immediately; loads
//! occupy a ROB slot until their data returns. Dispatch stalls when the
//! ROB is full, when the memory system refuses an access, or when the
//! per-core MLP limit is reached (used to model dependence-limited,
//! pointer-chasing workloads).

use std::collections::VecDeque;

use crate::trace::{TraceEntry, TraceSource};

/// Completion flags for in-flight load tokens, stored as a ring bitmap.
///
/// Tokens are issued sequentially per core and live at most a ROB's
/// worth apart (a load occupies a ROB entry from dispatch to retire), so
/// a power-of-two window of at least twice the ROB size can never alias
/// two live tokens. Replaces a `HashSet<u64>` on the retire hot path.
#[derive(Debug, Clone)]
struct FinishedRing {
    words: Vec<u64>,
    mask: u64,
}

impl FinishedRing {
    fn new(rob: usize) -> Self {
        let bits = (2 * rob.max(1)).next_power_of_two().max(64);
        FinishedRing {
            words: vec![0; bits / 64],
            mask: bits as u64 - 1,
        }
    }

    #[inline]
    fn slot(&self, token: u64) -> (usize, u64) {
        let bit = token & self.mask;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    #[inline]
    fn insert(&mut self, token: u64) {
        let (w, m) = self.slot(token);
        self.words[w] |= m;
    }

    #[inline]
    fn contains(&self, token: u64) -> bool {
        let (w, m) = self.slot(token);
        self.words[w] & m != 0
    }

    /// Test-and-clear.
    #[inline]
    fn remove(&mut self, token: u64) -> bool {
        let (w, m) = self.slot(token);
        let hit = self.words[w] & m != 0;
        self.words[w] &= !m;
        hit
    }
}

/// Core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Retire/dispatch width.
    pub width: usize,
    /// Maximum loads in flight (memory-level parallelism cap).
    pub max_outstanding_loads: usize,
}

impl CoreConfig {
    /// Paper Table II: 4-wide, 352-entry ROB.
    pub fn paper_default() -> Self {
        CoreConfig {
            rob: 352,
            width: 4,
            max_outstanding_loads: 16,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Memory interface the core dispatches through. Implemented by the
/// full-system simulator (LLC + memory), and by test stubs.
pub trait CoreMem {
    /// Issue a load for `line`; returns `false` when the memory system
    /// cannot accept it this cycle (dispatch retries next cycle). The
    /// `token` identifies the load for [`Core::finish_load`].
    fn load(&mut self, line: u64, token: u64) -> bool;
    /// Issue a posted store for `line`; returns `false` to retry.
    fn store(&mut self, line: u64) -> bool;
}

#[derive(Debug, Clone, Copy)]
enum RobEntry {
    Done,
    Load { token: u64 },
}

/// Core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles executed.
    pub cycles: u64,
    /// Loads issued to the memory system.
    pub loads: u64,
    /// Stores issued to the memory system.
    pub stores: u64,
    /// Cycles with zero retirement (stall visibility).
    pub stall_cycles: u64,
}

impl CoreStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// One out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    rob: VecDeque<RobEntry>,
    /// Completed load tokens not yet retired.
    finished: FinishedRing,
    /// Loads in flight.
    outstanding: usize,
    /// Bubbles still to dispatch before the pending memory op.
    pending_bubbles: u32,
    /// The memory op waiting for dispatch, if any.
    pending_op: Option<TraceEntry>,
    next_token: u64,
    /// [`stalled_on_memory`](Self::stalled_on_memory), refreshed by
    /// every mutation that can change it (`tick`, `finish_load`): the
    /// simulator asks once per core per stepped cycle.
    stalled: bool,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("rob", &self.rob.len())
            .field("outstanding", &self.outstanding)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Core {
    /// Build a core reading from `trace`. Token identifiers are offset by
    /// `core_id << 48` so tokens are globally unique across cores.
    pub fn new(cfg: CoreConfig, core_id: usize, trace: Box<dyn TraceSource>) -> Self {
        Core {
            cfg,
            trace,
            rob: VecDeque::with_capacity(cfg.rob),
            finished: FinishedRing::new(cfg.rob),
            outstanding: 0,
            pending_bubbles: 0,
            pending_op: None,
            next_token: (core_id as u64) << 48,
            stalled: false,
            stats: CoreStats::default(),
        }
    }

    /// Core statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Notify the core that the load identified by `token` completed.
    pub fn finish_load(&mut self, token: u64) {
        self.finished.insert(token);
        self.outstanding = self.outstanding.saturating_sub(1);
        self.stalled = self.compute_stalled();
    }

    /// Loads currently in flight (diagnostics).
    pub fn outstanding_loads(&self) -> usize {
        self.outstanding
    }

    /// Whether this core provably cannot retire or dispatch anything
    /// until a [`finish_load`](Self::finish_load) arrives. When this
    /// returns `true`, a [`tick`](Self::tick) changes nothing except the
    /// `cycles`/`stall_cycles` counters, so the simulator may skip the
    /// cycle entirely and account it via
    /// [`skip_stalled_cycles`](Self::skip_stalled_cycles).
    ///
    /// Deliberately conservative: any state where progress *might* be
    /// possible (bubbles to dispatch, an unfetched trace entry, a posted
    /// store, a memory system that could accept a retry) reports `false`.
    pub fn stalled_on_memory(&self) -> bool {
        debug_assert_eq!(self.stalled, self.compute_stalled());
        self.stalled
    }

    fn compute_stalled(&self) -> bool {
        // Retirement: possible unless the ROB head is a load whose data
        // has not returned.
        match self.rob.front() {
            Some(RobEntry::Done) => return false,
            Some(RobEntry::Load { token }) if self.finished.contains(*token) => return false,
            Some(RobEntry::Load { .. }) | None => {}
        }
        // Dispatch: a full ROB blocks it outright; otherwise only a
        // pending load held back by the MLP cap is a pure load-wait.
        if self.rob.len() >= self.cfg.rob {
            return true;
        }
        if self.pending_bubbles > 0 {
            return false;
        }
        match &self.pending_op {
            Some(op) if !op.is_store => {
                self.outstanding >= self.cfg.max_outstanding_loads && !self.rob.is_empty()
            }
            _ => false,
        }
    }

    /// Account `n` cycles in which the core was provably stalled (see
    /// [`stalled_on_memory`](Self::stalled_on_memory)) without ticking
    /// it: exactly what `n` calls to [`tick`](Self::tick) would have
    /// recorded — `n` cycles, all of them retirement stalls.
    pub fn skip_stalled_cycles(&mut self, n: u64) {
        debug_assert!(self.stalled_on_memory());
        self.stats.cycles += n;
        self.stats.stall_cycles += n;
    }

    /// ROB occupancy (diagnostics).
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// Advance one CPU cycle: retire, then dispatch.
    pub fn tick(&mut self, mem: &mut dyn CoreMem) {
        self.stats.cycles += 1;
        let retired_before = self.stats.retired;

        // Retire up to `width` from the head.
        for _ in 0..self.cfg.width {
            match self.rob.front() {
                Some(RobEntry::Done) => {
                    self.rob.pop_front();
                    self.stats.retired += 1;
                }
                Some(RobEntry::Load { token }) => {
                    if self.finished.remove(*token) {
                        self.rob.pop_front();
                        self.stats.retired += 1;
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        if self.stats.retired == retired_before {
            self.stats.stall_cycles += 1;
        }

        // Dispatch up to `width` into the ROB.
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob {
                break;
            }
            if self.pending_bubbles > 0 {
                self.pending_bubbles -= 1;
                self.rob.push_back(RobEntry::Done);
                continue;
            }
            let op = match self.pending_op.take() {
                Some(op) => op,
                None => {
                    let e = self.trace.next_entry();
                    if e.bubbles > 0 {
                        self.pending_bubbles = e.bubbles - 1;
                        self.pending_op = Some(TraceEntry { bubbles: 0, ..e });
                        self.rob.push_back(RobEntry::Done);
                        continue;
                    }
                    e
                }
            };
            if op.is_store {
                if mem.store(op.line) {
                    self.stats.stores += 1;
                    self.rob.push_back(RobEntry::Done);
                } else {
                    self.pending_op = Some(op);
                    break;
                }
            } else {
                if self.outstanding >= self.cfg.max_outstanding_loads {
                    self.pending_op = Some(op);
                    break;
                }
                let token = self.next_token;
                if mem.load(op.line, token) {
                    self.next_token += 1;
                    self.outstanding += 1;
                    self.stats.loads += 1;
                    self.rob.push_back(RobEntry::Load { token });
                } else {
                    self.pending_op = Some(op);
                    break;
                }
            }
        }
        self.stalled = self.compute_stalled();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::LoopTrace;

    /// Memory stub: loads complete after a fixed delay via an event list.
    struct StubMem {
        latency: u64,
        now: u64,
        events: Vec<(u64, u64)>, // (ready_at, token)
        accept: bool,
    }

    impl StubMem {
        fn new(latency: u64) -> Self {
            StubMem {
                latency,
                now: 0,
                events: Vec::new(),
                accept: true,
            }
        }
        fn step(&mut self, core: &mut Core) {
            self.now += 1;
            let ready: Vec<u64> = self
                .events
                .iter()
                .filter(|(t, _)| *t <= self.now)
                .map(|(_, tok)| *tok)
                .collect();
            self.events.retain(|(t, _)| *t > self.now);
            for tok in ready {
                core.finish_load(tok);
            }
        }
    }

    impl CoreMem for StubMem {
        fn load(&mut self, _line: u64, token: u64) -> bool {
            if !self.accept {
                return false;
            }
            self.events.push((self.now + self.latency, token));
            true
        }
        fn store(&mut self, _line: u64) -> bool {
            self.accept
        }
    }

    fn bubble_trace(bubbles: u32) -> Box<LoopTrace> {
        Box::new(LoopTrace::new(vec![TraceEntry {
            bubbles,
            line: 1,
            is_store: false,
        }]))
    }

    fn run(core: &mut Core, mem: &mut StubMem, cycles: u64) {
        for _ in 0..cycles {
            core.tick(mem);
            mem.step(core);
        }
    }

    #[test]
    fn compute_bound_ipc_approaches_width() {
        // 39 bubbles per load with fast memory: IPC should be near 4.
        let mut core = Core::new(CoreConfig::paper_default(), 0, bubble_trace(39));
        let mut mem = StubMem::new(2);
        run(&mut core, &mut mem, 10_000);
        assert!(core.stats().ipc() > 3.0, "ipc = {}", core.stats().ipc());
    }

    #[test]
    fn memory_bound_ipc_tracks_latency_and_mlp() {
        // Zero bubbles, latency 100, MLP 16: throughput is bounded by
        // outstanding/latency = 0.16 loads/cycle.
        let cfg = CoreConfig {
            max_outstanding_loads: 16,
            ..CoreConfig::paper_default()
        };
        let mut core = Core::new(cfg, 0, bubble_trace(0));
        let mut mem = StubMem::new(100);
        run(&mut core, &mut mem, 20_000);
        let ipc = core.stats().ipc();
        assert!(ipc < 0.25, "ipc = {ipc}");
        assert!(ipc > 0.05, "ipc = {ipc}");
    }

    #[test]
    fn mlp_limit_serializes_loads() {
        // MLP 1 models pointer chasing: one load per latency.
        let cfg = CoreConfig {
            max_outstanding_loads: 1,
            ..CoreConfig::paper_default()
        };
        let mut core = Core::new(cfg, 0, bubble_trace(0));
        let mut mem = StubMem::new(50);
        run(&mut core, &mut mem, 20_000);
        let ipc = core.stats().ipc();
        assert!(ipc < 0.03, "ipc = {ipc}");
    }

    #[test]
    fn rejected_accesses_stall_dispatch_without_loss() {
        let mut core = Core::new(CoreConfig::paper_default(), 0, bubble_trace(0));
        let mut mem = StubMem::new(5);
        mem.accept = false;
        run(&mut core, &mut mem, 100);
        assert_eq!(core.stats().loads, 0);
        mem.accept = true;
        run(&mut core, &mut mem, 1000);
        assert!(core.stats().loads > 0, "dispatch resumed");
    }

    #[test]
    fn stores_are_posted_and_do_not_block_retire() {
        let mut core = Core::new(
            CoreConfig::paper_default(),
            0,
            Box::new(LoopTrace::new(vec![TraceEntry {
                bubbles: 0,
                line: 7,
                is_store: true,
            }])),
        );
        let mut mem = StubMem::new(1_000_000); // irrelevant for stores
        run(&mut core, &mut mem, 1000);
        assert!(core.stats().ipc() > 3.0, "stores retire at full width");
    }

    #[test]
    fn rob_fills_under_slow_memory() {
        let cfg = CoreConfig {
            rob: 8,
            width: 4,
            max_outstanding_loads: 16,
        };
        let mut core = Core::new(cfg, 0, bubble_trace(0));
        let mut mem = StubMem::new(10_000);
        run(&mut core, &mut mem, 100);
        assert!(core.rob.len() <= 8);
        assert_eq!(core.stats().retired, 0, "head load never completes");
        assert!(core.stats().stall_cycles > 90);
    }

    /// Memory stub that records every interface call, to prove stalled
    /// ticks never touch the memory system.
    struct CountingMem {
        calls: u64,
    }
    impl CoreMem for CountingMem {
        fn load(&mut self, _line: u64, _token: u64) -> bool {
            self.calls += 1;
            false
        }
        fn store(&mut self, _line: u64) -> bool {
            self.calls += 1;
            false
        }
    }

    #[test]
    fn stalled_on_memory_matches_tick_being_a_noop() {
        // MLP-capped: after one load is in flight, the core is stalled
        // until finish_load.
        let cfg = CoreConfig {
            rob: 8,
            width: 4,
            max_outstanding_loads: 1,
        };
        let mut core = Core::new(cfg, 0, bubble_trace(0));
        let mut mem = StubMem::new(1_000_000);
        assert!(!core.stalled_on_memory(), "fresh core can dispatch");
        core.tick(&mut mem); // issues 1 load, then MLP-blocks; ROB: 1 load + pending op
        assert!(core.stalled_on_memory(), "head load pending + MLP cap");

        // A stalled tick must change nothing but the cycle counters, and
        // must not call into the memory system at all.
        let rob_before = core.rob.len();
        let stats_before = *core.stats();
        let mut counting = CountingMem { calls: 0 };
        core.tick(&mut counting);
        assert_eq!(counting.calls, 0, "stalled tick must not touch memory");
        assert_eq!(core.rob.len(), rob_before);
        assert_eq!(core.stats().retired, stats_before.retired);
        assert_eq!(core.stats().loads, stats_before.loads);
        assert_eq!(core.stats().cycles, stats_before.cycles + 1);
        assert_eq!(core.stats().stall_cycles, stats_before.stall_cycles + 1);

        // skip_stalled_cycles(n) is exactly n stalled ticks.
        let mut twin = Core::new(cfg, 0, bubble_trace(0));
        twin.tick(&mut mem);
        twin.tick(&mut counting);
        twin.skip_stalled_cycles(37);
        for _ in 0..37 {
            core.tick(&mut counting);
        }
        assert_eq!(*core.stats(), *twin.stats());
        assert!(core.stalled_on_memory());

        // finish_load wakes it.
        let token = 0;
        core.finish_load(token);
        assert!(!core.stalled_on_memory(), "finished head load retires");
    }

    #[test]
    fn full_rob_with_pending_head_load_is_stalled() {
        let cfg = CoreConfig {
            rob: 4,
            width: 4,
            max_outstanding_loads: 16,
        };
        let mut core = Core::new(cfg, 0, bubble_trace(0));
        let mut mem = StubMem::new(1_000_000);
        core.tick(&mut mem); // fills the 4-entry ROB with loads
        assert_eq!(core.rob.len(), 4);
        assert!(core.stalled_on_memory());
        // Finishing the head load makes retirement possible again.
        core.finish_load(0);
        assert!(!core.stalled_on_memory());
    }

    #[test]
    fn bubbles_and_stores_are_never_reported_stalled() {
        // Bubble-heavy trace: dispatch always has work.
        let mut core = Core::new(CoreConfig::paper_default(), 0, bubble_trace(10));
        let mut mem = StubMem::new(5);
        for _ in 0..50 {
            assert!(!core.stalled_on_memory());
            core.tick(&mut mem);
            mem.step(&mut core);
        }
        // Store trace against a rejecting memory: a retry might succeed,
        // so the core must not claim to be stalled-on-load.
        let mut store_core = Core::new(
            CoreConfig::paper_default(),
            0,
            Box::new(LoopTrace::new(vec![TraceEntry {
                bubbles: 0,
                line: 3,
                is_store: true,
            }])),
        );
        let mut rejecting = StubMem::new(5);
        rejecting.accept = false;
        for _ in 0..20 {
            store_core.tick(&mut rejecting);
            assert!(!store_core.stalled_on_memory());
        }
    }

    #[test]
    fn tokens_are_namespaced_by_core() {
        let mut a = Core::new(CoreConfig::paper_default(), 1, bubble_trace(0));
        let mut b = Core::new(CoreConfig::paper_default(), 2, bubble_trace(0));
        let mut mem = StubMem::new(1);
        a.tick(&mut mem);
        b.tick(&mut mem);
        let tokens: Vec<u64> = mem.events.iter().map(|(_, t)| *t).collect();
        assert!(tokens.iter().any(|t| t >> 48 == 1));
        assert!(tokens.iter().any(|t| t >> 48 == 2));
    }
}

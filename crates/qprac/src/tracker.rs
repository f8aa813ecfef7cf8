//! The QPRAC mitigation tracker (paper §III).
//!
//! One [`Qprac`] instance serves one DRAM bank. It wires the
//! [`Psq`] into the host's PRAC/ABO machinery through the
//! [`InDramMitigation`] interface:
//!
//! - every activation (and every transitive victim refresh) is offered to
//!   the PSQ with its post-increment PRAC count;
//! - an Alert is requested when the top PSQ entry reaches `N_BO`
//!   (single-threshold design, §III-C1);
//! - each RFM mitigates the top entry — for any bank when opportunistic
//!   mitigation is enabled, or only for the alerting bank in the
//!   QPRAC-NoOp comparison point (§III-D1, §V);
//! - each REF may proactively mitigate the top entry per the configured
//!   [`ProactivePolicy`] (§III-D2).

use dram_core::{CounterAccess, EventKind, InDramMitigation, RfmContext, RowId, TraceHandle};

use crate::config::{ProactivePolicy, QpracConfig};
use crate::psq::{OfferOutcome, Psq};

/// Per-bank QPRAC tracker.
#[derive(Debug, Clone)]
pub struct Qprac {
    cfg: QpracConfig,
    psq: Psq,
    refs_seen: u64,
    /// Event tracer (disabled by default; installed by the host device
    /// via [`InDramMitigation::attach_trace`]).
    trace: TraceHandle,
    /// Flat bank index, for event attribution.
    bank: u32,
}

impl Qprac {
    /// Build a tracker from a configuration.
    pub fn new(cfg: QpracConfig) -> Self {
        Qprac {
            psq: Psq::new(cfg.psq_size),
            cfg,
            refs_seen: 0,
            trace: TraceHandle::default(),
            bank: 0,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &QpracConfig {
        &self.cfg
    }

    /// Read access to the PSQ (tests and probes).
    pub fn psq(&self) -> &Psq {
        &self.psq
    }

    /// Offer with event tracing. Off-path cost: one branch (the
    /// enabled check) per activation.
    fn offer_traced(&mut self, row: RowId, count: u32) {
        if !self.trace.is_enabled() {
            self.psq.offer(row, count);
            return;
        }
        let outcome = self.psq.offer_outcome(row, count);
        let ts = self.trace.now();
        self.trace
            .instant(EventKind::PsqOffer, ts, self.bank, row.0 as u64, count);
        if let OfferOutcome::Evicted(e) = outcome {
            self.trace
                .instant(EventKind::PsqEvict, ts, self.bank, e.row.0 as u64, e.count);
        }
    }

    fn pop_for_mitigation(&mut self) -> Option<RowId> {
        let e = self.psq.pop_max()?;
        if self.trace.wants(EventKind::PsqPop) {
            self.trace.instant(
                EventKind::PsqPop,
                self.trace.now(),
                self.bank,
                e.row.0 as u64,
                e.count,
            );
        }
        Some(e.row)
    }
}

impl InDramMitigation for Qprac {
    fn name(&self) -> &'static str {
        match (self.cfg.opportunistic, self.cfg.proactive) {
            (false, _) => "qprac-noop",
            (true, ProactivePolicy::Off) => "qprac",
            (true, ProactivePolicy::EveryRef) => "qprac+proactive",
            (true, ProactivePolicy::EnergyAware { .. }) => "qprac+proactive-ea",
        }
    }

    fn on_activate(&mut self, row: RowId, count: u32) {
        self.offer_traced(row, count);
    }

    fn on_victim_refresh(&mut self, row: RowId, count: u32) {
        // Transitive-attack coverage (§III-C2): a victim of a mitigation
        // is itself a potential aggressor for *its* neighbours, so it is
        // offered to the PSQ under the same priority rule.
        self.offer_traced(row, count);
    }

    fn needs_alert(&self) -> bool {
        self.psq.max_count() >= self.cfg.nbo
    }

    fn on_rfm(&mut self, _counters: &mut dyn CounterAccess, ctx: RfmContext) -> Option<RowId> {
        if self.cfg.opportunistic || ctx.alerting {
            self.pop_for_mitigation()
        } else {
            None
        }
    }

    fn on_ref(&mut self, _counters: &mut dyn CounterAccess) -> Option<RowId> {
        self.refs_seen += 1;
        if !self
            .refs_seen
            .is_multiple_of(self.cfg.proactive_per_refs as u64)
        {
            return None;
        }
        match self.cfg.proactive {
            ProactivePolicy::Off => None,
            ProactivePolicy::EveryRef => self.pop_for_mitigation(),
            ProactivePolicy::EnergyAware { npro } => {
                if self.psq.max_count() >= npro {
                    self.pop_for_mitigation()
                } else {
                    None
                }
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }

    fn attach_trace(&mut self, trace: TraceHandle, bank: u32) {
        self.trace = trace;
        self.bank = bank;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::PracCounters;

    fn ctx(alerting: bool) -> RfmContext {
        RfmContext {
            alerting,
            alert_service: true,
        }
    }

    /// Drive `n` activations of `row` through counters + tracker.
    fn acts(t: &mut Qprac, c: &mut PracCounters, row: RowId, n: u32) {
        for _ in 0..n {
            let count = c.increment(row);
            t.on_activate(row, count);
        }
    }

    #[test]
    fn alert_at_nbo() {
        let mut t = Qprac::new(QpracConfig::paper_default());
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(1), 31);
        assert!(!t.needs_alert());
        acts(&mut t, &mut c, RowId(1), 1);
        assert!(t.needs_alert());
    }

    #[test]
    fn rfm_mitigates_highest_entry() {
        let mut t = Qprac::new(QpracConfig::paper_default());
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(1), 10);
        acts(&mut t, &mut c, RowId(2), 32);
        acts(&mut t, &mut c, RowId(3), 5);
        assert_eq!(t.on_rfm(&mut c, ctx(true)), Some(RowId(2)));
        // Entry evicted from the PSQ after mitigation (§III-C2).
        assert!(!t.psq().contains(RowId(2)));
    }

    #[test]
    fn opportunistic_mitigates_below_nbo() {
        let mut t = Qprac::new(QpracConfig::paper_default());
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(4), 3); // well below N_BO
        assert!(!t.needs_alert());
        // Another bank alerted; this bank receives the all-bank RFM.
        assert_eq!(t.on_rfm(&mut c, ctx(false)), Some(RowId(4)));
    }

    #[test]
    fn noop_skips_non_alerting_rfms() {
        let mut t = Qprac::new(QpracConfig::noop());
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(4), 3);
        assert_eq!(t.on_rfm(&mut c, ctx(false)), None);
        assert!(t.psq().contains(RowId(4)), "entry must be retained");
        // When this bank itself alerts, it mitigates.
        acts(&mut t, &mut c, RowId(5), 32);
        assert_eq!(t.on_rfm(&mut c, ctx(true)), Some(RowId(5)));
    }

    #[test]
    fn proactive_every_ref_pops_top() {
        let mut t = Qprac::new(QpracConfig::proactive());
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(9), 2);
        assert_eq!(t.on_ref(&mut c), Some(RowId(9)));
        assert_eq!(t.on_ref(&mut c), None, "queue drained");
    }

    #[test]
    fn energy_aware_respects_npro() {
        let mut t = Qprac::new(QpracConfig::proactive_ea()); // npro = 16
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(9), 15);
        assert_eq!(t.on_ref(&mut c), None, "below N_PRO: skipped");
        acts(&mut t, &mut c, RowId(9), 1);
        assert_eq!(t.on_ref(&mut c), Some(RowId(9)), "at N_PRO: mitigated");
    }

    #[test]
    fn proactive_cadence_gates_refs() {
        let cfg = QpracConfig::proactive().with_proactive_per_refs(4);
        let mut t = Qprac::new(cfg);
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(1), 5);
        assert_eq!(t.on_ref(&mut c), None);
        assert_eq!(t.on_ref(&mut c), None);
        assert_eq!(t.on_ref(&mut c), None);
        assert_eq!(t.on_ref(&mut c), Some(RowId(1)), "every 4th REF");
    }

    #[test]
    fn victim_refresh_inserts_transitive_aggressor() {
        // Half-Double coverage: a frequently refreshed victim enters the
        // PSQ once its count beats the queue minimum.
        let mut t = Qprac::new(QpracConfig::paper_default().with_psq_size(2));
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(1), 10);
        acts(&mut t, &mut c, RowId(2), 10);
        for _ in 0..11 {
            let count = c.increment(RowId(3));
            t.on_victim_refresh(RowId(3), count);
        }
        assert!(t.psq().contains(RowId(3)));
    }

    #[test]
    fn names_reflect_variant() {
        assert_eq!(Qprac::new(QpracConfig::paper_default()).name(), "qprac");
        assert_eq!(Qprac::new(QpracConfig::noop()).name(), "qprac-noop");
        assert_eq!(
            Qprac::new(QpracConfig::proactive()).name(),
            "qprac+proactive"
        );
        assert_eq!(
            Qprac::new(QpracConfig::proactive_ea()).name(),
            "qprac+proactive-ea"
        );
    }

    #[test]
    fn attached_trace_sees_psq_traffic() {
        use std::sync::Arc;
        let rec = Arc::new(dram_core::Recorder::all());
        rec.set_now(77);
        let mut t = Qprac::new(QpracConfig::paper_default().with_psq_size(2));
        t.attach_trace(dram_core::TraceHandle::new(rec.clone()), 5);
        let mut c = PracCounters::new(64, false);
        acts(&mut t, &mut c, RowId(1), 3);
        acts(&mut t, &mut c, RowId(2), 2);
        acts(&mut t, &mut c, RowId(3), 4); // evicts row 2
        let offers = rec.events_of(dram_core::EventKind::PsqOffer);
        assert_eq!(offers.len(), 9, "every activation is an offer");
        assert!(offers.iter().all(|e| e.bank == 5 && e.ts == 77));
        let evicts = rec.events_of(dram_core::EventKind::PsqEvict);
        assert_eq!(evicts.len(), 1);
        assert_eq!(evicts[0].row, 2, "minimum entry evicted");
        assert_eq!(evicts[0].extra, 2, "evicted at count 2");
        assert_eq!(t.on_rfm(&mut c, ctx(true)), Some(RowId(3)));
        let pops = rec.events_of(dram_core::EventKind::PsqPop);
        assert_eq!(pops.len(), 1);
        assert_eq!(pops[0].row, 3);
        assert_eq!(pops[0].extra, 4, "popped at its count");
    }

    #[test]
    fn storage_matches_config() {
        let t = Qprac::new(QpracConfig::paper_default());
        assert_eq!(t.storage_bits(), 120);
    }
}

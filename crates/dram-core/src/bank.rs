//! Per-bank and per-rank timing state machines.
//!
//! Timing legality is expressed only through "earliest next command"
//! registers that are advanced when commands issue; nothing here answers
//! "is X legal now?" directly. The device combines the bank-level
//! registers (this module) with the rank-level ones (`tRRD`, `tFAW`,
//! refresh blocking) and channel-level data-bus occupancy into one
//! `next_*_at` getter per command, and every legality check compares
//! `now` against that getter.

use std::collections::VecDeque;

use crate::config::Timing;
use crate::types::{Cycle, RowId};

/// Timing state for one bank.
#[derive(Debug, Clone)]
pub struct BankTiming {
    /// Currently open row, if any.
    pub open_row: Option<RowId>,
    /// Earliest cycle an ACT may issue.
    next_act: Cycle,
    /// Earliest cycle a PRE may issue (tRAS / tRTP / tWR constrained).
    next_pre: Cycle,
    /// Earliest cycle a column command (RD/WR) may issue (tRCD).
    next_col: Cycle,
}

impl BankTiming {
    /// A freshly precharged bank, ready at cycle 0.
    pub fn new() -> Self {
        BankTiming {
            open_row: None,
            next_act: 0,
            next_pre: 0,
            next_col: 0,
        }
    }

    /// Earliest cycle at which an ACT could be legal (meaningful while the
    /// bank is precharged). Also the earliest REF/RFM: it subsumes the
    /// post-PRE tRP and any earlier REF/RFM block.
    pub fn next_act_at(&self) -> Cycle {
        self.next_act
    }

    /// Earliest cycle at which a PRE could be legal (meaningful while a
    /// row is open).
    pub fn next_pre_at(&self) -> Cycle {
        self.next_pre
    }

    /// Earliest cycle at which a RD/WR could be legal (meaningful while a
    /// row is open).
    pub fn next_col_at(&self) -> Cycle {
        self.next_col
    }

    /// Apply an ACT at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the command violates timing; the caller must
    /// wait for [`next_act_at`](Self::next_act_at) first.
    pub fn activate(&mut self, row: RowId, now: Cycle, t: &Timing) {
        debug_assert!(
            self.open_row.is_none() && now >= self.next_act,
            "ACT issued while illegal"
        );
        self.open_row = Some(row);
        self.next_col = now + t.trcd;
        self.next_pre = now + t.tras;
        self.next_act = now + t.trc;
    }

    /// Apply a PRE at `now`.
    pub fn precharge(&mut self, now: Cycle, t: &Timing) {
        debug_assert!(
            self.open_row.is_some() && now >= self.next_pre,
            "PRE issued while illegal"
        );
        self.open_row = None;
        self.next_act = self.next_act.max(now + t.trp);
    }

    /// Apply a RD at `now`; extends the precharge constraint by tRTP.
    pub fn read(&mut self, now: Cycle, t: &Timing) {
        debug_assert!(
            self.open_row.is_some() && now >= self.next_col,
            "RD issued while illegal"
        );
        self.next_pre = self.next_pre.max(now + t.trtp);
    }

    /// Apply a WR at `now`; extends the precharge constraint by
    /// tCWL + burst + tWR (write recovery).
    pub fn write(&mut self, now: Cycle, t: &Timing) {
        debug_assert!(
            self.open_row.is_some() && now >= self.next_col,
            "WR issued while illegal"
        );
        self.next_pre = self.next_pre.max(now + t.tcwl + t.tbl + t.twr);
    }

    /// Block the bank (REF/RFM) until `until`.
    pub fn block_until(&mut self, until: Cycle) {
        self.next_act = self.next_act.max(until);
    }
}

impl Default for BankTiming {
    fn default() -> Self {
        Self::new()
    }
}

/// Rank-level activation constraints: tRRD_S/L, tFAW, and refresh/RFM
/// busy windows.
#[derive(Debug, Clone)]
pub struct RankState {
    /// Timestamps of the most recent ACTs (bounded by 4 for tFAW).
    recent_acts: VecDeque<Cycle>,
    /// Earliest next ACT to any bank in this rank (tRRD_S).
    next_act_any: Cycle,
    /// Earliest next ACT per bank group (tRRD_L).
    next_act_group: Vec<Cycle>,
    /// Earliest next column command per bank group (tCCD_L).
    next_col_group: Vec<Cycle>,
    /// Rank blocked (REF in progress) until this cycle.
    busy_until: Cycle,
}

impl RankState {
    /// Create rank state for `groups` bank groups.
    pub fn new(groups: usize) -> Self {
        RankState {
            recent_acts: VecDeque::with_capacity(4),
            next_act_any: 0,
            next_act_group: vec![0; groups],
            next_col_group: vec![0; groups],
            busy_until: 0,
        }
    }

    /// Record an ACT to `group` at `now`.
    pub fn activate(&mut self, group: usize, now: Cycle, t: &Timing) {
        debug_assert!(
            now >= self.act_ready_at(group, t),
            "ACT issued while illegal"
        );
        if self.recent_acts.len() == 4 {
            self.recent_acts.pop_front();
        }
        self.recent_acts.push_back(now);
        self.next_act_any = now + t.trrd_s;
        self.next_act_group[group] = now + t.trrd_l;
    }

    /// Record a column command to `group` at `now`.
    pub fn column(&mut self, group: usize, now: Cycle, t: &Timing) {
        self.next_col_group[group] = now + t.tccd_l;
    }

    /// Rank busy (REF/RFM) until `until`.
    pub fn block_until(&mut self, until: Cycle) {
        self.busy_until = self.busy_until.max(until);
    }

    /// The cycle the current REF/RFM busy window ends (0 if never busy).
    pub fn busy_until_at(&self) -> Cycle {
        self.busy_until
    }

    /// Earliest cycle at which the rank-level ACT constraints (tRRD_S/L,
    /// tFAW, busy window) would admit an ACT to `group`.
    pub fn act_ready_at(&self, group: usize, t: &Timing) -> Cycle {
        let mut ready = self
            .busy_until
            .max(self.next_act_any)
            .max(self.next_act_group[group]);
        // Four-activate window: the 4th-most-recent ACT must be at least
        // tFAW in the past.
        if self.recent_acts.len() == 4 {
            if let Some(&oldest) = self.recent_acts.front() {
                ready = ready.max(oldest + t.tfaw);
            }
        }
        ready
    }

    /// Earliest cycle at which the rank-level column constraints would
    /// admit a RD/WR to `group`.
    pub fn col_ready_at(&self, group: usize) -> Cycle {
        self.busy_until.max(self.next_col_group[group])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramConfig, Timing, TimingNs};

    fn timing() -> Timing {
        DramConfig::paper_default().timing
    }

    #[test]
    fn act_then_col_after_trcd() {
        let t = timing();
        let mut b = BankTiming::new();
        assert_eq!(b.next_act_at(), 0);
        b.activate(RowId(5), 0, &t);
        assert_eq!(b.open_row, Some(RowId(5)));
        assert_eq!(b.next_col_at(), t.trcd);
        assert_eq!(b.next_act_at(), t.trc);
    }

    #[test]
    fn pre_respects_tras_and_trtp() {
        let t = timing();
        let mut b = BankTiming::new();
        b.activate(RowId(1), 0, &t);
        assert_eq!(b.next_pre_at(), t.tras);
        // A late read pushes the precharge out.
        let rd_at = t.trcd + 30;
        b.read(rd_at, &t);
        assert_eq!(b.next_pre_at(), (rd_at + t.trtp).max(t.tras));
    }

    #[test]
    fn act_to_act_same_bank_respects_trc() {
        let t = timing();
        let mut b = BankTiming::new();
        b.activate(RowId(1), 0, &t);
        b.precharge(t.tras, &t);
        // Next ACT waits for both tRC from the ACT and tRP from the PRE.
        // At Table II timings tRAS + tRP = tRC in nanoseconds; integer
        // cycle rounding can push the PRE path one cycle past tRC.
        assert_eq!(b.next_act_at(), t.trc.max(t.tras + t.trp));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = timing();
        let mut b = BankTiming::new();
        b.activate(RowId(1), 0, &t);
        let wr_at = t.trcd;
        b.write(wr_at, &t);
        let exp = wr_at + t.tcwl + t.tbl + t.twr;
        assert!(exp > t.tras, "write recovery is the binding constraint");
        assert_eq!(b.next_pre_at(), exp);
    }

    #[test]
    fn faw_blocks_fifth_activation() {
        // Table II has tFAW = 4 x tRRD_S, so tRRD_S alone already spaces
        // the 5th ACT out; widen tFAW to make the window the binding rule.
        let t = Timing {
            tfaw: 4 * timing().trrd_s + 10,
            ..timing()
        };
        let mut r = RankState::new(8);
        // Issue 4 ACTs to different groups as fast as tRRD_S allows.
        let mut now = 0;
        for g in 0..4 {
            assert_eq!(r.act_ready_at(g, &t), now);
            r.activate(g, now, &t);
            now += t.trrd_s;
        }
        // The 5th ACT must wait for the tFAW window of the 1st.
        assert_eq!(r.act_ready_at(4, &t), t.tfaw);
    }

    #[test]
    fn trrd_l_within_group_exceeds_trrd_s() {
        let t = timing();
        assert!(t.trrd_l > t.trrd_s);
        let mut r = RankState::new(8);
        r.activate(0, 0, &t);
        assert_eq!(r.act_ready_at(0, &t), t.trrd_l);
        assert_eq!(r.act_ready_at(1, &t), t.trrd_s);
    }

    #[test]
    fn refresh_blocking_stalls_bank_and_rank() {
        let t = timing();
        let mut b = BankTiming::new();
        let mut r = RankState::new(8);
        b.block_until(1000);
        r.block_until(1000);
        r.column(5, 990, &t);
        assert_eq!(b.next_act_at(), 1000);
        assert_eq!(r.busy_until_at(), 1000);
        assert_eq!(r.act_ready_at(0, &t), 1000);
        assert_eq!(r.col_ready_at(0), 1000);
        // tCCD_L from the column command outlasts the busy window.
        assert_eq!(r.col_ready_at(5), 990 + t.tccd_l);
    }

    #[test]
    fn refresh_waits_for_closed_and_settled_bank() {
        // A REF/RFM needs the bank precharged and `next_act_at` reached.
        let t = timing();
        let mut b = BankTiming::new();
        assert_eq!((b.open_row, b.next_act_at()), (None, 0));
        b.activate(RowId(1), 0, &t);
        assert!(b.open_row.is_some());
        b.precharge(t.tras, &t);
        assert_eq!(b.open_row, None);
        assert_eq!(b.next_act_at(), t.trc.max(t.tras + t.trp));
    }

    #[test]
    fn plain_ddr5_timing_is_faster() {
        let prac = Timing::from_ns(&TimingNs::ddr5_prac(), 3200);
        let plain = Timing::from_ns(&TimingNs::ddr5_plain(), 3200);
        assert!(plain.trc < prac.trc);
        assert!(plain.trp < prac.trp);
    }
}

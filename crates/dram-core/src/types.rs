//! Fundamental identifiers and command vocabulary shared across the
//! simulator stack.

use std::fmt;

/// A point in time, measured in integer memory-controller clock cycles
/// (3200 MHz for the default DDR5-6400 configuration, i.e. 0.3125 ns per
/// cycle).
pub type Cycle = u64;

/// A DRAM row index within a single bank.
///
/// Rows are the granularity at which Rowhammer mitigation operates: PRAC
/// attaches one activation counter to each row, and a mitigation refreshes
/// the rows within the blast radius of an aggressor row.
///
/// ```
/// use dram_core::RowId;
/// let r = RowId(42);
/// assert_eq!(r.0, 42);
/// assert!(RowId(1) < RowId(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub u32);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row{}", self.0)
    }
}

/// Flat bank index within a channel: `rank * (groups * banks_per_group) +
/// bank_group * banks_per_group + bank`.
///
/// The flat form is what the device and memory controller index with; use
/// [`BankCoord`] when the rank/bank-group decomposition matters (e.g. for
/// same-bank RFM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(pub u16);

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// Structured bank coordinates within a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankCoord {
    /// Rank index within the channel.
    pub rank: u8,
    /// Bank group within the rank.
    pub bank_group: u8,
    /// Bank within the bank group.
    pub bank: u8,
}

/// A fully decoded DRAM address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramAddr {
    /// Channel index, selected by the address mapper's channel-select
    /// stage (always 0 in the default single-channel configuration).
    pub channel: u8,
    /// Rank, bank-group and bank coordinates.
    pub coord: BankCoord,
    /// Row within the bank.
    pub row: RowId,
    /// Column in cache-line units (64 B granularity).
    pub col: u16,
}

/// The DRAM command vocabulary relevant to this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Row activation (opens a row; increments its PRAC counter).
    Act,
    /// Precharge (closes the open row; PRAC counter update completes here,
    /// which is why PRAC stretches `tRP`).
    Pre,
    /// Column read burst (64 B).
    Rd,
    /// Column write burst (64 B).
    Wr,
    /// All-bank refresh for one rank.
    Ref,
    /// Refresh-management command giving the DRAM time to mitigate.
    Rfm(RfmKind),
}

/// The granularity of a Refresh Management command (paper §VI-E, Fig 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RfmKind {
    /// All-bank RFM: every bank in the channel is blocked for `tRFM`.
    /// This is what the ABO protocol must use today because the Alert pin
    /// cannot identify the alerting bank.
    #[default]
    AllBank,
    /// Same-bank RFM: blocks the addressed bank in each of the bank groups
    /// of both ranks (one bank per group).
    SameBank,
    /// Per-bank RFM: blocks exactly one bank (a proposed interface change).
    PerBank,
}

impl fmt::Display for RfmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RfmKind::AllBank => write!(f, "RFMab"),
            RfmKind::SameBank => write!(f, "RFMsb"),
            RfmKind::PerBank => write!(f, "RFMpb"),
        }
    }
}

/// Why an RFM command was issued; determines how mitigations performed
/// during it are attributed in the statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfmCause {
    /// Servicing an Alert Back-Off request.
    AlertService,
    /// Controller-scheduled periodic RFM (rate-based mitigations such as
    /// PrIDE and Mithril).
    Periodic,
}

/// How a mitigation was triggered (paper Fig 4: on Alert, opportunistic on
/// RFMab, proactive on REF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationCause {
    /// The bank's own alert was being serviced.
    Alert,
    /// Another bank's alert caused an all-bank RFM and this bank mitigated
    /// opportunistically.
    Opportunistic,
    /// Issued in the shadow of a periodic REF command.
    Proactive,
    /// Issued during a controller-scheduled periodic RFM.
    Periodic,
}

/// Dense set of flat bank indices backed by `u64` words, iterated in
/// ascending order. Shared by the device's alerting-bank bookkeeping and
/// the memory controller's queue-occupancy tracking, so the hot per-cycle
/// scans touch one word per 64 banks instead of scanning per bank.
#[derive(Debug, Clone, Default)]
pub struct BankBitSet {
    words: Vec<u64>,
}

impl BankBitSet {
    /// An empty set sized for `banks` banks.
    pub fn new(banks: usize) -> Self {
        BankBitSet {
            words: vec![0; banks.div_ceil(64)],
        }
    }

    /// Add `bank` to the set.
    pub fn insert(&mut self, bank: usize) {
        self.words[bank / 64] |= 1u64 << (bank % 64);
    }

    /// Remove `bank` from the set.
    pub fn remove(&mut self, bank: usize) {
        self.words[bank / 64] &= !(1u64 << (bank % 64));
    }

    /// Whether `bank` is in the set.
    pub fn contains(&self, bank: usize) -> bool {
        self.words[bank / 64] & (1u64 << (bank % 64)) != 0
    }

    /// Remove every bank.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Add every bank of `other` (a set of the same size).
    pub fn union_with(&mut self, other: &BankBitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Keep only the banks for which `keep` returns true, visiting the
    /// members in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest ^= bit;
                // Branch-free: which members go is data-dependent and
                // would mispredict.
                let drop = u64::from(!keep(w * 64 + bit.trailing_zeros() as usize));
                *word ^= bit & drop.wrapping_neg();
            }
        }
    }

    /// The lowest bank index in the set, if any.
    pub fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find_map(|(w, &word)| (word != 0).then(|| w * 64 + word.trailing_zeros() as usize))
    }

    /// The backing bit words, 64 banks per word, bank `b` at bit
    /// `b % 64` of word `b / 64`. Exposed so per-cycle scans can
    /// combine bank membership with other per-bank predicates in
    /// branchless word-at-a-time passes.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Set members in ascending order (matches a `0..banks` scan, so
    /// scheduler tie-breaking over this iteration is order-stable).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)))
                .take_while(|&x| x != 0)
                .map(move |x| w * 64 + x.trailing_zeros() as usize)
        })
    }
}

/// Convert nanoseconds to (ceil) memory cycles at the given frequency.
///
/// ```
/// use dram_core::types::ns_to_cycles;
/// // 16 ns at 3200 MHz = 51.2 cycles, rounded up to 52.
/// assert_eq!(ns_to_cycles(16.0, 3200), 52);
/// ```
pub fn ns_to_cycles(ns: f64, freq_mhz: u64) -> Cycle {
    (ns * freq_mhz as f64 / 1000.0).ceil() as Cycle
}

/// Convert memory cycles back to nanoseconds.
pub fn cycles_to_ns(cycles: Cycle, freq_mhz: u64) -> f64 {
    cycles as f64 * 1000.0 / freq_mhz as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip_is_monotone() {
        let freq = 3200;
        let mut last = 0;
        for ns in [0.0, 0.1, 5.0, 16.0, 36.0, 52.0, 180.0, 350.0, 410.0, 3900.0] {
            let c = ns_to_cycles(ns, freq);
            assert!(c >= last, "cycles must be monotone in ns");
            assert!(cycles_to_ns(c, freq) + 1e-9 >= ns, "ceil never undershoots");
            last = c;
        }
    }

    #[test]
    fn table_two_conversions() {
        // Spot-check the Table II values used throughout the paper.
        assert_eq!(ns_to_cycles(52.0, 3200), 167); // tRC = 52 ns -> 166.4
        assert_eq!(ns_to_cycles(350.0, 3200), 1120); // tRFMab
        assert_eq!(ns_to_cycles(3900.0, 3200), 12480); // tREFI
        assert_eq!(ns_to_cycles(180.0, 3200), 576); // ABO window
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(RowId(7).to_string(), "row7");
        assert_eq!(BankId(3).to_string(), "bank3");
        assert_eq!(RfmKind::AllBank.to_string(), "RFMab");
        assert_eq!(RfmKind::SameBank.to_string(), "RFMsb");
        assert_eq!(RfmKind::PerBank.to_string(), "RFMpb");
    }

    #[test]
    fn bank_bitset_round_trips_and_iterates_in_order() {
        let mut s = BankBitSet::new(130);
        for b in [0usize, 3, 63, 64, 65, 129] {
            s.insert(b);
            assert!(s.contains(b));
        }
        assert_eq!(s.first(), Some(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 65, 129]);
        s.remove(0);
        s.remove(64);
        assert!(!s.contains(0));
        assert_eq!(s.first(), Some(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 65, 129]);
        s.clear();
        assert_eq!(s.first(), None);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn row_ids_order_by_index() {
        let mut v = vec![RowId(9), RowId(1), RowId(5)];
        v.sort();
        assert_eq!(v, vec![RowId(1), RowId(5), RowId(9)]);
    }
}

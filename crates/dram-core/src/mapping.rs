//! Physical-address to DRAM-coordinate mapping.
//!
//! Two schemes are provided:
//!
//! - [`MappingScheme::RowBankCol`]: `row : rank : bank-group : bank : col :
//!   offset` — consecutive cache lines stay in one row (maximum row-buffer
//!   locality, minimum bank parallelism).
//! - [`MappingScheme::MopXor`] (default): a Ramulator-style
//!   "minimalist open page" layout that interleaves 4-line chunks across
//!   bank groups/banks/ranks and XORs low row bits into the bank index to
//!   spread conflicts. This is the scheme used for all paper experiments.
//!
//! When the configuration has more than one channel, both schemes gain a
//! channel-select digit directly above the lowest column digit, so
//! consecutive chunks interleave across channels before they interleave
//! across banks. Under [`MappingScheme::MopXor`] the channel digit is
//! additionally XOR-folded with low row bits (the same self-inverse fold
//! the scheme applies to the bank group), decorrelating channel choice
//! from row-strided patterns. With `channels = 1` the digit is constant
//! zero and both schemes decode exactly as the single-channel mapper
//! always has.
//!
//! Both mappings are bijective over the total (all-channel) capacity,
//! which the property tests verify.

use crate::config::DramConfig;
use crate::types::{BankCoord, DramAddr, RowId};

/// Split `x` into its lowest base-`n` digit and the digits above it.
/// The digit counts of every shipped geometry are powers of two, where
/// this is a mask and a shift instead of two 64-bit divisions (decoding
/// runs once per LLC miss and writeback).
#[inline]
fn split_digit(x: u64, n: u64) -> (u64, u64) {
    if n.is_power_of_two() {
        (x & (n - 1), x >> n.trailing_zeros())
    } else {
        (x % n, x / n)
    }
}

/// Address interleaving scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingScheme {
    /// Row-major: maximal spatial locality within a row.
    RowBankCol,
    /// Minimalist-open-page with bank XOR (default; Ramulator2-like).
    #[default]
    MopXor,
}

/// Translates physical line addresses to DRAM coordinates and back.
#[derive(Debug, Clone)]
pub struct AddressMapper {
    scheme: MappingScheme,
    channels: u32,
    ranks: u32,
    groups: u32,
    banks: u32,
    rows: u32,
    cols: u32,
    /// Lines per minimalist-open-page chunk.
    mop: u32,
}

impl AddressMapper {
    /// Build a mapper for the given device configuration.
    pub fn new(cfg: &DramConfig, scheme: MappingScheme) -> Self {
        assert!(
            cfg.channels >= 1 && (cfg.channels as u32).is_power_of_two(),
            "channel count must be a power of two for the XOR channel fold, got {}",
            cfg.channels
        );
        AddressMapper {
            scheme,
            channels: cfg.channels as u32,
            ranks: cfg.ranks as u32,
            groups: cfg.bank_groups as u32,
            banks: cfg.banks_per_group as u32,
            rows: cfg.rows_per_bank,
            cols: cfg.lines_per_row(),
            mop: 4,
        }
    }

    /// Total cache lines addressable across all channels.
    pub fn num_lines(&self) -> u64 {
        self.channels as u64
            * self.ranks as u64
            * self.groups as u64
            * self.banks as u64
            * self.rows as u64
            * self.cols as u64
    }

    /// `line` wrapped into the addressable range (`line % num_lines()`).
    pub fn wrap(&self, line: u64) -> u64 {
        split_digit(line, self.num_lines()).0
    }

    /// Decode a line address (byte address / 64) into DRAM coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `line >= num_lines()` (addresses are expected to be
    /// wrapped by the caller; the workload layer guarantees this).
    pub fn decode(&self, line: u64) -> DramAddr {
        assert!(line < self.num_lines(), "line address out of range");
        match self.scheme {
            MappingScheme::RowBankCol => self.decode_row_major(line),
            MappingScheme::MopXor => self.decode_mop(line),
        }
    }

    /// Encode DRAM coordinates back into a line address (inverse of
    /// [`decode`](Self::decode)).
    pub fn encode(&self, addr: &DramAddr) -> u64 {
        match self.scheme {
            MappingScheme::RowBankCol => self.encode_row_major(addr),
            MappingScheme::MopXor => self.encode_mop(addr),
        }
    }

    fn decode_row_major(&self, line: u64) -> DramAddr {
        let (col, x) = split_digit(line, self.cols as u64);
        let (channel, x) = split_digit(x, self.channels as u64);
        let (bank, x) = split_digit(x, self.banks as u64);
        let (group, x) = split_digit(x, self.groups as u64);
        let (rank, row) = split_digit(x, self.ranks as u64);
        DramAddr {
            channel: channel as u8,
            coord: BankCoord {
                rank: rank as u8,
                bank_group: group as u8,
                bank: bank as u8,
            },
            row: RowId(row as u32),
            col: col as u16,
        }
    }

    fn encode_row_major(&self, a: &DramAddr) -> u64 {
        let mut x = a.row.0 as u64;
        x = x * self.ranks as u64 + a.coord.rank as u64;
        x = x * self.groups as u64 + a.coord.bank_group as u64;
        x = x * self.banks as u64 + a.coord.bank as u64;
        x = x * self.channels as u64 + a.channel as u64;
        x * self.cols as u64 + a.col as u64
    }

    /// MOP layout, line-address digits from least significant:
    /// `[mop-chunk col] [channel] [bank group] [bank] [rank] [col hi]
    /// [row]`, with the channel and bank-group digits XOR-folded with
    /// low row bits.
    fn decode_mop(&self, line: u64) -> DramAddr {
        let (col_lo, x) = split_digit(line, self.mop as u64);
        let (channel_raw, x) = split_digit(x, self.channels as u64);
        let (group_raw, x) = split_digit(x, self.groups as u64);
        let (bank, x) = split_digit(x, self.banks as u64);
        let (rank, x) = split_digit(x, self.ranks as u64);
        let (col_hi, row) = split_digit(x, (self.cols / self.mop) as u64);
        // XOR-fold low row bits into the bank group (and the channel,
        // when there is more than one) to decorrelate row-conflicts from
        // stride patterns (self-inverse, so encode uses the same folds;
        // both digit counts are powers of two, keeping the fold closed).
        let fold = |raw: u64, n: u32| split_digit(raw ^ split_digit(row, n as u64).0, n as u64).0;
        DramAddr {
            channel: fold(channel_raw, self.channels) as u8,
            coord: BankCoord {
                rank: rank as u8,
                bank_group: fold(group_raw, self.groups) as u8,
                bank: bank as u8,
            },
            row: RowId(row as u32),
            col: (col_hi * self.mop as u64 + col_lo) as u16,
        }
    }

    fn encode_mop(&self, a: &DramAddr) -> u64 {
        let row = a.row.0;
        let group_raw = (a.coord.bank_group as u32 ^ (row % self.groups)) % self.groups;
        let channel_raw = (a.channel as u32 ^ (row % self.channels)) % self.channels;
        let col_lo = a.col as u64 % self.mop as u64;
        let col_hi = a.col as u64 / self.mop as u64;
        let col_hi_digits = (self.cols / self.mop) as u64;
        let mut x = row as u64;
        x = x * col_hi_digits + col_hi;
        x = x * self.ranks as u64 + a.coord.rank as u64;
        x = x * self.banks as u64 + a.coord.bank as u64;
        x = x * self.groups as u64 + group_raw as u64;
        x = x * self.channels as u64 + channel_raw as u64;
        x * self.mop as u64 + col_lo
    }

    /// Flat bank index for coordinates (matches [`crate::types::BankId`]).
    pub fn flat_bank(&self, c: &BankCoord) -> u16 {
        (c.rank as u16 * self.groups as u16 + c.bank_group as u16) * self.banks as u16
            + c.bank as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper(scheme: MappingScheme) -> AddressMapper {
        AddressMapper::new(&DramConfig::tiny_test(), scheme)
    }

    #[test]
    fn row_major_keeps_consecutive_lines_in_row() {
        let m = mapper(MappingScheme::RowBankCol);
        let a = m.decode(0);
        let b = m.decode(1);
        assert_eq!(a.row, b.row);
        assert_eq!(a.coord, b.coord);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn mop_interleaves_chunks_across_groups() {
        let m = mapper(MappingScheme::MopXor);
        let a = m.decode(0);
        let b = m.decode(4); // next 4-line chunk
        assert_ne!(
            (a.coord.bank_group, a.coord.bank, a.coord.rank),
            (b.coord.bank_group, b.coord.bank, b.coord.rank),
            "next MOP chunk must land on a different bank"
        );
    }

    #[test]
    fn round_trip_both_schemes_dense_prefix() {
        for scheme in [MappingScheme::RowBankCol, MappingScheme::MopXor] {
            let m = mapper(scheme);
            for line in 0..100_000u64 {
                let a = m.decode(line);
                assert_eq!(m.encode(&a), line, "{scheme:?} line {line}");
            }
        }
    }

    #[test]
    fn coordinates_stay_in_bounds() {
        let cfg = DramConfig::tiny_test();
        let m = AddressMapper::new(&cfg, MappingScheme::MopXor);
        let n = m.num_lines();
        for line in (0..n).step_by(9973) {
            let a = m.decode(line);
            assert!(a.coord.rank < cfg.ranks);
            assert!(a.coord.bank_group < cfg.bank_groups);
            assert!(a.coord.bank < cfg.banks_per_group);
            assert!(a.row.0 < cfg.rows_per_bank);
            assert!((a.col as u32) < cfg.lines_per_row());
        }
    }

    fn with_channels(channels: u8) -> DramConfig {
        DramConfig {
            channels,
            ..DramConfig::tiny_test()
        }
    }

    #[test]
    fn multi_channel_round_trip_both_schemes() {
        for channels in [2u8, 4] {
            for scheme in [MappingScheme::RowBankCol, MappingScheme::MopXor] {
                let m = AddressMapper::new(&with_channels(channels), scheme);
                for line in 0..200_000u64 {
                    let a = m.decode(line);
                    assert!(a.channel < channels, "{scheme:?} line {line}");
                    assert_eq!(m.encode(&a), line, "{scheme:?} line {line}");
                }
            }
        }
    }

    #[test]
    fn mop_interleaves_consecutive_chunks_across_channels() {
        let m = AddressMapper::new(&with_channels(2), MappingScheme::MopXor);
        let a = m.decode(0);
        let b = m.decode(4); // next 4-line chunk
        assert_ne!(a.channel, b.channel, "next MOP chunk must switch channel");
    }

    #[test]
    fn channels_balance_under_dense_sweep() {
        let channels = 4u8;
        let m = AddressMapper::new(&with_channels(channels), MappingScheme::MopXor);
        let mut counts = vec![0u64; channels as usize];
        for line in 0..40_000u64 {
            counts[m.decode(line).channel as usize] += 1;
        }
        for (c, &n) in counts.iter().enumerate() {
            assert_eq!(n, 10_000, "channel {c} unbalanced: {counts:?}");
        }
    }

    #[test]
    fn single_channel_decodes_to_channel_zero() {
        for scheme in [MappingScheme::RowBankCol, MappingScheme::MopXor] {
            let m = mapper(scheme);
            for line in (0..m.num_lines()).step_by(7919) {
                assert_eq!(m.decode(line).channel, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_channels_rejected() {
        let _ = AddressMapper::new(&with_channels(3), MappingScheme::MopXor);
    }

    #[test]
    fn flat_bank_is_dense_and_unique() {
        let cfg = DramConfig::tiny_test();
        let m = AddressMapper::new(&cfg, MappingScheme::MopXor);
        let mut seen = std::collections::HashSet::new();
        for rank in 0..cfg.ranks {
            for group in 0..cfg.bank_groups {
                for bank in 0..cfg.banks_per_group {
                    let f = m.flat_bank(&BankCoord {
                        rank,
                        bank_group: group,
                        bank,
                    });
                    assert!((f as usize) < cfg.num_banks());
                    assert!(seen.insert(f), "duplicate flat bank {f}");
                }
            }
        }
        assert_eq!(seen.len(), cfg.num_banks());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn mapping_is_bijective(line in 0u64..AddressMapper::new(
            &DramConfig::tiny_test(), MappingScheme::MopXor).num_lines()) {
            for channels in [1u8, 2, 4] {
                let cfg = DramConfig { channels, ..DramConfig::tiny_test() };
                for scheme in [MappingScheme::RowBankCol, MappingScheme::MopXor] {
                    let m = AddressMapper::new(&cfg, scheme);
                    let a = m.decode(line);
                    prop_assert_eq!(m.encode(&a), line);
                }
            }
        }

        #[test]
        fn distinct_lines_decode_distinct(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            prop_assume!(a != b);
            let m = AddressMapper::new(&DramConfig::paper_default(), MappingScheme::MopXor);
            let da = m.decode(a);
            let db = m.decode(b);
            prop_assert_ne!((da.coord, da.row, da.col), (db.coord, db.row, db.col));
        }
    }
}

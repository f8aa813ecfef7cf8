//! Per-bank SRAM storage of in-DRAM trackers versus the Rowhammer
//! threshold (paper Table IV).
//!
//! Counter-table trackers need entry counts proportional to the maximum
//! number of rows that can reach the threshold inside a refresh window,
//! i.e. `entries ∝ ACTs_per_tREFW / T_RH`; bytes therefore scale as
//! `C / T_RH`. Each design's constant is calibrated to its published
//! per-bank cost at `T_RH = 4K` (Misra-Gries/Graphene 42.5 KB, TWiCe
//! 300 KB, CAT 196 KB — the anchors in Table IV), which the `T_RH = 100`
//! column then reproduces. QPRAC is constant: five PSQ entries of
//! 17 + 7 bits, read off the mitigation registry's tracker factory so
//! this table and the simulated tracker can never disagree.
//!
//! [`zoo_table_iv`] extends the paper table with one row per design in
//! [`mitigations::registry()`] — same bytes-per-bank columns, storage
//! read off each freshly built tracker.

use mitigations::{MitigationKind, TrackerParams};

/// Published per-bank bytes at the calibration threshold (4096).
const CAL_TRH: f64 = 4096.0;

/// Misra-Gries summary (Graphene-style) per-bank bytes at `trh`.
pub fn misra_gries_bytes(trh: u32) -> f64 {
    42.5 * 1024.0 * CAL_TRH / trh as f64
}

/// TWiCe per-bank bytes at `trh`.
pub fn twice_bytes(trh: u32) -> f64 {
    300.0 * 1024.0 * CAL_TRH / trh as f64
}

/// CAT (Counter Adaptive Tree) per-bank bytes at `trh`.
pub fn cat_bytes(trh: u32) -> f64 {
    196.0 * 1024.0 * CAL_TRH / trh as f64
}

/// QPRAC per-bank bytes — threshold independent (paper: 15 bytes).
/// Derived from the registry's tracker factory (five PSQ entries of
/// 17 + 7 bits), not restated here.
pub fn qprac_bytes(_trh: u32) -> f64 {
    tracker_bytes(MitigationKind::Qprac, 4096)
}

/// Per-bank bytes of any registered design at `trh`, read off a tracker
/// built by its registry factory. The threshold only matters for the
/// rate-based designs (their capacity scales with T_RH); everything
/// else is constant.
pub fn tracker_bytes(kind: MitigationKind, trh: u32) -> f64 {
    let spec = mitigations::spec_of(kind);
    let kind = match spec.at_trh {
        Some(at) => at(trh),
        None => kind,
    };
    let params = TrackerParams::paper_default(kind);
    spec.storage_bits(&params) as f64 / 8.0
}

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageRow {
    /// Tracker name.
    pub name: &'static str,
    /// Bytes per bank at T_RH = 4K.
    pub at_4k: f64,
    /// Bytes per bank at T_RH = 100.
    pub at_100: f64,
}

/// Regenerate Table IV.
pub fn table_iv() -> Vec<StorageRow> {
    let mk = |name, f: fn(u32) -> f64| StorageRow {
        name,
        at_4k: f(4096),
        at_100: f(100),
    };
    vec![
        mk("Misra-Gries", misra_gries_bytes),
        mk("TWiCe", twice_bytes),
        mk("CAT", cat_bytes),
        mk("QPRAC", qprac_bytes),
    ]
}

/// Table IV extended over the whole mitigation zoo: the paper's four
/// literature rows followed by one row per registered design (labelled
/// by canonical-key stem), bytes read off each registry factory.
pub fn zoo_table_iv() -> Vec<StorageRow> {
    let mut rows = table_iv();
    rows.extend(mitigations::registry().iter().map(|spec| StorageRow {
        name: spec.stem,
        at_4k: tracker_bytes(spec.default_kind, 4096),
        at_100: tracker_bytes(spec.default_kind, 100),
    }));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;

    #[test]
    fn table_iv_anchors_at_4k() {
        assert!((misra_gries_bytes(4096) - 42.5 * KB).abs() < 1.0);
        assert!((twice_bytes(4096) - 300.0 * KB).abs() < 1.0);
        assert!((cat_bytes(4096) - 196.0 * KB).abs() < 1.0);
        assert_eq!(qprac_bytes(4096), 15.0);
    }

    #[test]
    fn table_iv_anchors_at_100() {
        // Paper: 1700 KB, 12 MB, 7.84 MB, 15 bytes.
        let mg = misra_gries_bytes(100);
        assert!((mg / KB - 1700.0).abs() / 1700.0 < 0.05, "{} KB", mg / KB);
        let tw = twice_bytes(100);
        assert!((tw / MB - 12.0).abs() / 12.0 < 0.05, "{} MB", tw / MB);
        let cat = cat_bytes(100);
        assert!((cat / MB - 7.84).abs() / 7.84 < 0.05, "{} MB", cat / MB);
        assert_eq!(qprac_bytes(100), 15.0);
    }

    #[test]
    fn qprac_is_threshold_independent() {
        assert_eq!(qprac_bytes(64), qprac_bytes(4096));
    }

    #[test]
    fn counter_tables_grow_as_threshold_falls() {
        for f in [misra_gries_bytes, twice_bytes, cat_bytes] {
            assert!(f(100) > f(1000));
            assert!(f(1000) > f(4096));
        }
    }

    #[test]
    fn qprac_advantage_is_orders_of_magnitude() {
        // At T_RH = 100, QPRAC's 15 bytes vs megabytes for the others.
        assert!(misra_gries_bytes(100) / qprac_bytes(100) > 10_000.0);
    }

    #[test]
    fn table_has_four_rows() {
        assert_eq!(table_iv().len(), 4);
    }

    #[test]
    fn zoo_table_covers_every_registered_design() {
        let rows = zoo_table_iv();
        assert_eq!(rows.len(), 4 + mitigations::registry().len());
        for spec in mitigations::registry() {
            let row = rows
                .iter()
                .find(|r| r.name == spec.stem)
                .unwrap_or_else(|| panic!("{} missing from zoo table", spec.stem));
            assert!(row.at_4k >= 0.0 && row.at_100 >= 0.0);
        }
        // The registry-backed QPRAC row agrees with the paper row.
        let paper = rows.iter().find(|r| r.name == "QPRAC").unwrap();
        let zoo = rows.iter().find(|r| r.name == "qprac").unwrap();
        assert_eq!(paper.at_4k, zoo.at_4k);
        assert_eq!(paper.at_100, zoo.at_100);
        // Rate-based capacity scales with the threshold.
        let mithril = rows.iter().find(|r| r.name == "mithril").unwrap();
        assert!(mithril.at_100 > mithril.at_4k);
    }
}

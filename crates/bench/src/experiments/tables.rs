//! Tables I, II and IV (Table III lives in `perf_figs` since it needs
//! simulation runs). All three are analytical — their specs carry no
//! cells, only an emitter.

use dram_core::{DramConfig, PracParams};
use energy_model::storage;

use crate::csv::Table;
use crate::spec::ExperimentSpec;

/// Table I: PRAC parameters as configured.
pub fn table01_spec() -> ExperimentSpec {
    ExperimentSpec::new("table01", Vec::new(), |_| {
        let p = PracParams::paper_default();
        let mut t = Table::new(
            "table01",
            "Table I: PRAC parameters (JEDEC DDR5 specification)",
            &["parameter", "value"],
        );
        let rows = [
            ("N_BO (Back-Off threshold)".to_string(), p.nbo.to_string()),
            (
                "N_mit (RFMs per alert)".to_string(),
                format!("{} (1, 2 or 4)", p.nmit),
            ),
            (
                "ABO_ACT (max ACTs alert->RFM)".to_string(),
                p.abo_act.to_string(),
            ),
            (
                "ABO_Delay (min ACTs after RFM)".to_string(),
                p.abo_delay.to_string(),
            ),
            ("Blast radius".to_string(), p.blast_radius.to_string()),
        ];
        for (k, v) in rows {
            t.rows.push(vec![k, v]);
        }
        vec![t]
    })
}

/// Table II: system configuration.
pub fn table02_spec() -> ExperimentSpec {
    ExperimentSpec::new("table02", Vec::new(), |_| {
        let d = DramConfig::paper_default();
        let mut table = Table::new(
            "table02",
            "Table II: system configuration",
            &["parameter", "value"],
        );
        let t = d.timing;
        let rows = [
            (
                "Cores".to_string(),
                "4 OoO, 4 GHz, 4-wide, 352-entry ROB".to_string(),
            ),
            (
                "LLC".to_string(),
                "8 MB shared, 8-way, 64 B lines".to_string(),
            ),
            (
                "Memory".to_string(),
                format!("{} GB DDR5", d.capacity_bytes() >> 30),
            ),
            (
                "Bus".to_string(),
                format!("{} MHz ({} MT/s)", d.freq_mhz, 2 * d.freq_mhz),
            ),
            (
                "Organization".to_string(),
                format!(
                    "{} banks x {} groups x {} ranks x {} channel(s)",
                    d.banks_per_group, d.bank_groups, d.ranks, d.channels
                ),
            ),
            (
                "Rows per bank".to_string(),
                format!("{}K x {} KB", d.rows_per_bank / 1024, d.row_bytes / 1024),
            ),
            (
                "tRCD/tCL/tRAS (cycles)".to_string(),
                format!("{}/{}/{}", t.trcd, t.tcl, t.tras),
            ),
            (
                "tRP/tRTP/tWR/tRC (cycles)".to_string(),
                format!("{}/{}/{}/{}", t.trp, t.trtp, t.twr, t.trc),
            ),
            (
                "tRFC/tREFI (cycles)".to_string(),
                format!("{}/{}", t.trfc, t.trefi),
            ),
            (
                "tABO_ACT/tRFMab (cycles)".to_string(),
                format!("{}/{}", t.tabo_act, t.trfm),
            ),
            (
                "ACTs per tREFI (per bank)".to_string(),
                d.acts_per_trefi().to_string(),
            ),
            (
                "ACTs per tREFW (per bank)".to_string(),
                d.acts_per_trefw().to_string(),
            ),
        ];
        for (k, v) in rows {
            table.rows.push(vec![k, v]);
        }
        vec![table]
    })
}

/// Table IV: per-bank SRAM of in-DRAM trackers.
pub fn table04_spec() -> ExperimentSpec {
    ExperimentSpec::new("table04", Vec::new(), |_| {
        let mut t = Table::new(
            "table04",
            "Table IV: per-bank SRAM overhead of in-DRAM trackers (bytes)",
            &["tracker", "trh_4k", "trh_100"],
        );
        for row in storage::table_iv() {
            t.rows.push(vec![
                row.name.to_string(),
                format!("{:.0}", row.at_4k),
                format!("{:.0}", row.at_100),
            ]);
        }
        vec![t.with_note("(paper: 42.5KB/1700KB, 300KB/12MB, 196KB/7.84MB, 15B/15B)")]
    })
}

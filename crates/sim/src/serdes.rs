//! Lossless text serialization for [`RunStats`]: the golden-snapshot
//! renderer, the reference the binary [`crate::codec`] is tested
//! against, and what `qprac-client run` prints. Results are stored and
//! sent in the binary codec only.
//!
//! The rendering reuses the golden-snapshot format of
//! `crates/sim/tests/golden/` ([`RunStats::golden_repr`]: one
//! `field=value` line per field, nested structs in their `{:?}` form,
//! floats in Rust's shortest round-trip formatting) plus one extra
//! `channel_device=[...]` line the golden files deliberately omit.
//! Because `{:?}` floats round-trip exactly, `from_text(to_text(s)) ==
//! s` bit-for-bit.
//!
//! The parser is deliberately strict: an unknown field, a missing
//! field, or a malformed value is an error, never a default.

use cpu_model::{CacheStats, CoreStats};
use dram_core::DeviceStats;
use energy_model::EnergyBreakdown;
use mem_ctrl::McStats;

use crate::attack::BwAttackStats;
use crate::stats::RunStats;

/// The value one simulation cell produces — the unit of the bench run
/// cache and of the `qprac-serve` wire protocol. (`Stats` is boxed: a
/// `RunStats` is an order of magnitude larger than the other variants.)
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// A full-system run ([`crate::run_workload`] / [`crate::run_mix`]).
    Stats(Box<RunStats>),
    /// A bandwidth-attack run ([`crate::run_bandwidth_attack`]).
    Attack(BwAttackStats),
    /// A bench-side attack-engine count (client-executed closures).
    Count(u64),
}

impl CellResult {
    /// Short kind tag naming the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            CellResult::Stats(_) => "stats",
            CellResult::Attack(_) => "attack",
            CellResult::Count(_) => "count",
        }
    }

    /// The lossless text payload for this result (without its `kind()`
    /// tag).
    pub fn payload(&self) -> String {
        match self {
            CellResult::Stats(s) => to_text(s),
            CellResult::Attack(a) => attack_to_text(a),
            CellResult::Count(c) => c.to_string(),
        }
    }

    /// Parse a `(kind, payload)` pair back into a result. Strict like
    /// every parser in this module: an unknown kind or a malformed
    /// payload is an error.
    pub fn from_payload(kind: &str, payload: &str) -> Result<CellResult, String> {
        match kind {
            "stats" => from_text(payload).map(|s| CellResult::Stats(Box::new(s))),
            "attack" => attack_from_text(payload).map(CellResult::Attack),
            "count" => payload
                .trim()
                .parse()
                .map(CellResult::Count)
                .map_err(|e| format!("bad count payload {payload:?}: {e}")),
            other => Err(format!("unknown cell-result kind {other:?}")),
        }
    }
}

/// Render a [`BwAttackStats`] in the cacheable text form.
pub fn attack_to_text(a: &BwAttackStats) -> String {
    format!(
        "acts={}\nmem_cycles={}\nalerts={}\nrfms={}",
        a.acts, a.mem_cycles, a.alerts, a.rfms
    )
}

/// Parse the output of [`attack_to_text`]. Strict: unknown, missing,
/// duplicated or malformed fields are errors.
pub fn attack_from_text(payload: &str) -> Result<BwAttackStats, String> {
    let mut acts = None;
    let mut mem_cycles = None;
    let mut alerts = None;
    let mut rfms = None;
    for line in payload.lines() {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed attack line {line:?}"))?;
        let v: u64 = p_u64(v)?;
        let slot = match k {
            "acts" => &mut acts,
            "mem_cycles" => &mut mem_cycles,
            "alerts" => &mut alerts,
            "rfms" => &mut rfms,
            other => return Err(format!("unknown BwAttackStats field {other:?}")),
        };
        if slot.replace(v).is_some() {
            return Err(format!("duplicate BwAttackStats field {k:?}"));
        }
    }
    let get = |o: Option<u64>, n: &str| o.ok_or_else(|| format!("missing attack field {n:?}"));
    Ok(BwAttackStats {
        acts: get(acts, "acts")?,
        mem_cycles: get(mem_cycles, "mem_cycles")?,
        alerts: get(alerts, "alerts")?,
        rfms: get(rfms, "rfms")?,
    })
}

/// Render `stats` in the cacheable text form.
pub fn to_text(stats: &RunStats) -> String {
    format!(
        "{}\nchannel_device={:?}",
        stats.golden_repr(),
        stats.channel_device
    )
}

/// Parse the output of [`to_text`] back into a [`RunStats`].
pub fn from_text(text: &str) -> Result<RunStats, String> {
    let mut out = RunStats {
        cpu_cycles: 0,
        mem_cycles: 0,
        core_ipc: Vec::new(),
        cpu: CoreStats::default(),
        cache: CacheStats::default(),
        mc: McStats::default(),
        device: DeviceStats::default(),
        channel_device: Vec::new(),
        energy: EnergyBreakdown::default(),
        runtime_ns: 0.0,
        trefi_cycles: 0,
    };
    let mut seen: Vec<&str> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed line {line:?}"))?;
        if seen.contains(&key) {
            return Err(format!("duplicate RunStats field {key:?}"));
        }
        match key {
            "cpu_cycles" => out.cpu_cycles = p_u64(value)?,
            "mem_cycles" => out.mem_cycles = p_u64(value)?,
            "core_ipc" => out.core_ipc = parse_f64_list(value)?,
            "cpu" => out.cpu = parse_core_stats(value)?,
            "cache" => out.cache = parse_cache_stats(value)?,
            "mc" => out.mc = parse_mc_stats(value)?,
            "device" => out.device = parse_device_stats(value)?,
            "energy" => out.energy = parse_energy(value)?,
            "runtime_ns" => out.runtime_ns = p_f64(value)?,
            "trefi_cycles" => out.trefi_cycles = p_u64(value)?,
            "channel_device" => out.channel_device = parse_device_list(value)?,
            other => return Err(format!("unknown RunStats field {other:?}")),
        }
        seen.push(key);
    }
    if seen.len() != 11 {
        return Err(format!("expected 11 RunStats fields, found {}", seen.len()));
    }
    Ok(out)
}

fn p_u64(s: &str) -> Result<u64, String> {
    s.trim().parse().map_err(|e| format!("bad u64 {s:?}: {e}"))
}

fn p_f64(s: &str) -> Result<f64, String> {
    s.trim().parse().map_err(|e| format!("bad f64 {s:?}: {e}"))
}

/// Strip `Name { body }` down to `body`.
fn struct_body<'a>(s: &'a str, name: &str) -> Result<&'a str, String> {
    let s = s.trim();
    let body = s
        .strip_prefix(name)
        .and_then(|r| r.trim_start().strip_prefix('{'))
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| format!("expected {name} {{ .. }}, got {s:?}"))?;
    Ok(body.trim())
}

/// Strip `[ body ]` down to `body`.
fn list_body(s: &str) -> Result<&str, String> {
    s.trim()
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("expected [..], got {s:?}"))
}

/// Split on `,` at brace/bracket depth 0, skipping empty segments.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                let piece = s[start..i].trim();
                if !piece.is_empty() {
                    out.push(piece);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    let piece = s[start..].trim();
    if !piece.is_empty() {
        out.push(piece);
    }
    out
}

/// Iterate the `field: value` pairs of a struct body.
fn fields(body: &str) -> Result<Vec<(&str, &str)>, String> {
    split_top_level(body)
        .into_iter()
        .map(|f| {
            f.split_once(':')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("malformed struct field {f:?}"))
        })
        .collect()
}

fn parse_f64_list(s: &str) -> Result<Vec<f64>, String> {
    split_top_level(list_body(s)?)
        .into_iter()
        .map(p_f64)
        .collect()
}

fn parse_core_stats(s: &str) -> Result<CoreStats, String> {
    let mut out = CoreStats::default();
    let fs = fields(struct_body(s, "CoreStats")?)?;
    expect_fields("CoreStats", &fs, 5)?;
    for (k, v) in fs {
        match k {
            "retired" => out.retired = p_u64(v)?,
            "cycles" => out.cycles = p_u64(v)?,
            "loads" => out.loads = p_u64(v)?,
            "stores" => out.stores = p_u64(v)?,
            "stall_cycles" => out.stall_cycles = p_u64(v)?,
            other => return Err(format!("unknown CoreStats field {other:?}")),
        }
    }
    Ok(out)
}

fn parse_cache_stats(s: &str) -> Result<CacheStats, String> {
    let mut out = CacheStats::default();
    let fs = fields(struct_body(s, "CacheStats")?)?;
    expect_fields("CacheStats", &fs, 5)?;
    for (k, v) in fs {
        match k {
            "hits" => out.hits = p_u64(v)?,
            "misses" => out.misses = p_u64(v)?,
            "merged" => out.merged = p_u64(v)?,
            "blocked" => out.blocked = p_u64(v)?,
            "writebacks" => out.writebacks = p_u64(v)?,
            other => return Err(format!("unknown CacheStats field {other:?}")),
        }
    }
    Ok(out)
}

fn parse_mc_stats(s: &str) -> Result<McStats, String> {
    let mut out = McStats::default();
    let fs = fields(struct_body(s, "McStats")?)?;
    expect_fields("McStats", &fs, 5)?;
    for (k, v) in fs {
        match k {
            "reads" => out.reads = p_u64(v)?,
            "writes" => out.writes = p_u64(v)?,
            "read_latency_sum" => out.read_latency_sum = p_u64(v)?,
            "alert_service_cycles" => out.alert_service_cycles = p_u64(v)?,
            "rejected" => out.rejected = p_u64(v)?,
            other => return Err(format!("unknown McStats field {other:?}")),
        }
    }
    Ok(out)
}

fn parse_device_stats(s: &str) -> Result<DeviceStats, String> {
    let mut out = DeviceStats::default();
    let fs = fields(struct_body(s, "DeviceStats")?)?;
    expect_fields("DeviceStats", &fs, 15)?;
    for (k, v) in fs {
        match k {
            "acts" => out.acts = p_u64(v)?,
            "pres" => out.pres = p_u64(v)?,
            "reads" => out.reads = p_u64(v)?,
            "writes" => out.writes = p_u64(v)?,
            "refs" => out.refs = p_u64(v)?,
            "rfm_ab" => out.rfm_ab = p_u64(v)?,
            "rfm_sb" => out.rfm_sb = p_u64(v)?,
            "rfm_pb" => out.rfm_pb = p_u64(v)?,
            "alerts" => out.alerts = p_u64(v)?,
            "mitigations_alert" => out.mitigations_alert = p_u64(v)?,
            "mitigations_opportunistic" => out.mitigations_opportunistic = p_u64(v)?,
            "mitigations_proactive" => out.mitigations_proactive = p_u64(v)?,
            "mitigations_periodic" => out.mitigations_periodic = p_u64(v)?,
            "victim_refreshes" => out.victim_refreshes = p_u64(v)?,
            "aggressor_resets" => out.aggressor_resets = p_u64(v)?,
            other => return Err(format!("unknown DeviceStats field {other:?}")),
        }
    }
    Ok(out)
}

fn parse_energy(s: &str) -> Result<EnergyBreakdown, String> {
    let mut out = EnergyBreakdown::default();
    let fs = fields(struct_body(s, "EnergyBreakdown")?)?;
    expect_fields("EnergyBreakdown", &fs, 5)?;
    for (k, v) in fs {
        match k {
            "demand_nj" => out.demand_nj = p_f64(v)?,
            "refresh_nj" => out.refresh_nj = p_f64(v)?,
            "mitigation_nj" => out.mitigation_nj = p_f64(v)?,
            "tracker_nj" => out.tracker_nj = p_f64(v)?,
            "background_nj" => out.background_nj = p_f64(v)?,
            other => return Err(format!("unknown EnergyBreakdown field {other:?}")),
        }
    }
    Ok(out)
}

fn parse_device_list(s: &str) -> Result<Vec<DeviceStats>, String> {
    split_top_level(list_body(s)?)
        .into_iter()
        .map(parse_device_stats)
        .collect()
}

fn expect_fields(name: &str, fs: &[(&str, &str)], want: usize) -> Result<(), String> {
    if fs.len() != want {
        return Err(format!("{name} has {} fields, expected {want}", fs.len()));
    }
    // A duplicated field would otherwise mask a missing one (the count
    // alone cannot tell them apart) and let the missing field silently
    // keep its default.
    for (i, (k, _)) in fs.iter().enumerate() {
        if fs[..i].iter().any(|(prev, _)| prev == k) {
            return Err(format!("{name} has duplicate field {k:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            cpu_cycles: 33268,
            mem_cycles: 26614,
            core_ipc: vec![0.194_011_511_349_673_43, 0.202_497_468_781_640_24],
            cpu: CoreStats {
                retired: 24799,
                cycles: 33268,
                loads: 1549,
                stores: 1557,
                stall_cycles: 126_571,
            },
            cache: CacheStats {
                hits: 24,
                misses: 3082,
                merged: 1,
                blocked: 2,
                writebacks: 3,
            },
            mc: McStats {
                reads: 3056,
                writes: 4,
                read_latency_sum: 1_001_186,
                alert_service_cycles: 17,
                rejected: 1,
            },
            device: DeviceStats {
                acts: 2974,
                pres: 2931,
                reads: 3056,
                writes: 4,
                refs: 3,
                alerts: 9,
                ..Default::default()
            },
            channel_device: vec![
                DeviceStats {
                    acts: 1500,
                    alerts: 5,
                    ..Default::default()
                },
                DeviceStats {
                    acts: 1474,
                    alerts: 4,
                    ..Default::default()
                },
            ],
            energy: EnergyBreakdown {
                demand_nj: 10821.2,
                refresh_nj: 630.0,
                mitigation_nj: 0.25,
                tracker_nj: 3.271_400_000_000_000_3,
                background_nj: 1_247.531_25,
            },
            runtime_ns: 8316.875,
            trefi_cycles: 12480,
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let s = sample();
        let text = to_text(&s);
        let back = from_text(&text).expect("parse");
        assert_eq!(s, back);
        // Idempotent re-render too.
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn unknown_field_is_an_error() {
        let text = to_text(&sample()) + "\nbogus=1";
        assert!(from_text(&text).is_err());
    }

    #[test]
    fn missing_field_is_an_error() {
        let text = to_text(&sample());
        let truncated: Vec<&str> = text.lines().take(10).collect();
        assert!(from_text(&truncated.join("\n")).is_err());
    }

    #[test]
    fn struct_field_drift_is_an_error() {
        let text = to_text(&sample()).replace("stall_cycles", "stale_cycles");
        assert!(from_text(&text).is_err());
    }

    #[test]
    fn duplicated_line_cannot_mask_a_missing_line() {
        // Drop `trefi_cycles=...` but pad the line count back with a
        // duplicate — a count-only check would accept this and leave
        // trefi_cycles silently defaulted to 0.
        let text = to_text(&sample());
        let forged: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.starts_with("trefi_cycles=") {
                    "cpu_cycles=33268"
                } else {
                    l
                }
            })
            .collect();
        assert!(from_text(&forged.join("\n")).is_err());
    }

    #[test]
    fn duplicated_struct_field_cannot_mask_a_missing_one() {
        let text = to_text(&sample()).replace("loads: 1549", "retired: 24799");
        assert!(from_text(&text).is_err());
    }

    #[test]
    fn cell_result_payloads_round_trip() {
        let cells = [
            CellResult::Stats(Box::new(sample())),
            CellResult::Attack(BwAttackStats {
                acts: 7,
                mem_cycles: 1000,
                alerts: 3,
                rfms: 4,
            }),
            CellResult::Count(99),
        ];
        for cell in cells {
            let back = CellResult::from_payload(cell.kind(), &cell.payload()).expect("parse");
            assert_eq!(back, cell);
        }
    }

    #[test]
    fn attack_parser_is_strict() {
        let good = attack_to_text(&BwAttackStats {
            acts: 1,
            mem_cycles: 2,
            alerts: 3,
            rfms: 4,
        });
        assert!(attack_from_text(&good.replace("rfms", "rfmz")).is_err());
        assert!(attack_from_text(good.trim_end_matches(|c| c != '\n')).is_err());
        assert!(attack_from_text(&format!("{good}\nacts=1")).is_err());
        assert!(CellResult::from_payload("blob", "x").is_err());
        assert!(CellResult::from_payload("count", "not-a-number").is_err());
    }

    #[test]
    fn split_top_level_respects_nesting() {
        let parts = split_top_level("DeviceStats { a: 1, b: 2 }, DeviceStats { a: 3, b: 4 }");
        assert_eq!(parts.len(), 2);
        assert!(parts[0].starts_with("DeviceStats"));
    }
}

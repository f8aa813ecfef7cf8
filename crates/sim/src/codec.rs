//! [`CellResult`] — the value one simulation cell produces — and its
//! versioned binary serialization, the one format results are stored
//! in and sent as.
//!
//! Warm cache hits used to re-parse a text rendering on every lookup
//! (float parsing dominating); this codec stores the same data as
//! fixed-width little-endian words so a hit is a `memcpy`-shaped
//! decode. Decoding is lossless or an error, never a default.
//! Migration safety comes from three layers of framing:
//!
//! 1. a **version byte** ([`VERSION`]) — bumped on any layout change,
//!    so old entries decode to a clean error (a cache miss) instead of
//!    misaligned garbage;
//! 2. a **field-count byte** ahead of every struct — a struct gaining
//!    or losing a field changes the count, which is rejected before any
//!    field is read;
//! 3. an **FNV-1a checksum trailer** over the whole frame — flipped or
//!    truncated bytes fail the checksum before any length field is
//!    trusted, so corruption can neither panic the decoder nor resurrect
//!    as silently wrong statistics.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! frame   := version:u8 kind:u8 len:u32 payload[len] fnv64:u64
//! kind    := 0 (stats) | 1 (attack) | 2 (count)
//! u64     := 8 bytes LE        f64 := to_bits() as u64 (NaN-free by
//!                                     construction, -0.0/subnormals exact)
//! vec<T>  := count:u32 T*count
//! struct  := fields:u8 field*  (fields must equal the compiled count)
//! ```
//!
//! The checksum covers `version..payload`; `len` must account for the
//! payload exactly and the frame must end after the trailer — trailing
//! bytes are an error.
//!
//! The text renderers in [`crate::stats`] are the reference the codec
//! is tested against: `{:?}` prints floats in shortest round-trip form
//! (and `-0.0` as such), so equal renderings mean bit-identical values.

use cpu_model::{CacheStats, CoreStats};
use dram_core::DeviceStats;
use energy_model::EnergyBreakdown;
use mem_ctrl::McStats;

use crate::attack::BwAttackStats;
use crate::stats::{attack_to_text, RunStats};

/// The value one simulation cell produces — the unit of the bench run
/// cache and of the `qprac-serve` wire protocol. (`Stats` is boxed: a
/// `RunStats` is an order of magnitude larger than the other variants.)
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// A full-system run ([`crate::run_workload`] / [`crate::run_mix`]).
    Stats(Box<RunStats>),
    /// A bandwidth-attack run ([`crate::run_bandwidth_attack`]).
    Attack(BwAttackStats),
    /// An attack-engine count (`attack_engine::EngineSpec::run`).
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

    /// The lossless text rendering of this result (without its
    /// `kind()` tag), as `qprac-client` prints it.
    pub fn payload(&self) -> String {
        match self {
            CellResult::Stats(s) => s.to_cache_text(),
            CellResult::Attack(a) => attack_to_text(a),
            CellResult::Count(c) => c.to_string(),
        }
    }
}

/// Current frame-layout version. Decoders reject every other value.
pub const VERSION: u8 = 1;

const KIND_STATS: u8 = 0;
const KIND_ATTACK: u8 = 1;
const KIND_COUNT: u8 = 2;

/// FNV-1a over raw bytes (same constants as `RunKey::hash`, applied to
/// bytes instead of key text).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode one cell result into a self-verifying binary frame.
pub fn encode_cell(cell: &CellResult) -> Vec<u8> {
    let (kind, payload) = match cell {
        CellResult::Stats(s) => (KIND_STATS, encode_stats(s)),
        CellResult::Attack(a) => (KIND_ATTACK, encode_attack(a)),
        CellResult::Count(c) => (KIND_COUNT, c.to_le_bytes().to_vec()),
    };
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode a frame produced by [`encode_cell`]. Strict: a bad checksum,
/// wrong version, unknown kind, short or over-long frame, or field
/// drift in any nested struct is an error — cache readers treat it as
/// a miss, the wire layer surfaces it to the client.
pub fn decode_cell(bytes: &[u8]) -> Result<CellResult, String> {
    // Verify the trailer before trusting any length field, so corrupt
    // lengths can never drive allocation or indexing.
    if bytes.len() < 14 {
        return Err(format!("binary frame too short ({} bytes)", bytes.len()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let actual = fnv64(body);
    if stored != actual {
        return Err(format!(
            "binary frame checksum mismatch (stored {stored:016x}, computed {actual:016x})"
        ));
    }
    let version = body[0];
    if version != VERSION {
        return Err(format!(
            "unsupported binary frame version {version} (expected {VERSION})"
        ));
    }
    let kind = body[1];
    let len = u32::from_le_bytes(body[2..6].try_into().expect("4-byte len")) as usize;
    let payload = &body[6..];
    if payload.len() != len {
        return Err(format!(
            "binary frame length mismatch (declared {len}, actual {})",
            payload.len()
        ));
    }
    let mut r = Reader { buf: payload };
    let cell = match kind {
        KIND_STATS => CellResult::Stats(Box::new(decode_stats(&mut r)?)),
        KIND_ATTACK => CellResult::Attack(decode_attack(&mut r)?),
        KIND_COUNT => CellResult::Count(r.u64()?),
        other => return Err(format!("unknown binary cell kind {other}")),
    };
    if !r.buf.is_empty() {
        return Err(format!(
            "{} trailing payload bytes after a complete result",
            r.buf.len()
        ));
    }
    Ok(cell)
}

/// Bounded little-endian cursor; every read is length-checked.
struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.buf.len() < n {
            return Err(format!(
                "binary payload truncated: wanted {n} bytes, {} left",
                self.buf.len()
            ));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a vector count and check it against the bytes that remain
    /// (`elem_bytes` is a lower bound per element), so a corrupt count
    /// that slipped past the checksum still cannot balloon allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.buf.len() {
            return Err(format!(
                "vector count {n} exceeds remaining payload ({} bytes)",
                self.buf.len()
            ));
        }
        Ok(n)
    }

    /// Expect a struct's field-count byte; a mismatch means the struct
    /// definition drifted since the frame was written.
    fn fields(&mut self, name: &str, want: u8) -> Result<(), String> {
        let got = self.u8()?;
        if got != want {
            return Err(format!("{name} has {got} fields, expected {want}"));
        }
        Ok(())
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn encode_stats(s: &RunStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 8 * (11 + 5 * 3 + 15 * (1 + s.channel_device.len())));
    out.push(11); // RunStats field count
    put_u64(&mut out, s.cpu_cycles);
    put_u64(&mut out, s.mem_cycles);
    out.extend_from_slice(&(s.core_ipc.len() as u32).to_le_bytes());
    for &ipc in &s.core_ipc {
        put_f64(&mut out, ipc);
    }
    encode_core(&mut out, &s.cpu);
    encode_cache(&mut out, &s.cache);
    encode_mc(&mut out, &s.mc);
    encode_device(&mut out, &s.device);
    out.extend_from_slice(&(s.channel_device.len() as u32).to_le_bytes());
    for d in &s.channel_device {
        encode_device(&mut out, d);
    }
    encode_energy(&mut out, &s.energy);
    put_f64(&mut out, s.runtime_ns);
    put_u64(&mut out, s.trefi_cycles);
    out
}

fn decode_stats(r: &mut Reader) -> Result<RunStats, String> {
    r.fields("RunStats", 11)?;
    let cpu_cycles = r.u64()?;
    let mem_cycles = r.u64()?;
    let cores = r.count(8)?;
    let core_ipc = (0..cores).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let cpu = decode_core(r)?;
    let cache = decode_cache(r)?;
    let mc = decode_mc(r)?;
    let device = decode_device(r)?;
    let channels = r.count(1 + 15 * 8)?;
    let channel_device = (0..channels)
        .map(|_| decode_device(r))
        .collect::<Result<_, _>>()?;
    let energy = decode_energy(r)?;
    let runtime_ns = r.f64()?;
    let trefi_cycles = r.u64()?;
    Ok(RunStats {
        cpu_cycles,
        mem_cycles,
        core_ipc,
        cpu,
        cache,
        mc,
        device,
        channel_device,
        energy,
        runtime_ns,
        trefi_cycles,
    })
}

fn encode_core(out: &mut Vec<u8>, s: &CoreStats) {
    out.push(5);
    for v in [s.retired, s.cycles, s.loads, s.stores, s.stall_cycles] {
        put_u64(out, v);
    }
}

fn decode_core(r: &mut Reader) -> Result<CoreStats, String> {
    r.fields("CoreStats", 5)?;
    Ok(CoreStats {
        retired: r.u64()?,
        cycles: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        stall_cycles: r.u64()?,
    })
}

fn encode_cache(out: &mut Vec<u8>, s: &CacheStats) {
    out.push(5);
    for v in [s.hits, s.misses, s.merged, s.blocked, s.writebacks] {
        put_u64(out, v);
    }
}

fn decode_cache(r: &mut Reader) -> Result<CacheStats, String> {
    r.fields("CacheStats", 5)?;
    Ok(CacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        merged: r.u64()?,
        blocked: r.u64()?,
        writebacks: r.u64()?,
    })
}

fn encode_mc(out: &mut Vec<u8>, s: &McStats) {
    out.push(5);
    for v in [
        s.reads,
        s.writes,
        s.read_latency_sum,
        s.alert_service_cycles,
        s.rejected,
    ] {
        put_u64(out, v);
    }
}

fn decode_mc(r: &mut Reader) -> Result<McStats, String> {
    r.fields("McStats", 5)?;
    Ok(McStats {
        reads: r.u64()?,
        writes: r.u64()?,
        read_latency_sum: r.u64()?,
        alert_service_cycles: r.u64()?,
        rejected: r.u64()?,
    })
}

fn encode_device(out: &mut Vec<u8>, s: &DeviceStats) {
    out.push(15);
    for v in [
        s.acts,
        s.pres,
        s.reads,
        s.writes,
        s.refs,
        s.rfm_ab,
        s.rfm_sb,
        s.rfm_pb,
        s.alerts,
        s.mitigations_alert,
        s.mitigations_opportunistic,
        s.mitigations_proactive,
        s.mitigations_periodic,
        s.victim_refreshes,
        s.aggressor_resets,
    ] {
        put_u64(out, v);
    }
}

fn decode_device(r: &mut Reader) -> Result<DeviceStats, String> {
    r.fields("DeviceStats", 15)?;
    Ok(DeviceStats {
        acts: r.u64()?,
        pres: r.u64()?,
        reads: r.u64()?,
        writes: r.u64()?,
        refs: r.u64()?,
        rfm_ab: r.u64()?,
        rfm_sb: r.u64()?,
        rfm_pb: r.u64()?,
        alerts: r.u64()?,
        mitigations_alert: r.u64()?,
        mitigations_opportunistic: r.u64()?,
        mitigations_proactive: r.u64()?,
        mitigations_periodic: r.u64()?,
        victim_refreshes: r.u64()?,
        aggressor_resets: r.u64()?,
    })
}

fn encode_energy(out: &mut Vec<u8>, s: &EnergyBreakdown) {
    out.push(5);
    for v in [
        s.demand_nj,
        s.refresh_nj,
        s.mitigation_nj,
        s.tracker_nj,
        s.background_nj,
    ] {
        put_f64(out, v);
    }
}

fn decode_energy(r: &mut Reader) -> Result<EnergyBreakdown, String> {
    r.fields("EnergyBreakdown", 5)?;
    Ok(EnergyBreakdown {
        demand_nj: r.f64()?,
        refresh_nj: r.f64()?,
        mitigation_nj: r.f64()?,
        tracker_nj: r.f64()?,
        background_nj: r.f64()?,
    })
}

fn encode_attack(a: &BwAttackStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(33);
    out.push(4);
    for v in [a.acts, a.mem_cycles, a.alerts, a.rfms] {
        put_u64(&mut out, v);
    }
    out
}

fn decode_attack(r: &mut Reader) -> Result<BwAttackStats, String> {
    r.fields("BwAttackStats", 4)?;
    Ok(BwAttackStats {
        acts: r.u64()?,
        mem_cycles: r.u64()?,
        alerts: r.u64()?,
        rfms: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> Vec<CellResult> {
        let stats = RunStats {
            cpu_cycles: 33268,
            mem_cycles: 26614,
            core_ipc: vec![0.194_011_511_349_673_43, -0.0, f64::MIN_POSITIVE / 8.0],
            cpu: CoreStats {
                retired: u64::MAX,
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
                alerts: 9,
                ..Default::default()
            },
            channel_device: vec![
                DeviceStats {
                    acts: 1500,
                    ..Default::default()
                },
                DeviceStats {
                    acts: 1474,
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
        };
        vec![
            CellResult::Stats(Box::new(stats)),
            CellResult::Attack(BwAttackStats {
                acts: 7,
                mem_cycles: 1000,
                alerts: 3,
                rfms: 4,
            }),
            CellResult::Count(u64::MAX),
            CellResult::Count(0),
        ]
    }

    #[test]
    fn round_trip_is_lossless() {
        for cell in sample_cells() {
            let bytes = encode_cell(&cell);
            let back = decode_cell(&bytes).expect("decode own encoding");
            assert_eq!(back, cell);
            // Deterministic re-encode.
            assert_eq!(encode_cell(&back), bytes);
        }
    }

    #[test]
    fn every_prefix_is_an_error() {
        for cell in sample_cells() {
            let bytes = encode_cell(&cell);
            for cut in 0..bytes.len() {
                assert!(
                    decode_cell(&bytes[..cut]).is_err(),
                    "prefix of {cut}/{} bytes must not decode",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_an_error() {
        for cell in sample_cells() {
            let bytes = encode_cell(&cell);
            for i in 0..bytes.len() {
                for bit in [1u8, 0x80] {
                    let mut bad = bytes.clone();
                    bad[i] ^= bit;
                    assert!(
                        decode_cell(&bad).is_err(),
                        "flip of bit {bit:#x} at byte {i} must not decode"
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = encode_cell(&CellResult::Count(7));
        bytes.push(0);
        assert!(decode_cell(&bytes).is_err());
    }

    #[test]
    fn version_drift_is_an_error() {
        let mut bytes = encode_cell(&CellResult::Count(7));
        bytes[0] = VERSION + 1;
        // Re-seal so only the version check can reject it.
        let n = bytes.len();
        let sum = fnv64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_cell(&bytes).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let mut bytes = encode_cell(&CellResult::Count(7));
        bytes[1] = 9;
        let n = bytes.len();
        let sum = fnv64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_cell(&bytes).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn resealed_vector_count_cannot_balloon_allocation() {
        // Forge a stats frame whose core_ipc count claims 1 billion
        // entries, with a valid checksum — the remaining-bytes bound
        // must reject it before any allocation.
        let CellResult::Stats(s) = &sample_cells()[0] else {
            unreachable!()
        };
        let mut bytes = encode_cell(&CellResult::Stats(s.clone()));
        // core_ipc count sits after version(1) kind(1) len(4) fields(1)
        // cpu_cycles(8) mem_cycles(8).
        let off = 1 + 1 + 4 + 1 + 8 + 8;
        bytes[off..off + 4].copy_from_slice(&1_000_000_000u32.to_le_bytes());
        let n = bytes.len();
        let sum = fnv64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_cell(&bytes).unwrap_err();
        assert!(err.contains("exceeds remaining"), "{err}");
    }

    #[test]
    fn binary_and_text_forms_agree() {
        for cell in sample_cells() {
            let via_binary = decode_cell(&encode_cell(&cell)).unwrap();
            assert_eq!(via_binary.kind(), cell.kind());
            assert_eq!(via_binary.payload(), cell.payload());
        }
    }
}

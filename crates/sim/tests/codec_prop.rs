//! Property tests for the binary cache codec and the keys it is stored
//! under. Randomized `CellResult` payloads (including multi-channel
//! `RunStats` with adversarial values — huge counters, subnormal,
//! negative and -0.0 floats, empty and 8-wide IPC vectors) must
//! round-trip bit-exactly through `encode_cell`/`decode_cell`, and the
//! text rendering — the reference form — of a decoded value must be
//! byte-identical to that of the original. The key-side properties
//! iterate the mitigation registry, so every registered design
//! (including ones added after these tests were written) gets render →
//! parse → render key coverage and cache round-trip coverage.

use cpu_model::{CacheStats, CoreStats};
use dram_core::{DeviceStats, RfmKind};
use energy_model::EnergyBreakdown;
use mem_ctrl::McStats;
use proptest::prelude::*;
use sim::{
    decode_cell, encode_cell, BwAttackStats, CellResult, RunCache, RunKey, RunStats, SystemConfig,
};

/// Turn raw bits into a finite f64 (infinities and NaNs cannot appear
/// in real statistics and would break `PartialEq`-based comparison);
/// everything else — subnormals, -0.0, huge magnitudes — passes
/// through and must survive the `f64::to_bits` framing unchanged and
/// render distinctly under `{:?}`.
fn finite_f64(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        (bits >> 12) as f64 / 7.0
    }
}

struct Words(std::vec::IntoIter<u64>);

impl Words {
    fn u(&mut self) -> u64 {
        self.0.next().expect("word budget exhausted")
    }

    fn f(&mut self) -> f64 {
        let b = self.u();
        finite_f64(b)
    }

    fn device(&mut self) -> DeviceStats {
        DeviceStats {
            acts: self.u(),
            pres: self.u(),
            reads: self.u(),
            writes: self.u(),
            refs: self.u(),
            rfm_ab: self.u(),
            rfm_sb: self.u(),
            rfm_pb: self.u(),
            alerts: self.u(),
            mitigations_alert: self.u(),
            mitigations_opportunistic: self.u(),
            mitigations_proactive: self.u(),
            mitigations_periodic: self.u(),
            victim_refreshes: self.u(),
            aggressor_resets: self.u(),
        }
    }

    fn stats(&mut self, channels: usize, cores: usize) -> RunStats {
        RunStats {
            cpu_cycles: self.u(),
            mem_cycles: self.u(),
            core_ipc: (0..cores).map(|_| self.f()).collect(),
            cpu: CoreStats {
                retired: self.u(),
                cycles: self.u(),
                loads: self.u(),
                stores: self.u(),
                stall_cycles: self.u(),
            },
            cache: CacheStats {
                hits: self.u(),
                misses: self.u(),
                merged: self.u(),
                blocked: self.u(),
                writebacks: self.u(),
            },
            mc: McStats {
                reads: self.u(),
                writes: self.u(),
                read_latency_sum: self.u(),
                alert_service_cycles: self.u(),
                rejected: self.u(),
            },
            device: self.device(),
            channel_device: (0..channels).map(|_| self.device()).collect(),
            energy: EnergyBreakdown {
                demand_nj: self.f(),
                refresh_nj: self.f(),
                mitigation_nj: self.f(),
                tracker_nj: self.f(),
                background_nj: self.f(),
            },
            runtime_ns: self.f(),
            trefi_cycles: self.u(),
        }
    }
}

proptest! {
    #[test]
    fn binary_round_trip_is_lossless(
        words in proptest::collection::vec(0u64..u64::MAX, 120..121),
        channels in 1usize..5,
        cores in 0usize..9,
    ) {
        let mut w = Words(words.into_iter());
        let cell = CellResult::Stats(Box::new(w.stats(channels, cores)));
        let frame = encode_cell(&cell);
        let back = decode_cell(&frame).expect("decode own encoding");
        prop_assert_eq!(&back, &cell);
        // Deterministic encoder: equal values frame to equal bytes.
        prop_assert_eq!(encode_cell(&back), frame);
    }

    /// Cross-form equivalence: the text rendering of a value that has
    /// been through the binary codec is byte-identical to the text
    /// rendering of the original. `{:?}` prints every float in its
    /// shortest round-trip form, so this is as strict as a parse-back.
    #[test]
    fn text_binary_text_is_byte_identical(
        words in proptest::collection::vec(0u64..u64::MAX, 120..121),
        channels in 1usize..5,
        cores in 0usize..9,
    ) {
        let mut w = Words(words.into_iter());
        let stats = w.stats(channels, cores);
        let text = stats.to_cache_text();
        let cell = CellResult::Stats(Box::new(stats));
        let decoded = decode_cell(&encode_cell(&cell)).expect("decode own encoding");
        prop_assert_eq!(decoded.payload(), cell.payload());
        let CellResult::Stats(back) = decoded else {
            panic!("binary round-trip changed the payload kind");
        };
        prop_assert_eq!(back.to_cache_text(), text);
    }

    /// Registry-driven key property: for EVERY registered mitigation
    /// and arbitrary knob values, the rendered canonical key parses
    /// back to a spec that re-renders byte-identically. This is the
    /// wire/caching contract `qprac-serve` relies on, proven for the
    /// whole zoo instead of a hand-listed variant array.
    #[test]
    fn every_registry_key_renders_parses_and_re_renders(
        pick in 0usize..usize::MAX,
        trh in 25u32..2_000,
        nbo in 1u32..256,
        nmit_pick in 0usize..3,
        psq in 1usize..9,
        pro in 1u32..8,
        channels_pow in 0u32..3,
        instr in 1u64..1_000_000,
        seed in 0u64..u64::MAX,
        rfm_pick in 0usize..3,
        plain in any::<bool>(),
    ) {
        let specs = mitigations::registry();
        let spec = &specs[pick % specs.len()];
        let nmit = [1u8, 2, 4][nmit_pick];
        let rfm = [RfmKind::AllBank, RfmKind::SameBank, RfmKind::PerBank][rfm_pick];
        // Exercise the trh-parameterized token form when the design
        // has one (mithril@{trh} / pride@{trh}).
        let kind = match spec.at_trh {
            Some(at) => at(trh),
            None => spec.default_kind,
        };
        let cfg = SystemConfig {
            plain_timing: plain,
            seed,
            ..SystemConfig::paper_default()
                .with_mitigation(kind)
                .with_nbo(nbo)
                .with_nmit(nmit)
                .with_psq_size(psq)
                .with_proactive_per_refs(pro)
                .with_channels(1 << channels_pow)
                .with_instruction_limit(instr)
                .with_alert_rfm_kind(rfm)
        };
        for key in [
            RunKey::workload(&cfg, "ycsb/a_like"),
            RunKey::mix(&cfg, "mix/hot_quad"),
            RunKey::attack(&cfg, 8, 60_000),
        ] {
            let parsed = RunKey::parse_text(key.as_str())
                .unwrap_or_else(|e| panic!("{key} failed to parse: {e}"));
            prop_assert_eq!(parsed.key(), key);
        }
    }

    #[test]
    fn attack_and_count_payloads_round_trip(
        a in 0u64..u64::MAX, b in 0u64..u64::MAX,
        c in 0u64..u64::MAX, d in 0u64..u64::MAX,
    ) {
        let attack = CellResult::Attack(BwAttackStats {
            acts: a,
            mem_cycles: b,
            alerts: c,
            rfms: d,
        });
        let count = CellResult::Count(a);
        for cell in [attack, count] {
            let frame = encode_cell(&cell);
            let back = decode_cell(&frame).expect("decode own encoding");
            prop_assert_eq!(back, cell);
        }
    }

    /// Registry-driven persistence property: a result cached under any
    /// registered design's key — every zoo entry, not a hand-picked
    /// few — reloads bit-identically through the `RunCache`. This is
    /// the on-disk half of the wire contract
    /// `every_registry_key_renders_parses_and_re_renders` pins for key
    /// text.
    #[test]
    fn every_registry_key_round_trips_through_the_cache(
        words in proptest::collection::vec(0u64..u64::MAX, 120..121),
        channels_pow in 0u32..3,
        cores in 0usize..5,
        case in 0u64..u64::MAX,
    ) {
        let mut w = Words(words.into_iter());
        let cell = CellResult::Stats(Box::new(w.stats(1 << channels_pow, cores)));
        let dir = std::env::temp_dir().join(format!(
            "qprac-codec-prop-{}-{case:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::at(&dir);
        for spec in mitigations::registry() {
            let cfg = SystemConfig::paper_default().with_mitigation(spec.default_kind);
            let key = RunKey::workload(&cfg, "ycsb/a_like");
            cache.store(&key, &cell).expect("store cached cell");
            let back = cache.load(&key).expect("reload cached cell");
            prop_assert_eq!(&back, &cell, "{}", spec.stem);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corruption wall, randomized: flipping any one byte anywhere in
    /// the frame must yield a clean decode error (the FNV-1a trailer
    /// covers every preceding byte), and truncating at any random
    /// point must too — never a panic, never silently wrong stats.
    #[test]
    fn random_damage_is_always_a_clean_error(
        words in proptest::collection::vec(0u64..u64::MAX, 60..61),
        pos_seed in 0usize..usize::MAX,
        flip_bit in 0u8..8,
    ) {
        let mut w = Words(words.into_iter());
        let cell = CellResult::Stats(Box::new(w.stats(1, 2)));
        let frame = encode_cell(&cell);

        let pos = pos_seed % frame.len();
        let mut flipped = frame.clone();
        flipped[pos] ^= 1 << flip_bit;
        prop_assert!(decode_cell(&flipped).is_err(),
            "single-byte flip at {pos} must not decode");

        prop_assert!(decode_cell(&frame[..pos]).is_err(),
            "truncation to {pos} bytes must not decode");
    }
}

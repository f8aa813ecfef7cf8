//! Microbenchmarks of the controller paths the fast-forward core leans
//! on: `MemoryController::tick`, whose return value is the only event
//! bound the simulator uses to jump over dead cycles, and the
//! alert-service cycle that runs off the device's precomputed RFM bank
//! lists and incremental alert tracking.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_core::{AddressMapper, BankId, DramConfig, DramDevice, MappingScheme, RowId};
use mem_ctrl::{McConfig, MemoryController, ReqKind};
use qprac::{Qprac, QpracConfig};

fn qprac_controller() -> MemoryController {
    let cfg = DramConfig::paper_default();
    MemoryController::new(
        McConfig::default(),
        DramDevice::new(cfg, |_| Box::new(Qprac::new(QpracConfig::paper_default()))),
    )
}

fn bench_sched(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_sched");

    // One `tick` (scheduling sweep plus its event bound) per iteration
    // over a controller serving a 4-core-like mix of 16 outstanding
    // reads, reloaded whenever it drains, so the mean covers issuing,
    // timing-blocked and refresh cycles alike.
    g.bench_function("tick_16_banks", |b| {
        let mut mc = qprac_controller();
        let mapper = AddressMapper::new(&DramConfig::paper_default(), MappingScheme::MopXor);
        let mut line = 1u64;
        let load: Vec<_> = (0..16)
            .map(|_| {
                line = line
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                mapper.decode(line % mapper.num_lines())
            })
            .collect();
        let mut now = 0;
        b.iter(|| {
            if mc.idle() {
                for (i, &addr) in load.iter().enumerate() {
                    mc.enqueue(ReqKind::Read, addr, i as u64, now).unwrap();
                }
            }
            let bound = mc.tick(black_box(now));
            mc.drain_completions();
            now += 1;
            bound
        });
    });

    // One alert-service cycle while the RFM is still blocked by an open
    // bank: exercises `first_alerting_bank`, the precomputed
    // `rfm_banks_of` list, `can_rfm` over it, and the alert wake bound —
    // the exact per-cycle work during an ABO service window.
    g.bench_function("alert_service_blocked_cycle", |b| {
        let dram = DramConfig::paper_default();
        let mut dev = DramDevice::new(dram.clone(), |_| {
            Box::new(Qprac::new(QpracConfig::paper_default()))
        });
        // Hammer one row to N_BO so the tracker raises Alert_n.
        let t = dram.timing;
        let mut now = 0;
        while dev.alert_since().is_none() {
            while !dev.can_activate(BankId(0), now) {
                now += 1;
            }
            dev.activate(BankId(0), RowId(7), now);
            now += t.tras;
            while !dev.can_precharge(BankId(0), now) {
                now += 1;
            }
            dev.precharge(BankId(0), now);
            now += 1;
        }
        // Pin another bank open so the all-bank RFM stays illegal and
        // the service cycle is a pure scheduling pass.
        while !dev.can_activate(BankId(1), now) {
            now += 1;
        }
        dev.activate(BankId(1), RowId(1), now);
        let mut mc = MemoryController::new(McConfig::default(), dev);
        // Tick inside bank 1's tRAS window: PRE still illegal.
        b.iter(|| black_box(mc.tick(black_box(now + 1))));
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sched
}
criterion_main!(benches);

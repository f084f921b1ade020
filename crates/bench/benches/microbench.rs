//! Microbenchmarks of the simulator's hot paths: event engine, IOTLB
//! access, page-table translation, Swift ACK processing, and one short
//! end-to-end testbed slice. These guard simulator performance — the
//! figure harnesses run millions of events per simulated second.
//!
//! Dependency-free harness (`harness = false`): each benchmark runs a
//! warm-up pass, then a measured batch under `std::time::Instant`, and
//! prints ns/op. Set `HOSTCC_BENCH_QUICK=1` to shrink iteration counts.

use hostcc::experiment::{run, RunPlan};
use hostcc::scenarios;
use hostcc::substrate::iommu::{Iommu, IommuConfig};
use hostcc::substrate::mem::{IoPageTable, Iova, PageSize, PhysAddr};
use hostcc::substrate::sim::{Engine, Scheduler, SimDuration, SimTime, World};
use hostcc::substrate::transport::{AckSample, CongestionControl, Swift, SwiftConfig};
use std::hint::black_box;
use std::time::Instant;

/// Time `iters` calls of `f` (after `warmup` untimed calls), print ns/op.
fn bench(name: &str, warmup: u64, iters: u64, mut f: impl FnMut()) {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:32} {ns:14.1} ns/op  ({iters} iters, {elapsed:.2?} total)");
}

struct Chain(u64);
impl World for Chain {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
        if self.0 > 0 {
            self.0 -= 1;
            sched.after(SimDuration::from_nanos(10), ());
        }
    }
}

fn bench_engine(reps: u64) {
    bench("engine_100k_events", 1, reps, || {
        let mut eng = Engine::new(Chain(100_000));
        eng.sched.immediately(());
        eng.run_to_completion();
        black_box(eng.now());
    });
}

fn bench_iommu(iters: u64) {
    let mut io = Iommu::new(IommuConfig::default());
    io.map_range(Iova(0), PhysAddr(0), 512 << 20, PageSize::Size2M)
        .unwrap();
    let mut i = 0u64;
    bench("iommu_translate_range_cost", 1_000, iters, || {
        i = (i + 1) % 200;
        black_box(
            io.translate_range_cost(Iova(i * (2 << 20)), 4096, PageSize::Size2M)
                .unwrap(),
        );
    });
}

fn bench_page_table(iters: u64) {
    let mut pt = IoPageTable::new();
    pt.map_range(Iova(0), PhysAddr(0), 64 << 20, PageSize::Size4K)
        .unwrap();
    let mut i = 0u64;
    bench("page_table_translate", 1_000, iters, || {
        i = (i + 4096) % (64 << 20);
        black_box(pt.translate(Iova(i)).unwrap());
    });
}

fn bench_swift(iters: u64) {
    let mut swift = Swift::new(SwiftConfig::default(), 8.0);
    let mut t = 0u64;
    bench("swift_on_ack", 1_000, iters, || {
        t += 20;
        swift.on_ack(AckSample {
            now: SimTime::from_micros(t),
            rtt: SimDuration::from_micros(25),
            host_delay: SimDuration::from_micros(t % 150),
            ecn_ce: false,
            nic_buffer_frac: 0.0,
            newly_acked: 1,
        });
        black_box(swift.cwnd());
    });
}

fn bench_testbed_slice(reps: u64) {
    bench("testbed/one_ms_slice_12_cores", 1, reps, || {
        let mut cfg = scenarios::fig3(12, true);
        cfg.senders = 8;
        black_box(
            run(
                cfg,
                RunPlan {
                    warmup: SimDuration::from_micros(500),
                    measure: SimDuration::from_micros(500),
                },
            )
            .expect("bench config runs"),
        );
    });
}

fn main() {
    let quick = std::env::var("HOSTCC_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let scale: u64 = if quick { 1 } else { 10 };
    println!(
        "hostcc microbenchmarks ({} mode)",
        if quick { "quick" } else { "full" }
    );
    bench_engine(2 * scale);
    bench_iommu(100_000 * scale);
    bench_page_table(100_000 * scale);
    bench_swift(100_000 * scale);
    bench_testbed_slice(2 * scale);
}

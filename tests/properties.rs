//! Property-style tests over the full stack and key substrates.
//!
//! These exercise many seeded-random configurations and access patterns,
//! checking invariants that must hold for *any* input — conservation,
//! bounds, monotonicity, determinism. Inputs are drawn from [`SimRng`]
//! with fixed seeds, so every run exercises the same cases and failures
//! reproduce exactly.

use hostcc::experiment::{run as try_run, RunPlan};
use hostcc::substrate::iommu::{Iotlb, IotlbTag};
use hostcc::substrate::mem::{IoPageTable, Iova, PageSize, PhysAddr};
use hostcc::substrate::sim::{EventQueue, SimDuration, SimRng, SimTime};
use hostcc::TestbedConfig;

/// Property cases only draw valid configurations; unwrap the panic-free
/// experiment API at the edge.
fn run(cfg: TestbedConfig, plan: RunPlan) -> hostcc::RunMetrics {
    try_run(cfg, plan).expect("property config runs")
}

/// Any small testbed configuration must run without panicking and
/// satisfy basic accounting invariants.
#[test]
fn testbed_invariants_hold_for_random_configs() {
    let mut rng = SimRng::new(0xA11CE);
    for case in 0..16 {
        let seed = rng.next_below(1000);
        let senders = 2 + rng.next_below(8) as u32;
        let threads = 1 + rng.next_below(7) as u32;
        let iommu_on = rng.next_below(2) == 1;
        let antagonist = rng.next_below(8) as u32;
        let mut cfg = TestbedConfig {
            seed,
            senders,
            receiver_threads: threads,
            antagonist_cores: antagonist,
            ..TestbedConfig::default()
        };
        cfg.iommu.enabled = iommu_on;
        let m = run(
            cfg,
            RunPlan {
                warmup: SimDuration::from_millis(2),
                measure: SimDuration::from_millis(3),
            },
        );

        // Conservation and bounds.
        let ctx = format!(
            "case {case}: seed={seed} senders={senders} threads={threads} \
             iommu={iommu_on} antagonist={antagonist}"
        );
        assert_eq!(
            m.delivered_payload_bytes,
            m.delivered_packets * 4096,
            "{ctx}"
        );
        assert!(m.app_throughput_gbps() >= 0.0, "{ctx}");
        assert!(
            m.app_throughput_gbps() < 93.0,
            "throughput above ceiling: {ctx}"
        );
        assert!(m.drop_rate() <= 1.0, "{ctx}");
        assert!(m.iotlb_misses <= m.iotlb_lookups, "{ctx}");
        if !iommu_on {
            assert_eq!(m.iotlb_lookups, 0, "{ctx}");
        }
        // Host delay histogram is populated iff packets were delivered.
        assert_eq!(m.host_delay.count() > 0, m.delivered_packets > 0, "{ctx}");
        assert!(m.nic_buffer_peak_bytes <= 1 << 20, "{ctx}");
        // The stage breakdown decomposes host delay exactly.
        assert_eq!(m.stage_breakdown.count(), m.host_delay.count(), "{ctx}");
        assert_eq!(
            m.stage_breakdown.total_sum_ns(),
            m.host_delay.sum(),
            "{ctx}"
        );
    }
}

/// The event queue pops in non-decreasing time order with FIFO ties,
/// for any push sequence.
#[test]
fn event_queue_ordering() {
    let mut rng = SimRng::new(0xB0B);
    for _ in 0..64 {
        let n = 1 + rng.next_below(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last_time = 0;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut current_time = u64::MAX;
        while let Some((t, idx)) = q.pop() {
            assert!(t.as_nanos() >= last_time, "time went backwards");
            if t.as_nanos() != current_time {
                current_time = t.as_nanos();
                seen_at_time.clear();
            }
            // FIFO within a timestamp: indices increase.
            if let Some(&prev) = seen_at_time.last() {
                assert!(idx > prev, "FIFO violated at t={current_time}");
            }
            seen_at_time.push(idx);
            last_time = t.as_nanos();
        }
    }
}

/// Page-table translation is exact for every offset in a mapped range
/// and faults outside it.
#[test]
fn page_table_translation_exact() {
    let mut rng = SimRng::new(0xC0FFEE);
    for _ in 0..64 {
        let pages = 1 + rng.next_below(31);
        let probe = rng.next_below(32 * 4096);
        let huge = rng.next_below(2) == 1;
        let size = if huge {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        let len = pages * size.bytes();
        let mut pt = IoPageTable::new();
        let iova_base = 8 * size.bytes();
        let pa_base = 1u64 << 33;
        pt.map_range(Iova(iova_base), PhysAddr(pa_base), len, size)
            .unwrap();

        let probe_scaled = probe % (2 * len); // half inside, half outside
        let addr = Iova(iova_base + probe_scaled);
        match pt.translate(addr) {
            Ok(tr) => {
                assert!(probe_scaled < len, "translated out-of-range address");
                assert_eq!(tr.pa.as_u64(), pa_base + probe_scaled);
                assert_eq!(tr.page_size, size);
            }
            Err(_) => assert!(probe_scaled >= len, "fault inside mapped range"),
        }
    }
}

/// IOTLB occupancy never exceeds capacity and a working set within
/// capacity converges to zero misses (fully-associative LRU).
#[test]
fn iotlb_capacity_and_convergence() {
    let mut rng = SimRng::new(0xD1CE);
    for _ in 0..32 {
        let entries = 1usize << (3 + rng.next_below(5)); // 8..128 entries
        let ws = 1 + rng.next_below(199);
        let mut tlb = Iotlb::new(entries, entries);
        let ws = ws.min(entries as u64); // working set within capacity
                                         // Two warm-up passes, then measure.
        for _ in 0..2 {
            for p in 0..ws {
                tlb.access(IotlbTag {
                    page_number: p,
                    page_size: PageSize::Size2M,
                });
            }
        }
        tlb.reset_stats();
        for p in 0..ws {
            tlb.access(IotlbTag {
                page_number: p,
                page_size: PageSize::Size2M,
            });
        }
        assert_eq!(tlb.stats().misses, 0, "in-capacity set must be all hits");
        assert!(tlb.occupancy() <= entries);
    }
}

/// The RNG's bounded generation stays in bounds and covers values.
#[test]
fn rng_bounds() {
    let mut seeds = SimRng::new(0xFEED);
    for _ in 0..32 {
        let seed = seeds.next_u64();
        let bound = 1 + seeds.next_below(9_999);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            assert!(rng.next_below(bound) < bound);
        }
        let x = rng.next_range(10, 20);
        assert!((10..=20).contains(&x));
    }
}

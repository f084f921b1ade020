//! Named experiment scenarios: one constructor per paper figure/panel.
//!
//! Each function returns the `TestbedConfig` for one point of one figure,
//! so harnesses, examples and tests all drive the *same* configurations.

use hostcc_host::{CcKind, FaultKind, FaultPlan, TestbedConfig};
use hostcc_mem::PageSize;
use hostcc_sim::SimDuration;
use hostcc_transport::DctcpConfig;

/// Baseline testbed (§3 setup): 40 senders, Swift, hugepages, 12 MiB
/// regions, IOMMU on, no antagonist.
pub fn baseline() -> TestbedConfig {
    TestbedConfig::default()
}

/// Figure 3: throughput / drop rate / IOTLB misses vs. receiver cores,
/// IOMMU on or off. Hugepages enabled.
pub fn fig3(receiver_threads: u32, iommu_on: bool) -> TestbedConfig {
    let mut cfg = baseline();
    cfg.receiver_threads = receiver_threads;
    cfg.iommu.enabled = iommu_on;
    cfg
}

/// Figure 4: same sweep with hugepages enabled or disabled (4 KiB
/// mappings for the data regions). IOMMU always on.
pub fn fig4(receiver_threads: u32, hugepages: bool) -> TestbedConfig {
    let mut cfg = baseline();
    cfg.receiver_threads = receiver_threads;
    cfg.iommu.enabled = true;
    cfg.data_page = if hugepages {
        PageSize::Size2M
    } else {
        PageSize::Size4K
    };
    cfg
}

/// Figure 5: throughput / drop rate / IOTLB misses vs. Rx memory region
/// size at 12 receiver cores.
pub fn fig5(region_mib: u64, iommu_on: bool) -> TestbedConfig {
    let mut cfg = baseline();
    cfg.receiver_threads = 12;
    cfg.rx_region_bytes = region_mib << 20;
    cfg.iommu.enabled = iommu_on;
    cfg
}

/// Figure 6: throughput / memory bandwidth / drop rate vs. STREAM
/// antagonist cores at 12 receiver threads.
pub fn fig6(antagonist_cores: u32, iommu_on: bool) -> TestbedConfig {
    let mut cfg = baseline();
    cfg.receiver_threads = 12;
    cfg.antagonist_cores = antagonist_cores;
    cfg.iommu.enabled = iommu_on;
    cfg
}

/// §3.1 CC-blind-spot study: like Fig. 3, but with a configurable Swift
/// host-delay target, to show that the 1 MiB NIC buffer overflows below
/// the default 100 µs target (and that lowering the target alone cannot
/// fix host congestion — §4's argument).
pub fn cc_blindspot(receiver_threads: u32, host_target_us: u64) -> TestbedConfig {
    let mut cfg = baseline();
    cfg.receiver_threads = receiver_threads;
    if let CcKind::Swift(ref mut sc) = cfg.cc {
        sc.host_target = hostcc_sim::SimDuration::from_micros(host_target_us);
    }
    cfg
}

/// Baseline-protocol comparison: the same workload under a DCTCP-style
/// ECN controller (TCP-like, fabric signals only) instead of Swift.
pub fn with_dctcp(mut cfg: TestbedConfig) -> TestbedConfig {
    cfg.cc = CcKind::Dctcp(DctcpConfig::default());
    // Give the baseline its congestion signal: ECN marking at the switch.
    cfg.ecn_threshold_bytes = 300 << 10;
    cfg
}

/// §4 extension: the host-aware controller — Swift plus a sub-RTT
/// response to the NIC-buffer occupancy echoed on every ACK (the
/// "congestion signals from outside the network" direction, implemented).
pub fn with_host_aware(mut cfg: TestbedConfig) -> TestbedConfig {
    let swift = match &cfg.cc {
        CcKind::Swift(sc) => sc.clone(),
        _ => hostcc_transport::SwiftConfig::default(),
    };
    cfg.cc = CcKind::HostAware(hostcc_transport::HostAwareConfig {
        swift,
        ..hostcc_transport::HostAwareConfig::default()
    });
    cfg
}

/// §4-adjacent ablation (the on-NIC-memory direction, paper ref \[30\]):
/// an aggressively-reused hot buffer pool. The tiny working set fits both
/// the IOTLB and the DDIO slice, relieving translation pressure *and*
/// memory-bus write traffic.
pub fn with_hot_buffers(mut cfg: TestbedConfig) -> TestbedConfig {
    cfg.recycling = hostcc_host::BufferRecycling::Hot;
    cfg
}

/// Strict-IOMMU variant: per-buffer map/unmap + IOTLB invalidation
/// (Linux strict/dynamic mapping modes) instead of the stack's loose
/// mode. Dynamic mappings are page-granular, so hugepage sharing across
/// buffers is lost too — the paper's justification for running loose
/// ("other modes … are known to cause even worse IOTLB misses").
pub fn with_strict_iommu(mut cfg: TestbedConfig) -> TestbedConfig {
    cfg.strict_iommu = true;
    cfg.data_page = PageSize::Size4K;
    cfg
}

/// A production-like mix of RPC read sizes (small metadata reads through
/// bulk transfers) instead of the paper's uniform 16 KB microbenchmark.
pub fn with_mixed_reads(mut cfg: TestbedConfig) -> TestbedConfig {
    cfg.read_size_mix = vec![
        (4 * 1024, 0.35),
        (16 * 1024, 0.40),
        (64 * 1024, 0.20),
        (256 * 1024, 0.05),
    ];
    cfg
}

/// §4's coordinated-response direction: reschedule the memory antagonist
/// to the NUMA node the NIC is *not* attached to, instead of reducing the
/// network rate. Only cross-socket spill traffic stays on the NIC-local
/// memory controller.
pub fn with_remote_antagonist(mut cfg: TestbedConfig) -> TestbedConfig {
    cfg.stream.local_fraction = 0.15;
    cfg
}

/// NIC without descriptor prefetch: every packet's descriptor fetch is a
/// blocking PCIe read round trip in the DMA pipeline.
pub fn without_descriptor_prefetch(mut cfg: TestbedConfig) -> TestbedConfig {
    cfg.model_dma_read_latency = true;
    cfg
}

/// Fixed-window variant (no congestion control) for calibration runs.
pub fn with_fixed_window(mut cfg: TestbedConfig, window: f64) -> TestbedConfig {
    cfg.cc = CcKind::Fixed(window);
    cfg
}

/// §4 ablation: a larger NIC input buffer (e.g. 4 MiB instead of 1 MiB)
/// so that the host-delay signal exceeds Swift's target before drops.
pub fn with_nic_buffer(mut cfg: TestbedConfig, bytes: u64) -> TestbedConfig {
    cfg.nic.input_buffer_bytes = bytes;
    cfg
}

/// §4 ablation: a larger IOTLB (future-host exploration).
pub fn with_iotlb_entries(mut cfg: TestbedConfig, entries: usize) -> TestbedConfig {
    cfg.iommu.iotlb_entries = entries;
    cfg.iommu.iotlb_ways = entries; // keep it fully associative
    cfg
}

/// §4 ablation: memory-bandwidth QoS (Intel MBA-style). MBA throttles the
/// request rate of selected cores, so we cap the antagonist's per-core
/// offered bandwidth at `throttle` of its unconstrained value — keeping
/// the bus below saturation and the DMA path fast.
pub fn with_membw_qos(mut cfg: TestbedConfig, throttle: f64) -> TestbedConfig {
    assert!((0.0..=1.0).contains(&throttle), "throttle is a fraction");
    cfg.stream.per_core_bytes_per_sec *= throttle;
    cfg
}

/// Swift variant for §4's "sub-RTT response" discussion: an ACK-path
/// response scaled by a faster reaction (smaller RTT gating is not
/// directly modelled; we approximate by a tighter host target plus a
/// stronger decrease).
pub fn with_subrtt_response(mut cfg: TestbedConfig, host_target_us: u64) -> TestbedConfig {
    if let CcKind::Swift(ref mut sc) = cfg.cc {
        sc.host_target = hostcc_sim::SimDuration::from_micros(host_target_us);
        sc.max_mdf = 0.7;
        sc.beta = 1.2;
    }
    cfg
}

/// Coarse-time profile (explicit opt-in): quantise every approximate
/// latency term — serialisation boundaries, pacer grants, DMA stage sums
/// — up to a 64 ns grid and fuse uncontended DmaComplete→CpuDone chains
/// into single macro events. Event timestamps collapse onto shared wheel
/// slots, so the wheel's per-slot work is shared by several events, and
/// a fused chain dispatches one event where the exact path dispatches
/// two. Not bit-identical to exact-time runs; the coarse goldens in
/// `tests/goldens.rs` pin its behaviour separately.
pub fn with_coarse_time(mut cfg: TestbedConfig) -> TestbedConfig {
    cfg.resolution = hostcc_sim::Resolution::from_nanos(64).expect("64 is a power of two");
    cfg.fuse_chains = true;
    cfg
}

/// A host `gen_mult` NIC generations ahead of the paper's 100 G testbed:
/// line rate, PCIe generation, DDR speed, posted-credit window, buffers
/// and per-packet core cost all scale together, so the host sinks
/// `gen_mult`× the packet rate before congesting. `1` is the paper's
/// testbed unchanged; `2` ≈ a 200 G / Gen4 / DDR5 host; `4` ≈ 400 G /
/// Gen5 with doubled memory channels. Fleet benches use this to model
/// the event-dense tail of the Fig. 1 scatter — newer hosts push ~4×
/// the events per nanosecond of simulated time through the engine, the
/// regime where the engine's cost per event matters most.
pub fn with_line_rate_generation(mut cfg: TestbedConfig, gen_mult: u32) -> TestbedConfig {
    let m = gen_mult.max(1);
    let mf = f64::from(m);
    cfg.sender_link_bps *= mf;
    cfg.access_link_bps *= mf;
    cfg.switch_buffer_bytes *= u64::from(m);
    cfg.ecn_threshold_bytes *= u64::from(m);
    cfg.nic.input_buffer_bytes *= u64::from(m);
    cfg.credits.posted_header *= m;
    cfg.credits.posted_data *= m;
    if m >= 2 {
        cfg.pcie.gen = hostcc_pcie::PcieGen::Gen4;
        // DDR4-2400 -> DDR5-4800.
        cfg.memsys.channel_mts *= 2.0;
    }
    if m >= 4 {
        cfg.pcie.gen = hostcc_pcie::PcieGen::Gen5;
        cfg.memsys.channels *= 2;
    }
    // Faster cores / more receive offload: per-packet CPU cost shrinks
    // with the generation so the cores keep up with the line rate.
    cfg.core_pkt_cost = cfg.core_pkt_cost / u64::from(m);
    cfg
}

/// Shared base for the chaos scenarios: a smaller testbed (8 senders,
/// 4 receiver cores) so CI chaos smoke runs stay cheap, with fault
/// windows recurring every 5 ms from t=6 ms — inside the measurement
/// interval of both `RunPlan::quick()` (5–15 ms) and the default plan
/// (25–50 ms), so counters and the recovery summary are populated under
/// either plan.
fn chaos_base() -> TestbedConfig {
    let mut cfg = baseline();
    cfg.senders = 8;
    cfg.receiver_threads = 4;
    // Whole-window losses (blackouts) need partial-ACK recovery to come
    // back at ACK-clock speed instead of one packet per RTO.
    cfg.flow.partial_ack_rtx = true;
    cfg
}

fn chaos_windows(cfg: &mut TestbedConfig, kind: FaultKind, duration_us: u64) {
    cfg.faults = FaultPlan::new().recurring(
        kind,
        SimDuration::from_millis(6),
        SimDuration::from_micros(duration_us),
        SimDuration::from_millis(5),
        9,
    );
}

/// Chaos scenario `chaos-replay`: recurring PCIe link-error windows. 30%
/// of TLPs are NAKed during each window and replay from the DLLP replay
/// buffer after an exponentially backed-off replay timer.
pub fn chaos_replay() -> TestbedConfig {
    let mut cfg = chaos_base();
    chaos_windows(&mut cfg, FaultKind::PcieReplay { nak_rate: 0.3 }, 1000);
    cfg
}

/// Chaos scenario `chaos-flap`: recurring access-link blackouts. Every
/// packet on the wire during a 1 ms window is lost; recovery is the
/// transport's dup-ACK / RTO-backoff machinery.
pub fn chaos_flap() -> TestbedConfig {
    let mut cfg = chaos_base();
    chaos_windows(&mut cfg, FaultKind::LinkFlap, 1000);
    cfg
}

/// Chaos scenario `chaos-invalidate`: recurring IOTLB invalidation storms
/// (a full IOTLB + page-walk-cache flush every 50 µs inside each window),
/// forcing page-walk bursts on the DMA translation path.
pub fn chaos_invalidate() -> TestbedConfig {
    let mut cfg = chaos_base();
    chaos_windows(
        &mut cfg,
        FaultKind::IotlbStorm {
            flush_period: SimDuration::from_micros(50),
        },
        1000,
    );
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_toggles_iommu() {
        assert!(fig3(12, true).iommu.enabled);
        assert!(!fig3(12, false).iommu.enabled);
        assert_eq!(fig3(7, true).receiver_threads, 7);
    }

    #[test]
    fn fig4_toggles_page_size() {
        assert_eq!(fig4(12, true).data_page, PageSize::Size2M);
        assert_eq!(fig4(12, false).data_page, PageSize::Size4K);
        assert!(fig4(12, false).iommu.enabled, "fig4 is always IOMMU-on");
    }

    #[test]
    fn fig5_sets_region_and_fixed_cores() {
        let cfg = fig5(16, true);
        assert_eq!(cfg.rx_region_bytes, 16 << 20);
        assert_eq!(cfg.receiver_threads, 12);
    }

    #[test]
    fn fig6_sets_antagonist() {
        let cfg = fig6(15, false);
        assert_eq!(cfg.antagonist_cores, 15);
        assert!(!cfg.iommu.enabled);
    }

    #[test]
    fn blindspot_sets_target() {
        let cfg = cc_blindspot(12, 40);
        match cfg.cc {
            CcKind::Swift(ref s) => {
                assert_eq!(s.host_target, hostcc_sim::SimDuration::from_micros(40))
            }
            _ => panic!("expected swift"),
        }
    }

    #[test]
    fn host_aware_preserves_swift_params() {
        let mut base = baseline();
        if let CcKind::Swift(ref mut sc) = base.cc {
            sc.ai = 0.125;
        }
        let cfg = with_host_aware(base);
        match cfg.cc {
            CcKind::HostAware(ref h) => assert_eq!(h.swift.ai, 0.125),
            _ => panic!("expected host-aware"),
        }
    }

    #[test]
    fn dctcp_baseline_enables_ecn() {
        let cfg = with_dctcp(baseline());
        assert!(matches!(cfg.cc, CcKind::Dctcp(_)));
        assert!(cfg.ecn_threshold_bytes > 0);
    }

    #[test]
    fn mixed_reads_set_a_distribution() {
        let cfg = with_mixed_reads(baseline());
        assert_eq!(cfg.read_size_mix.len(), 4);
        let total: f64 = cfg.read_size_mix.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ablations_apply() {
        let cfg = with_nic_buffer(baseline(), 4 << 20);
        assert_eq!(cfg.nic.input_buffer_bytes, 4 << 20);
        let cfg = with_iotlb_entries(baseline(), 512);
        assert_eq!(cfg.iommu.iotlb_entries, 512);
        assert_eq!(cfg.iommu.iotlb_ways, 512);
        let cfg = with_membw_qos(baseline(), 0.5);
        assert!((cfg.stream.per_core_bytes_per_sec - 5e9).abs() < 1.0);
    }

    #[test]
    fn coarse_time_sets_grid_and_fusion() {
        let cfg = with_coarse_time(baseline());
        assert_eq!(cfg.resolution.nanos(), 64);
        assert!(cfg.fuse_chains);
        assert!(cfg.validate().is_ok());
        // The default profile stays exact: historical goldens depend on it.
        assert!(baseline().resolution.is_exact());
        assert!(!baseline().fuse_chains);
    }

    #[test]
    fn line_rate_generation_scales_the_whole_host() {
        let base = baseline();
        // Generation 1 (and the 0 clamp) is the paper's testbed unchanged.
        for m in [0, 1] {
            let cfg = with_line_rate_generation(baseline(), m);
            assert_eq!(cfg.sender_link_bps, base.sender_link_bps);
            assert_eq!(cfg.pcie.gen, base.pcie.gen);
            assert_eq!(cfg.core_pkt_cost, base.core_pkt_cost);
        }
        let g2 = with_line_rate_generation(baseline(), 2);
        assert_eq!(g2.sender_link_bps, base.sender_link_bps * 2.0);
        assert_eq!(g2.access_link_bps, base.access_link_bps * 2.0);
        assert_eq!(g2.pcie.gen, hostcc_pcie::PcieGen::Gen4);
        assert_eq!(g2.memsys.channels, base.memsys.channels);
        let g4 = with_line_rate_generation(baseline(), 4);
        assert_eq!(g4.pcie.gen, hostcc_pcie::PcieGen::Gen5);
        assert_eq!(g4.memsys.channels, base.memsys.channels * 2);
        assert_eq!(g4.credits.posted_data, base.credits.posted_data * 4);
        assert_eq!(g4.core_pkt_cost, base.core_pkt_cost / 4);
        // Scaled hosts must still be valid testbeds (the fleet bench
        // builds on this) and keep exact time unless opted into coarse.
        for m in [2, 4] {
            let cfg = with_line_rate_generation(baseline(), m);
            assert!(cfg.validate().is_ok());
            assert!(cfg.resolution.is_exact());
        }
    }

    #[test]
    fn chaos_scenarios_carry_fault_plans() {
        for cfg in [chaos_replay(), chaos_flap(), chaos_invalidate()] {
            assert!(!cfg.faults.is_empty());
            assert_eq!(cfg.faults.window_count(), 9);
            assert!(cfg.validate().is_ok());
        }
        assert!(matches!(
            chaos_replay().faults.specs[0].kind,
            FaultKind::PcieReplay { .. }
        ));
        assert!(matches!(
            chaos_flap().faults.specs[0].kind,
            FaultKind::LinkFlap
        ));
        assert!(matches!(
            chaos_invalidate().faults.specs[0].kind,
            FaultKind::IotlbStorm { .. }
        ));
    }
}

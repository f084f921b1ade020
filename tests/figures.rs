//! Figure-shape regression tests: quick (abbreviated) versions of each
//! paper figure's headline assertions, so a change that silently breaks
//! the reproduction fails CI rather than being discovered at bench time.
//!
//! These use short runs; the full-resolution sweeps live in the bench
//! harnesses.

use hostcc::cluster::{simulate, summarize, ClusterConfig};
use hostcc::experiment::{run as try_run, sweep as try_sweep, RunPlan, SweepPoint};
use hostcc::scenarios;
use hostcc::TestbedConfig;

/// These figure tests drive known-valid configurations; unwrap the
/// panic-free experiment API at the edge.
fn run(cfg: TestbedConfig, plan: RunPlan) -> hostcc::RunMetrics {
    try_run(cfg, plan).expect("figure config runs")
}

fn sweep<L: Send + std::fmt::Debug>(
    points: Vec<(L, TestbedConfig)>,
    plan: RunPlan,
) -> Vec<SweepPoint<L>> {
    try_sweep(points, plan).expect("figure configs run")
}

fn plan() -> RunPlan {
    RunPlan {
        warmup: hostcc::substrate::sim::SimDuration::from_millis(15),
        measure: hostcc::substrate::sim::SimDuration::from_millis(15),
    }
}

#[test]
fn fig3_shape() {
    let pts = sweep(
        vec![
            ((4u32, true), scenarios::fig3(4, true)),
            ((4, false), scenarios::fig3(4, false)),
            ((16, true), scenarios::fig3(16, true)),
            ((16, false), scenarios::fig3(16, false)),
        ],
        plan(),
    );
    let get = |c: u32, on: bool| {
        pts.iter()
            .find(|p| p.label == (c, on))
            .map(|p| &p.metrics)
            .unwrap()
    };
    // CPU-bound regime: IOMMU setting irrelevant, ~46 Gbps at 4 cores.
    let t4_on = get(4, true).app_throughput_gbps();
    let t4_off = get(4, false).app_throughput_gbps();
    assert!((t4_on - t4_off).abs() < 2.0, "{t4_on} vs {t4_off}");
    assert!((t4_on - 46.0).abs() < 4.0, "4-core ramp point: {t4_on}");
    // Interconnect-bound regime: OFF near ceiling, ON degraded with misses.
    let on16 = get(16, true);
    let off16 = get(16, false);
    assert!(off16.app_throughput_gbps() > 86.0);
    assert!(on16.app_throughput_gbps() < off16.app_throughput_gbps() - 5.0);
    assert!(on16.iotlb_misses_per_packet() > 1.5);
    assert!(on16.drop_rate() > 0.01);
    assert_eq!(off16.iotlb_misses, 0);
}

#[test]
fn fig4_shape() {
    let huge = run(scenarios::fig4(16, true), plan());
    let small = run(scenarios::fig4(16, false), plan());
    // >30% slower than the IOMMU-off ceiling, worse than hugepages, more
    // misses per packet (deeper walks, twice the payload pages).
    assert!(small.app_throughput_gbps() < 0.7 * 92.0);
    assert!(small.app_throughput_gbps() < huge.app_throughput_gbps());
    assert!(small.iotlb_misses_per_packet() > huge.iotlb_misses_per_packet() + 1.0);
}

#[test]
fn fig5_shape() {
    let small = run(scenarios::fig5(4, true), plan());
    let large = run(scenarios::fig5(16, true), plan());
    assert!(
        large.iotlb_misses_per_packet() > small.iotlb_misses_per_packet() + 0.4,
        "bigger regions, more misses: {} vs {}",
        small.iotlb_misses_per_packet(),
        large.iotlb_misses_per_packet()
    );
    assert!(large.app_throughput_gbps() < small.app_throughput_gbps());
    // IOMMU OFF is flat and clean regardless of region size.
    let off = run(scenarios::fig5(16, false), plan());
    assert!(off.app_throughput_gbps() > 88.0);
    assert_eq!(off.host_drops(), 0);
}

#[test]
fn fig6_shape() {
    let pts = sweep(
        vec![
            ((0u32, false), scenarios::fig6(0, false)),
            ((15, false), scenarios::fig6(15, false)),
            ((15, true), scenarios::fig6(15, true)),
        ],
        plan(),
    );
    let get = |c: u32, on: bool| {
        pts.iter()
            .find(|p| p.label == (c, on))
            .map(|p| &p.metrics)
            .unwrap()
    };
    let clean = get(0, false);
    let noisy_off = get(15, false);
    let noisy_on = get(15, true);
    // Antagonist saturates the bus and costs throughput.
    assert!(noisy_off.memory_bandwidth_gbytes() > 75.0);
    assert!(noisy_off.app_throughput_gbps() < clean.app_throughput_gbps() * 0.85);
    // IOMMU-on is strictly worse under the same antagonism.
    assert!(noisy_on.app_throughput_gbps() < noisy_off.app_throughput_gbps());
    // Drops at clearly sub-line-rate utilisation.
    assert!(noisy_off.host_drops() > 0);
    assert!(noisy_off.link_utilization(100e9) < 0.9);
}

#[test]
fn fig1_shape() {
    let points = simulate(
        ClusterConfig {
            samples: 24,
            seed: 7,
            heavy_antagonist_fraction: 0.35,
        },
        RunPlan::quick(),
    );
    let s = summarize(&points);
    assert!(
        s.utilization_drop_correlation > 0.0,
        "positive correlation required: {}",
        s.utilization_drop_correlation
    );
    assert!(s.any_drop_fraction > 0.1, "some hosts must drop");
    assert!(
        s.low_util_drop_fraction > 0.0,
        "some hosts below 50% utilisation must drop: {}",
        s.low_util_drop_fraction
    );
}

#[test]
fn blindspot_shape() {
    // The central §3.1 narrative: at the deployed target, drops with the
    // signal below threshold; with a big buffer, signal restored and drops
    // gone.
    let deployed = run(scenarios::cc_blindspot(14, 100), plan());
    assert!(deployed.drop_rate() > 0.01);
    assert!(deployed.host_delay_p50_us() < 105.0);

    let big_buffer = run(
        scenarios::with_nic_buffer(scenarios::cc_blindspot(14, 100), 4 << 20),
        plan(),
    );
    assert_eq!(big_buffer.host_drops(), 0);
    assert!(big_buffer.host_delay_p99_us() > 100.0);
}

#[test]
fn ablation_directions_hold() {
    // Each §4 direction must keep its sign at quick resolution.
    let base = run(scenarios::fig3(14, true), plan());
    let iotlb = run(
        scenarios::with_iotlb_entries(scenarios::fig3(14, true), 512),
        plan(),
    );
    assert!(iotlb.app_throughput_gbps() > base.app_throughput_gbps() + 3.0);

    let bus = run(scenarios::fig6(12, false), plan());
    let qos = run(
        scenarios::with_membw_qos(scenarios::fig6(12, false), 0.5),
        plan(),
    );
    assert!(qos.app_throughput_gbps() > bus.app_throughput_gbps() + 5.0);

    let numa = run(
        scenarios::with_remote_antagonist(scenarios::fig6(12, false)),
        plan(),
    );
    assert!(numa.app_throughput_gbps() > bus.app_throughput_gbps() + 5.0);
}

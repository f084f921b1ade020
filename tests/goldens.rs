//! Golden digests: the engine-bench scenarios pinned bit for bit.
//!
//! The engine's determinism contract is that event order depends only on
//! `(time, insertion seq)`, so a seeded scenario always produces the same
//! metrics — down to histogram quantiles and occupancy sample vectors —
//! and dispatches exactly the same number of events.
//!
//! The exact goldens pin today's datapath to digests captured from the
//! pre-slab representation (events carrying `Packet` and `DmaJob` by
//! value): no refactor may move a single metric bit on any engine-bench
//! scenario. The coarse goldens pin the opt-in 64 ns profile the same
//! way. The timing wheel itself is checked against a reference binary
//! heap by randomized differential tests in `hostcc-sim`'s `queue.rs`.

use hostcc::experiment::RunPlan;
use hostcc::{metrics_json, scenarios, Simulation, TestbedConfig};

/// FNV-1a-64 over the exported metrics JSON: a one-bit change anywhere in
/// the headline metrics, histograms, or stage breakdown moves the digest.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Pin a scenario to a golden digest captured from the by-value datapath
/// (events carrying `Packet`/`DmaJob` directly, before the slab refactor).
/// `golden = (dispatched, delivered, (lookups, misses, walks), fnv, len)`.
fn assert_golden(name: &str, cfg: TestbedConfig, golden: (u64, u64, (u64, u64, u64), u64, usize)) {
    let plan = RunPlan::quick();
    let mut sim = Simulation::new(cfg);
    let m = sim.run(plan.warmup, plan.measure);
    let json = metrics_json(&m, &sim.world().counters, None);
    let (dispatched, delivered, iotlb, fnv, len) = golden;
    assert_eq!(sim.dispatched_total(), dispatched, "{name}: dispatched");
    assert_eq!(m.delivered_packets, delivered, "{name}: delivered");
    assert_eq!(
        (m.iotlb_lookups, m.iotlb_misses, m.walk_memory_accesses),
        iotlb,
        "{name}: iotlb"
    );
    assert_eq!(json.len(), len, "{name}: metrics JSON length");
    assert_eq!(
        fnv64(json.as_bytes()),
        fnv,
        "{name}: metrics JSON digest diverged from the by-value datapath"
    );
}

#[test]
fn golden_incast_matches_by_value_datapath() {
    assert_golden(
        "incast",
        scenarios::fig3(12, true),
        (
            380592,
            26857,
            (107444, 43870, 160680),
            0x88de29425ec84dd2,
            2124,
        ),
    );
}

#[test]
fn golden_antagonist_sweep_matches_by_value_datapath() {
    assert_golden(
        "antagonist_0",
        scenarios::fig6(0, true),
        (
            380592,
            26857,
            (107444, 43870, 160680),
            0x88de29425ec84dd2,
            2124,
        ),
    );
    assert_golden(
        "antagonist_8",
        scenarios::fig6(8, true),
        (
            297964,
            20444,
            (81789, 30737, 112411),
            0xc0af09a8f4d253dc,
            2108,
        ),
    );
    assert_golden(
        "antagonist_15",
        scenarios::fig6(15, true),
        (
            236160,
            17086,
            (68376, 20822, 75560),
            0xdad182da58697905,
            2108,
        ),
    );
}

#[test]
fn golden_cluster_fleet_matches_by_value_datapath() {
    let goldens = [
        (387557, 28061, (112136, 0, 0), 0xe3e999e4e962f414, 1978),
        (
            368793,
            25738,
            (102982, 39954, 146063),
            0x3acf8484a8bd19c7,
            2132,
        ),
    ];
    for (host, golden) in goldens.into_iter().enumerate() {
        let mut cfg = scenarios::with_mixed_reads(scenarios::baseline());
        cfg.seed = 0xF1EE7 + host as u64;
        cfg.receiver_threads = 8 + 4 * (host as u32 % 2);
        cfg.antagonist_cores = 4 * (host as u32 % 3);
        assert_golden(&format!("fleet_{host}"), cfg, golden);
    }
}

/// The six coarse-time goldens: the same engine-bench scenarios as the
/// exact goldens above, run through `scenarios::with_coarse_time` (64 ns
/// grid + chain fusion). Coarse time is an explicit opt-in that trades
/// sub-slot timing for fewer dispatched events, so it pins its *own*
/// digests — these values were captured when quantisation moved to the
/// event-queue boundary (components keep exact internal clocks, so coarse
/// links no longer cap at one packet per grid step) and any drift from
/// them is a regression.
fn coarse(cfg: TestbedConfig) -> TestbedConfig {
    scenarios::with_coarse_time(cfg)
}

fn fleet_cfg(host: usize) -> TestbedConfig {
    let mut cfg = scenarios::with_mixed_reads(scenarios::baseline());
    cfg.seed = 0xF1EE7 + host as u64;
    cfg.receiver_threads = 8 + 4 * (host as u32 % 2);
    cfg.antagonist_cores = 4 * (host as u32 % 3);
    cfg
}

#[test]
fn golden_coarse_incast_and_antagonist_sweep() {
    assert_golden(
        "coarse_incast",
        coarse(scenarios::fig3(12, true)),
        (
            335864,
            26673,
            (106697, 42618, 156067),
            0xfb2869de1addf07a,
            2127,
        ),
    );
    assert_golden(
        "coarse_antagonist_0",
        coarse(scenarios::fig6(0, true)),
        (
            335864,
            26673,
            (106697, 42618, 156067),
            0xfb2869de1addf07a,
            2127,
        ),
    );
    assert_golden(
        "coarse_antagonist_8",
        coarse(scenarios::fig6(8, true)),
        (
            240104,
            19852,
            (79437, 31715, 116302),
            0xc3e142c295a45b7a,
            2112,
        ),
    );
    assert_golden(
        "coarse_antagonist_15",
        coarse(scenarios::fig6(15, true)),
        (
            201092,
            16612,
            (66468, 22861, 83499),
            0xbf0947e23acd7be0,
            2108,
        ),
    );
}

#[test]
fn golden_coarse_cluster_fleet() {
    let goldens = [
        (379320, 28061, (112139, 0, 0), 0xfbbba3d539451854, 1978),
        (
            340579,
            25356,
            (101455, 39808, 145584),
            0xb0d246104ffae67e,
            2129,
        ),
    ];
    for (host, golden) in goldens.into_iter().enumerate() {
        assert_golden(
            &format!("coarse_fleet_{host}"),
            coarse(fleet_cfg(host)),
            golden,
        );
    }
}

/// Re-pinning helper for the coarse goldens (run with
/// `cargo test -p hostcc-integration-tests capture_coarse -- --ignored --nocapture`
/// after an intentional coarse-path change, then paste the printed tuples
/// into the tests above).
#[test]
#[ignore]
fn capture_coarse_goldens() {
    let plan = RunPlan::quick();
    let mut cases: Vec<(String, TestbedConfig)> = vec![
        ("coarse_incast".into(), coarse(scenarios::fig3(12, true))),
        (
            "coarse_antagonist_0".into(),
            coarse(scenarios::fig6(0, true)),
        ),
        (
            "coarse_antagonist_8".into(),
            coarse(scenarios::fig6(8, true)),
        ),
        (
            "coarse_antagonist_15".into(),
            coarse(scenarios::fig6(15, true)),
        ),
    ];
    for host in 0..2 {
        cases.push((format!("coarse_fleet_{host}"), coarse(fleet_cfg(host))));
    }
    for (name, cfg) in cases {
        let mut sim = Simulation::new(cfg);
        let m = sim.run(plan.warmup, plan.measure);
        let json = metrics_json(&m, &sim.world().counters, None);
        println!(
            "{name}: ({}, {}, ({}, {}, {}), {:#x}, {}),",
            sim.dispatched_total(),
            m.delivered_packets,
            m.iotlb_lookups,
            m.iotlb_misses,
            m.walk_memory_accesses,
            fnv64(json.as_bytes()),
            json.len()
        );
    }
}

//! Differential tests for the deterministic parallel engine.
//!
//! The contract under test: thread count AND host→shard placement are
//! *unobservable*. A coupled multi-host fleet must produce bit-identical
//! `RunMetrics`, golden digests, fault counters and telemetry streams at
//! 1, 2, 4 and 5 shards (and on same-seed reruns) and under
//! round-robin, reversed, and measured-cost-rebalanced placements; a
//! 1-shard fleet wrapping a single uncoupled host must replay the serial
//! engine's historical goldens bit-for-bit — the epoch slicing itself
//! (super-epoch batching included) must be invisible.

use std::sync::{Arc, Mutex};

use hostcc::experiment::RunPlan;
use hostcc::fleet::{Fleet, FleetConfig, FleetTopology};
use hostcc::substrate::sim::{ParallelEngine, SimDuration};
use hostcc::{
    metrics_json, scenarios, FaultKind, FleetHost, RunMetrics, Simulation, TelemetryConfig,
    TestbedConfig,
};

/// FNV-1a-64 over exported metrics JSON (same digest as the serial
/// golden suite in `goldens.rs`).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn small_fleet(shards: u32) -> FleetConfig {
    FleetConfig {
        hosts: 5,
        shards,
        base: TestbedConfig {
            senders: 6,
            receiver_threads: 4,
            ..TestbedConfig::default()
        },
        ..FleetConfig::coupled_fleet()
    }
}

fn short_plan() -> RunPlan {
    RunPlan {
        warmup: SimDuration::from_millis(2),
        measure: SimDuration::from_millis(4),
    }
}

/// Run a fleet config and produce one digest tuple per host, plus the
/// fleet-wide epoch and dispatch totals.
fn fleet_digests(cfg: &FleetConfig, plan: RunPlan) -> (Vec<(u64, usize)>, u64, u64) {
    let mut fleet = Fleet::new(cfg).expect("valid fleet");
    let metrics = fleet.run(plan).expect("fleet runs");
    let digests = metrics
        .iter()
        .zip(fleet.hosts())
        .map(|(m, h)| {
            let json = metrics_json(m, &h.sim().world().counters, None);
            (fnv64(json.as_bytes()), json.len())
        })
        .collect();
    (digests, fleet.epochs(), fleet.dispatched_total())
}

/// The tentpole differential: the coupled fleet's per-host metrics JSON
/// (headline numbers, histograms, stage breakdowns — everything the
/// exporter covers) is bit-identical at 1/2/4/5 shards (validation caps
/// shards at the host count) and on same-seed reruns, and the
/// epoch/dispatch totals agree too.
#[test]
fn fleet_digests_bit_identical_at_any_shard_count() {
    let reference = fleet_digests(&small_fleet(1), short_plan());
    assert_eq!(reference.0.len(), 5);
    // 1 shard again is the same-seed rerun.
    for shards in [1u32, 2, 4, 5] {
        let got = fleet_digests(&small_fleet(shards), short_plan());
        assert_eq!(got, reference, "{shards} shards");
    }
}

/// A tree-topology light-host fleet (the scaling configuration CI
/// pushes to 1k hosts) is shard-count invariant too: topology generality
/// must not introduce any placement- or shard-coupled state.
#[test]
fn tree_fleet_digests_bit_identical_across_shards() {
    let cfg_for = |shards: u32| FleetConfig::light_fleet(32, shards);
    let reference = fleet_digests(&cfg_for(1), short_plan());
    assert_eq!(reference.0.len(), 32);
    for shards in [2u32, 4] {
        let got = fleet_digests(&cfg_for(shards), short_plan());
        assert_eq!(got, reference, "{shards} shards");
    }
}

/// Fault counters survive sharding: a fleet whose hosts all run a
/// recurring link-flap/replay schedule reports identical per-host
/// `FaultSummary` values at every shard count.
#[test]
fn fault_counters_are_shard_count_invariant() {
    let cfg_for = |shards: u32| {
        let mut cfg = small_fleet(shards);
        cfg.base.faults = cfg.base.faults.clone().recurring(
            FaultKind::LinkFlap,
            SimDuration::from_millis(1),
            SimDuration::from_micros(300),
            SimDuration::from_millis(2),
            3,
        );
        cfg.base.flow.partial_ack_rtx = true;
        cfg
    };
    let run = |shards: u32| {
        let mut fleet = Fleet::new(&cfg_for(shards)).expect("valid fleet");
        fleet.run(short_plan()).expect("fleet runs")
    };
    let reference: Vec<RunMetrics> = run(1);
    let summaries: Vec<_> = reference.iter().map(|m| m.faults).collect();
    assert!(
        summaries
            .iter()
            .all(|s| s.expect("fault plan active").windows_injected > 0),
        "fault windows must actually open: {summaries:?}"
    );
    for shards in [2u32, 4] {
        let got: Vec<_> = run(shards).iter().map(|m| m.faults).collect();
        assert_eq!(got, summaries, "{shards} shards");
    }
}

/// A `Write` sink backed by a shared buffer, so the telemetry JSONL
/// stream can be read back after the fleet (and its worker threads) are
/// done with it.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streaming telemetry is shard-count invariant byte-for-byte: each
/// host's JSONL sample stream (timestamps, signal values, episode
/// inputs) is identical whether the fleet ran on 1 or 4 worker threads.
#[test]
fn telemetry_streams_are_shard_count_invariant() {
    let streams = |shards: u32| -> Vec<Vec<u8>> {
        let mut cfg = small_fleet(shards);
        cfg.hosts = 4;
        cfg.base.telemetry = TelemetryConfig::enabled();
        let mut fleet = Fleet::new(&cfg).expect("valid fleet");
        let bufs: Vec<SharedBuf> = fleet
            .hosts_mut()
            .iter_mut()
            .map(|h| {
                let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
                h.sim_mut()
                    .world_mut()
                    .telemetry
                    .set_sink(Box::new(buf.clone()));
                buf
            })
            .collect();
        fleet.run(short_plan()).expect("fleet runs");
        bufs.into_iter()
            .map(|b| std::mem::take(&mut *b.0.lock().unwrap()))
            .collect()
    };
    let reference = streams(1);
    assert!(
        reference.iter().all(|s| s.len() > 1000),
        "sampler must actually stream: {:?}",
        reference.iter().map(Vec::len).collect::<Vec<_>>()
    );
    for shards in [2u32, 4] {
        assert_eq!(streams(shards), reference, "{shards} shards");
    }
}

/// Drive one uncoupled host through the parallel engine the way
/// `Simulation::try_run` drives the serial engine: warmup slice, arm,
/// measure slice, snapshot.
fn run_on_parallel_engine(cfg: TestbedConfig, plan: RunPlan) -> (RunMetrics, u64, String) {
    let host = FleetHost::new(Simulation::from_testbed(hostcc::Testbed::new(cfg)));
    let mut engine = ParallelEngine::new(vec![host], 1, SimDuration::from_micros(8));
    let t0 = engine.hosts()[0].sim().now();
    let t1 = t0 + plan.warmup;
    engine.run_to(t1);
    engine.hosts_mut()[0].sim_mut().world_mut().arm_metrics(t1);
    let t2 = t1 + plan.measure;
    engine.run_to(t2);
    let m = engine.hosts_mut()[0].sim_mut().world_mut().snapshot(t2);
    let host = &engine.hosts()[0];
    let json = metrics_json(&m, &host.sim().world().counters, None);
    (m, host.sim().dispatched_total(), json)
}

/// A 1-shard fleet host must replay the serial engine bit-for-bit on all
/// six historical golden scenarios — same dispatched-event counts, same
/// metrics-JSON digests the serial suite (`goldens.rs`) pins.
/// The lookahead-sliced `run_to` loop (an 8 µs epoch grid over a 15 ms
/// run) must be indistinguishable from one big `run_until`.
#[test]
fn one_shard_fleet_matches_the_serial_goldens() {
    let goldens = [
        (
            "incast",
            scenarios::fig3(12, true),
            (380592u64, 26857u64, 0x88de29425ec84dd2u64, 2124usize),
        ),
        (
            "antagonist_0",
            scenarios::fig6(0, true),
            (380592, 26857, 0x88de29425ec84dd2, 2124),
        ),
        (
            "antagonist_8",
            scenarios::fig6(8, true),
            (297964, 20444, 0xc0af09a8f4d253dc, 2108),
        ),
        (
            "antagonist_15",
            scenarios::fig6(15, true),
            (236160, 17086, 0xdad182da58697905, 2108),
        ),
        (
            "fleet_0",
            fleet_cfg(0),
            (387557, 28061, 0xe3e999e4e962f414, 1978),
        ),
        (
            "fleet_1",
            fleet_cfg(1),
            (368793, 25738, 0x3acf8484a8bd19c7, 2132),
        ),
    ];
    let plan = RunPlan::quick();
    for (name, cfg, (dispatched, delivered, fnv, len)) in goldens {
        let (m, got_dispatched, json) = run_on_parallel_engine(cfg, plan);
        assert_eq!(got_dispatched, dispatched, "{name}: dispatched");
        assert_eq!(m.delivered_packets, delivered, "{name}: delivered");
        assert_eq!(json.len(), len, "{name}: metrics JSON length");
        assert_eq!(
            fnv64(json.as_bytes()),
            fnv,
            "{name}: parallel-engine digest diverged from the serial golden"
        );
    }
}

/// The two heterogeneous cluster-host shapes from the serial golden
/// suite (same construction as `goldens::fleet_cfg`).
fn fleet_cfg(host: usize) -> TestbedConfig {
    let mut cfg = scenarios::with_mixed_reads(scenarios::baseline());
    cfg.seed = 0xF1EE7 + host as u64;
    cfg.receiver_threads = 8 + 4 * (host as u32 % 2);
    cfg.antagonist_cores = 4 * (host as u32 % 3);
    cfg
}

/// Cross-host coupling is real: cutting the fan-in changes what the
/// receiving hosts deliver, so the differential tests above are not
/// vacuously comparing isolated hosts.
#[test]
fn fan_in_actually_couples_hosts() {
    let run = |fanin: u32| {
        let mut cfg = small_fleet(1);
        cfg.topology = FleetTopology::FaninRing { fanin };
        let mut fleet = Fleet::new(&cfg).expect("valid fleet");
        let m = fleet.run(short_plan()).expect("fleet runs");
        m.iter().map(|m| m.delivered_packets).collect::<Vec<_>>()
    };
    let coupled = run(2);
    let isolated = run(0);
    assert_ne!(
        coupled, isolated,
        "remote flows must contribute delivered packets"
    );
}

/// How to place the 5 hosts of `small_fleet` onto shards.
#[derive(Clone, Copy, Debug)]
enum Placement {
    /// The engine default: host `i` on shard `i % S`.
    RoundRobin,
    /// Host `i` on shard `(n - 1 - i) % S` — reverses which worker
    /// drives which host.
    Reversed,
    /// Greedy bin-packing of measured per-host dispatch counts, taken
    /// after the probe slice.
    Rebalanced,
}

/// The placement-invariance differential (the tentpole's load-balancing
/// invariant): per-host metrics digests, fault counters, and telemetry
/// byte streams are bit-identical under round-robin, reversed, and
/// measured-cost-rebalanced host→shard assignments at 1, 2 and 4
/// shards. Every run shares one slice schedule (probe → warmup →
/// measure), because the epoch grid is slice-schedule-dependent; within
/// that schedule, *who executes a host* must never leak into results.
#[test]
fn placement_is_unobservable_in_digests_faults_and_telemetry() {
    let run = |shards: u32, placement: Placement| {
        let mut cfg = small_fleet(shards);
        // Exercise all three observation channels at once: faults and
        // telemetry ride on top of the metrics the digests cover.
        cfg.base.faults = cfg.base.faults.clone().recurring(
            hostcc::FaultKind::LinkFlap,
            SimDuration::from_millis(1),
            SimDuration::from_micros(300),
            SimDuration::from_millis(2),
            3,
        );
        cfg.base.flow.partial_ack_rtx = true;
        cfg.base.telemetry = TelemetryConfig::enabled();
        let mut fleet = Fleet::new(&cfg).expect("valid fleet");
        let bufs: Vec<SharedBuf> = fleet
            .hosts_mut()
            .iter_mut()
            .map(|h| {
                let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
                h.sim_mut()
                    .world_mut()
                    .telemetry
                    .set_sink(Box::new(buf.clone()));
                buf
            })
            .collect();
        let n = cfg.hosts;
        // Probe slice: gives Rebalanced real dispatch counts to pack,
        // and pins the slice schedule for everyone else.
        let probe = fleet.now() + SimDuration::from_micros(300);
        fleet.run_to(probe).expect("probe slice");
        match placement {
            Placement::RoundRobin => {}
            Placement::Reversed => {
                fleet.set_placement((0..n).map(|i| (n - 1 - i) % shards).collect());
            }
            Placement::Rebalanced => {
                fleet.rebalance();
            }
        }
        let plan = short_plan();
        let t1 = fleet.now() + plan.warmup;
        fleet.run_to(t1).expect("warmup");
        for h in fleet.hosts_mut() {
            h.sim_mut().world_mut().arm_metrics(t1);
        }
        let t2 = t1 + plan.measure;
        fleet.run_to(t2).expect("measure");
        let digests: Vec<(u64, Option<hostcc::FaultSummary>)> = fleet
            .hosts_mut()
            .iter_mut()
            .map(|h| {
                let m = h.sim_mut().world_mut().snapshot(t2);
                let json = metrics_json(&m, &h.sim().world().counters, None);
                (fnv64(json.as_bytes()), m.faults)
            })
            .collect();
        let telemetry: Vec<Vec<u8>> = bufs
            .into_iter()
            .map(|b| std::mem::take(&mut *b.0.lock().unwrap()))
            .collect();
        (digests, telemetry, fleet.epochs(), fleet.super_epochs())
    };
    let reference = run(1, Placement::RoundRobin);
    assert!(
        reference
            .0
            .iter()
            .all(|(_, f)| f.as_ref().map(|f| f.windows_injected > 0).unwrap_or(false)),
        "fault windows must actually open"
    );
    assert!(
        reference.1.iter().all(|s| s.len() > 1000),
        "telemetry must actually stream"
    );
    for shards in [1u32, 2, 4] {
        for placement in [
            Placement::RoundRobin,
            Placement::Reversed,
            Placement::Rebalanced,
        ] {
            let got = run(shards, placement);
            assert_eq!(got, reference, "shards={shards} placement={placement:?}");
        }
    }
}

/// Super-epoch batching is observable only in the barrier count: an
/// uncoupled fleet (no fabric edges, so no envelope can ever exist)
/// produces identical per-host digests with amortization on or off,
/// while the epoch totals collapse from hundreds per slice to one.
#[test]
fn super_epochs_collapse_barriers_without_changing_results() {
    let mut cfg = small_fleet(2);
    cfg.topology = FleetTopology::FaninRing { fanin: 0 };
    let run = |amortize: bool| {
        let mut fleet = Fleet::new(&cfg).expect("valid fleet");
        fleet.set_amortization(amortize);
        let metrics = fleet.run(short_plan()).expect("fleet runs");
        let digests: Vec<u64> = metrics
            .iter()
            .zip(fleet.hosts())
            .map(|(m, h)| fnv64(metrics_json(m, &h.sim().world().counters, None).as_bytes()))
            .collect();
        (digests, fleet.epochs(), fleet.super_epochs())
    };
    let (amortized, a_epochs, a_super) = run(true);
    let (classic, c_epochs, c_super) = run(false);
    assert_eq!(amortized, classic, "digests must not depend on batching");
    assert_eq!(a_epochs, 2, "one super-epoch per run_to slice");
    assert_eq!(a_super, 2);
    assert!(c_epochs > 100, "classic epochs: {c_epochs}");
    assert_eq!(c_super, 0);
}

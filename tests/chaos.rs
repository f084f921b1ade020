//! Chaos tests: deterministic fault injection and recovery.
//!
//! Each of the six fault kinds gets a scenario-level recovery test: a
//! one-shot fault window is placed inside the measurement interval and the
//! run must (a) complete without tripping the progress watchdog, (b) show
//! the kind-specific damage in the fault counters, (c) recover — post-fault
//! goodput within 10% of the pre-fault mean — and (d) leave no flow
//! permanently stalled. The registered chaos scenarios and the zero-fault
//! bit-identity guarantees are covered at the end.

use hostcc::experiment::{run as try_run, RunPlan};
use hostcc::substrate::sim::SimDuration;
use hostcc::{
    metrics_json, scenarios, FaultKind, FaultPlan, FaultSummary, RunMetrics, Simulation,
    TestbedConfig, TraceConfig,
};

/// A small testbed kept cheap enough to run six chaos cases in CI, with
/// partial-ACK recovery on (like the registered chaos scenarios) so
/// whole-window losses clear at ACK-clock speed.
fn small() -> TestbedConfig {
    let mut cfg = scenarios::baseline();
    cfg.senders = 6;
    cfg.receiver_threads = 4;
    cfg.flow.partial_ack_rtx = true;
    cfg
}

/// Run `small()` with a single `kind` window opening 2 ms into the
/// measurement interval, leaving a long (~32 ms) post-fault observation
/// window: `recovered` compares phase *means*, so the RTO dead time after
/// a blackout must be a small fraction of the post-fault phase.
fn run_one_shot(kind: FaultKind, duration_us: u64) -> (RunMetrics, Simulation) {
    let mut cfg = small();
    cfg.faults = FaultPlan::new().one_shot(
        kind,
        SimDuration::from_millis(4),
        SimDuration::from_micros(duration_us),
    );
    let mut sim = Simulation::new(cfg);
    let m = sim
        .try_run(SimDuration::from_millis(2), SimDuration::from_millis(34))
        .expect("chaos run must not stall");
    (m, sim)
}

/// The common recovery contract every fault kind must satisfy.
fn assert_recovered(m: &RunMetrics, name: &str) -> FaultSummary {
    let s = m.faults.expect("fault plan must produce a summary");
    assert_eq!(s.windows_injected, 1, "{name}: exactly one window");
    assert!(s.goodput_before_bps > 0.0, "{name}: no pre-fault goodput");
    assert!(s.goodput_after_bps > 0.0, "{name}: no post-fault goodput");
    assert!(
        s.recovered,
        "{name}: post-fault goodput must be within 10% of pre-fault: {s:?}"
    );
    s
}

/// No flow is permanently stalled: after the run, every sender keeps
/// acknowledging new data and every receiver flow keeps delivering.
fn assert_all_flows_progress(sim: &mut Simulation, name: &str) {
    let before = sim.world().flow_progress();
    sim.advance(SimDuration::from_millis(2));
    let after = sim.world().flow_progress();
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(
            a.0 > b.0,
            "{name}: flow {i} stopped acking ({} -> {})",
            b.0,
            a.0
        );
        assert!(
            a.1 > b.1,
            "{name}: flow {i} stopped delivering ({} -> {})",
            b.1,
            a.1
        );
    }
}

#[test]
fn pcie_replay_recovers() {
    let (m, mut sim) = run_one_shot(FaultKind::PcieReplay { nak_rate: 0.3 }, 400);
    assert_recovered(&m, "pcie_replay");
    let w = sim.world();
    assert!(
        w.counters.lifetime("pcie.replay.replays") > 0,
        "NAKs must force TLP replays"
    );
    assert!(
        w.counters.lifetime("pcie.replay.ns") > 0,
        "replay-timer backoff must cost link time"
    );
    assert_all_flows_progress(&mut sim, "pcie_replay");
}

#[test]
fn link_flap_recovers() {
    let (m, mut sim) = run_one_shot(FaultKind::LinkFlap, 400);
    let s = assert_recovered(&m, "link_flap");
    assert!(s.link_dropped_packets > 0, "blackout must eat packets");
    assert!(
        m.retransmits > 0,
        "transport must retransmit what the flap destroyed"
    );
    assert!(
        s.goodput_during_bps < s.goodput_before_bps,
        "goodput must dip while the link is dark: {s:?}"
    );
    assert_all_flows_progress(&mut sim, "link_flap");
}

#[test]
fn descriptor_stall_recovers() {
    let (m, mut sim) = run_one_shot(FaultKind::DescriptorStall, 400);
    let s = assert_recovered(&m, "descriptor_stall");
    assert!(
        s.deferred_refills > 0,
        "stall window must defer descriptor refills"
    );
    assert_all_flows_progress(&mut sim, "descriptor_stall");
}

#[test]
fn iotlb_storm_recovers() {
    let (m, mut sim) = run_one_shot(
        FaultKind::IotlbStorm {
            flush_period: SimDuration::from_micros(50),
        },
        500,
    );
    let s = assert_recovered(&m, "iotlb_storm");
    assert!(
        s.iotlb_flushes >= 10,
        "a 500us window with 50us flush period must flush ~10 times, got {}",
        s.iotlb_flushes
    );
    assert_all_flows_progress(&mut sim, "iotlb_storm");
}

#[test]
fn mem_throttle_recovers() {
    // The factor scales the NIC's memory-bandwidth *share*, and the
    // small testbed is CPU-bound far below that share — so the cut must
    // be deep (1%) before the grant falls under the delivery demand.
    let (m, mut sim) = run_one_shot(FaultKind::MemThrottle { factor: 0.01 }, 400);
    let s = assert_recovered(&m, "mem_throttle");
    assert!(
        s.goodput_during_bps < s.goodput_before_bps,
        "a 99% bandwidth cut must dent goodput: {s:?}"
    );
    assert_all_flows_progress(&mut sim, "mem_throttle");
}

#[test]
fn core_preempt_recovers() {
    let (m, mut sim) = run_one_shot(FaultKind::CorePreempt { cores: 2 }, 400);
    let s = assert_recovered(&m, "core_preempt");
    // Preemption only charges the time a core was not already busy, so
    // the stolen time is positive but below 2 x 400us.
    assert!(s.preempt_ns > 0, "preemption must steal receiver-core time");
    assert_all_flows_progress(&mut sim, "core_preempt");
}

/// The registered chaos scenarios run to completion under the quick plan
/// (watchdog never fires), inject their recurring windows, and keep
/// delivering. Latency-only faults (replay, invalidate) must also meet
/// the full recovery bar; the flap's recurring blackouts leave only ~3 ms
/// between the last window and the end of the run, so the bar there is
/// that goodput is climbing back, not already within 10%.
#[test]
fn chaos_scenarios_run_and_recover() {
    for (name, cfg, full_recovery) in [
        ("chaos-replay", scenarios::chaos_replay(), true),
        ("chaos-flap", scenarios::chaos_flap(), false),
        ("chaos-invalidate", scenarios::chaos_invalidate(), true),
    ] {
        let m =
            try_run(cfg, RunPlan::quick()).unwrap_or_else(|e| panic!("{name} must not stall: {e}"));
        let s = m.faults.expect("chaos scenarios carry fault plans");
        assert!(s.windows_injected > 0, "{name}: no windows opened");
        if full_recovery {
            assert!(
                s.recovered,
                "{name}: must recover between recurring windows: {s:?}"
            );
        } else {
            assert!(
                s.goodput_after_bps > s.goodput_during_bps,
                "{name}: goodput must climb once windows stop: {s:?}"
            );
        }
        assert!(m.delivered_packets > 0, "{name}: nothing delivered");
    }
}

/// The three registered chaos scenarios.
fn chaos_scenarios() -> [(&'static str, TestbedConfig); 3] {
    [
        ("chaos-replay", scenarios::chaos_replay()),
        ("chaos-flap", scenarios::chaos_flap()),
        ("chaos-invalidate", scenarios::chaos_invalidate()),
    ]
}

/// Run `cfg` twice from the same seed under the quick plan; neither run
/// may trip the watchdog.
fn run_twice(name: &str, cfg: &TestbedConfig) -> [(Simulation, RunMetrics); 2] {
    let plan = RunPlan::quick();
    [0, 1].map(|_| {
        let mut sim = Simulation::new(cfg.clone());
        let m = sim
            .try_run(plan.warmup, plan.measure)
            .unwrap_or_else(|e| panic!("{name} must not stall: {e}"));
        (sim, m)
    })
}

/// Assert two same-seed chaos runs agree: dispatched-event count, fault
/// summary (counters and recovery verdict) and exported metrics JSON.
fn assert_reruns_identical(name: &str, runs: &[(Simulation, RunMetrics); 2]) {
    let [(a, ma), (b, mb)] = runs;
    assert_eq!(
        a.dispatched_total(),
        b.dispatched_total(),
        "{name}: dispatched-event counts diverged"
    );
    assert!(ma.faults.is_some(), "{name}: chaos runs carry fault plans");
    assert_eq!(
        ma.faults, mb.faults,
        "{name}: fault summary (counters/recovery verdict) diverged"
    );
    let ja = metrics_json(ma, &a.world().counters, None);
    let jb = metrics_json(mb, &b.world().counters, None);
    assert_eq!(ja, jb, "{name}: metrics JSON diverged");
}

/// Chaos runs are bit-for-bit reproducible: same seed, same plan, same
/// metrics — faults included.
#[test]
fn chaos_runs_are_deterministic() {
    let a = try_run(scenarios::chaos_flap(), RunPlan::quick()).unwrap();
    let b = try_run(scenarios::chaos_flap(), RunPlan::quick()).unwrap();
    assert_eq!(a.delivered_packets, b.delivered_packets);
    assert_eq!(a.retransmits, b.retransmits);
    assert_eq!(a.host_delay.sum(), b.host_delay.sum());
    assert_eq!(a.faults, b.faults);
}

/// Every registered chaos scenario reruns bit for bit: same dispatched
/// events, fault summary and exported metrics JSON. Faults mutate world
/// state mid-instant (blackouts drop packets, storms flush the IOTLB),
/// so this covers the nastiest workloads we have.
#[test]
fn chaos_scenarios_rerun_bit_identical() {
    for (name, cfg) in chaos_scenarios() {
        assert_reruns_identical(name, &run_twice(name, &cfg));
    }
}

/// Reproducibility holds at coarse time too: the 64 ns grid quantises
/// every fault window edge and storm tick onto wheel slots, and chain
/// fusion auto-disables under a fault plan (CorePreempt rewrites
/// `core_free_at`, which would invalidate launch-time reservations).
#[test]
fn coarse_chaos_runs_are_deterministic() {
    for (name, cfg) in chaos_scenarios() {
        let name = format!("coarse-{name}");
        let cfg = scenarios::with_coarse_time(cfg);
        assert_reruns_identical(&name, &run_twice(&name, &cfg));
    }
}

/// The watchdog never fires on a clean (non-chaos) configuration, and a
/// zero-fault run carries no fault summary — in memory or in the JSON
/// export.
#[test]
fn zero_fault_runs_have_no_fault_artifacts() {
    let cfg = small();
    assert!(cfg.faults.is_empty(), "baseline must carry no plan");
    let mut sim = Simulation::with_trace(cfg, TraceConfig::enabled(1024));
    let m = sim
        .try_run(SimDuration::from_millis(2), SimDuration::from_millis(3))
        .expect("clean config must never trip the watchdog");
    assert!(m.faults.is_none(), "empty plan must not produce a summary");
    let json = metrics_json(&m, &sim.world().counters, sim.profile());
    assert!(
        !json.contains("\"faults\""),
        "zero-fault metrics JSON must omit the faults block"
    );
    assert!(
        !json.contains("faults.injected"),
        "zero-fault runs must not register fault counters"
    );
}

/// Telemetry under chaos is bit-identical across same-seed reruns: for
/// all three registered chaos scenarios, the sample stream, episode table
/// (boundaries + attributions) and flight-recorder dumps match exactly —
/// fault windows included (window opens trigger flight dumps).
#[test]
fn chaos_telemetry_is_deterministic() {
    for (name, mut cfg) in chaos_scenarios() {
        cfg.telemetry = hostcc::TelemetryConfig::enabled().with_flight_recorder();
        let [(a, ma), (b, mb)] = run_twice(name, &cfg);
        let ta = &a.world().telemetry;
        let tb = &b.world().telemetry;
        assert!(ta.samples_taken() > 0, "{name}: sampler never ticked");
        let sa: Vec<_> = ta.samples().copied().collect();
        let sb: Vec<_> = tb.samples().copied().collect();
        assert_eq!(sa, sb, "{name}: telemetry sample streams diverged");
        assert_eq!(
            ma.telemetry, mb.telemetry,
            "{name}: telemetry summary (episodes/attributions) diverged"
        );
        // Fault windows open at identical instants, so the flight
        // recorder captures identical dumps.
        assert_eq!(
            ta.flight_dumps(),
            tb.flight_dumps(),
            "{name}: flight dumps diverged"
        );
        assert!(
            !ta.flight_dumps().is_empty(),
            "{name}: fault windows must trigger flight dumps"
        );
        assert_eq!(ma.faults, mb.faults, "{name}: fault summary diverged");
    }
}

/// FNV-1a-64, as in `goldens.rs`.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The `"counters":{...}` object of an exported metrics JSON.
fn counters_section(json: &str) -> &str {
    let start = json.find("\"counters\":{").expect("counters section");
    let end = start + json[start..].find('}').expect("counters section closes");
    &json[start..=end]
}

/// The exported counter section of a fault-plan run is pinned: every
/// name (the `faults.*` and `pcie.replay.*` families only appear with a
/// plan) and every value, as `(fnv, len)` of the section. The goldens in
/// `goldens.rs` hash fault-free runs only. The section reports deltas
/// since arming, so the registry's lifetime values are pinned as well.
#[test]
fn chaos_counter_export_is_pinned() {
    for (name, cfg, golden) in [
        (
            "chaos-replay",
            scenarios::chaos_replay(),
            (16258930305031523274u64, 1268usize, 10494893279852478811u64),
        ),
        (
            "chaos-invalidate",
            scenarios::chaos_invalidate(),
            (7743911441831628596, 1267, 1732493192475124134),
        ),
    ] {
        let plan = RunPlan::quick();
        let mut sim = Simulation::new(cfg);
        let m = sim
            .try_run(plan.warmup, plan.measure)
            .unwrap_or_else(|e| panic!("{name} must not stall: {e}"));
        let json = metrics_json(&m, &sim.world().counters, None);
        let section = counters_section(&json);
        assert!(section.contains("\"faults.injected."), "{name}: {section}");
        assert!(
            section.contains("\"pcie.replay.naks\""),
            "{name}: {section}"
        );
        let lifetimes: String = sim
            .world()
            .counters
            .snapshot()
            .into_iter()
            .map(|(n, _)| format!("{n}={};", sim.world().counters.lifetime(&n)))
            .collect();
        assert_eq!(
            (
                fnv64(section.as_bytes()),
                section.len(),
                fnv64(lifetimes.as_bytes())
            ),
            golden,
            "{name}: counter export moved: {section} lifetimes {lifetimes}"
        );
    }
}

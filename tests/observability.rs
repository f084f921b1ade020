//! Integration tests for the observability layer: tracing must never
//! perturb simulation results, the event ring must honour its capacity,
//! the stage breakdown must decompose host delay exactly, and both
//! exporters (Chrome trace JSON, metrics JSON) must emit valid JSON
//! with the expected shape.

use hostcc::experiment::{run as try_run, run_traced as try_run_traced, RunPlan};
use hostcc::substrate::trace::json;
use hostcc::{chrome_trace_json, metrics_json, scenarios, Simulation, Stage, TraceConfig};

fn cfg() -> hostcc::TestbedConfig {
    let mut cfg = scenarios::fig3(8, true);
    cfg.senders = 6;
    cfg
}

/// These tests drive known-valid configurations; unwrap the panic-free
/// experiment API at the edge.
fn run(cfg: hostcc::TestbedConfig, plan: RunPlan) -> hostcc::RunMetrics {
    try_run(cfg, plan).expect("test config runs")
}

fn run_traced(
    cfg: hostcc::TestbedConfig,
    plan: RunPlan,
    trace: TraceConfig,
) -> (hostcc::RunMetrics, Simulation) {
    try_run_traced(cfg, plan, trace).expect("test config runs traced")
}

/// Tracing is observational only: a traced run produces bit-identical
/// metrics to an untraced run of the same configuration.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let plan = RunPlan::quick();
    let base = run(cfg(), plan);
    let (traced, sim) = run_traced(
        cfg(),
        plan,
        TraceConfig::enabled(50_000)
            .with_sampling(4)
            .with_timeline(10_000),
    );
    assert!(!sim.world().tracer.is_empty(), "tracer captured nothing");
    assert_eq!(base.delivered_packets, traced.delivered_packets);
    assert_eq!(base.host_drops(), traced.host_drops());
    assert_eq!(base.iotlb_misses, traced.iotlb_misses);
    assert_eq!(base.data_packets_sent, traced.data_packets_sent);
    assert_eq!(base.host_delay.count(), traced.host_delay.count());
    assert_eq!(base.host_delay.sum(), traced.host_delay.sum());
    assert_eq!(base.retransmits, traced.retransmits);
}

/// The event ring never holds more than its configured capacity: once
/// eviction has kicked in, the ring sits exactly at capacity.
#[test]
fn tracer_ring_respects_capacity() {
    let capacity = 512;
    let (_, sim) = run_traced(cfg(), RunPlan::quick(), TraceConfig::enabled(capacity));
    let tracer = &sim.world().tracer;
    assert!(tracer.evicted() > 0, "run too small to exercise eviction");
    assert_eq!(tracer.len(), capacity, "full ring must sit at capacity");
    assert!(tracer.offered() > 0, "sampling gate never consulted");
}

/// The per-stage breakdown decomposes the host-delay histogram exactly,
/// to the nanosecond, on a real run.
#[test]
fn stage_breakdown_sums_to_host_delay() {
    let m = run(cfg(), RunPlan::quick());
    assert!(m.delivered_packets > 0);
    assert_eq!(m.stage_breakdown.count(), m.host_delay.count());
    assert_eq!(m.stage_breakdown.total_sum_ns(), m.host_delay.sum());
    // Shares form a distribution over the five stages.
    let total: f64 = hostcc::StageClass::ALL
        .iter()
        .map(|c| m.stage_breakdown.share(*c))
        .sum();
    assert!((total - 1.0).abs() < 1e-9, "stage shares sum to {total}");
}

/// The Chrome trace exporter emits valid JSON in trace-event format:
/// a `traceEvents` array whose entries carry ph/ts/name, including
/// complete ("X") spans for the packet lifecycle stages.
#[test]
fn chrome_trace_json_parses_back() {
    let (_, sim) = run_traced(
        cfg(),
        RunPlan::quick(),
        TraceConfig::enabled(20_000)
            .with_sampling(8)
            .with_timeline(50_000),
    );
    let w = sim.world();
    let out = chrome_trace_json(w.tracer.events(), &w.timeline);
    let v = json::parse(&out).expect("chrome trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut spans = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some(), "ts field");
        assert!(
            ev.get("name").and_then(|n| n.as_str()).is_some(),
            "name field"
        );
        if ph == "X" {
            spans += 1;
            assert!(ev.get("dur").and_then(|d| d.as_f64()).is_some());
        }
    }
    assert!(spans > 0, "no complete spans in trace");
    // Per-packet lifecycle stages appear by their dotted names.
    for stage in [Stage::PcieTransfer, Stage::CpuProcess] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(stage.name())),
            "missing stage {:?}",
            stage
        );
    }
}

/// The metrics JSON snapshot parses back and is consistent with the
/// in-memory metrics, including the per-stage breakdown and counters.
#[test]
fn metrics_json_parses_back_and_matches() {
    let (m, sim) = run_traced(cfg(), RunPlan::quick(), TraceConfig::enabled(10_000));
    let out = metrics_json(&m, &sim.world().counters, sim.profile());
    let v = json::parse(&out).expect("metrics snapshot must be valid JSON");
    let delivered = v
        .get("delivered_packets")
        .and_then(|x| x.as_f64())
        .expect("delivered_packets");
    assert_eq!(delivered as u64, m.delivered_packets);
    let sb = v.get("stage_breakdown").expect("stage_breakdown object");
    let packets = sb.get("packets").and_then(|x| x.as_f64()).unwrap();
    assert_eq!(packets as u64, m.stage_breakdown.count());
    let counters = v.get("counters").expect("counters object");
    let nic_delivered = counters
        .get("nic.delivered_packets")
        .and_then(|x| x.as_f64())
        .expect("nic.delivered_packets counter");
    assert_eq!(nic_delivered as u64, m.delivered_packets);
}

/// Telemetry and tracing compose without perturbing each other: a traced
/// run with telemetry on produces a bit-identical sample stream and
/// episode table to an untraced telemetry run, and bit-identical metrics
/// to a plain run.
#[test]
fn telemetry_is_bit_identical_traced_and_untraced() {
    let plan = RunPlan::quick();
    let telemetry_cfg = hostcc::TelemetryConfig::enabled();
    let mut tcfg = cfg();
    tcfg.telemetry = telemetry_cfg;

    let mut plain = Simulation::new(tcfg.clone());
    let m_plain = plain
        .try_run(plan.warmup, plan.measure)
        .expect("plain telemetry run");

    let (m_traced, traced) = run_traced(
        tcfg,
        plan,
        TraceConfig::enabled(50_000)
            .with_sampling(4)
            .with_timeline(10_000),
    );
    assert!(!traced.world().tracer.is_empty());

    let s_plain: Vec<_> = plain.world().telemetry.samples().copied().collect();
    let s_traced: Vec<_> = traced.world().telemetry.samples().copied().collect();
    assert!(!s_plain.is_empty());
    assert_eq!(s_plain, s_traced, "tracing perturbed the sample stream");
    assert_eq!(m_plain.telemetry, m_traced.telemetry);
    assert_eq!(m_plain.delivered_packets, m_traced.delivered_packets);
    assert_eq!(m_plain.host_delay.sum(), m_traced.host_delay.sum());

    // And telemetry leaves the *base* metrics untouched relative to a
    // run with no observability at all.
    let base = run(cfg(), plan);
    assert_eq!(base.delivered_packets, m_plain.delivered_packets);
    assert_eq!(base.host_delay.sum(), m_plain.host_delay.sum());
    assert_eq!(base.rtt.sum(), m_plain.rtt.sum());
}

/// Telemetry-off runs carry no telemetry artifacts anywhere: no summary
/// on the metrics, no "telemetry" key in the JSON export (the golden
/// digests in goldens.rs depend on this byte-identity).
#[test]
fn zero_telemetry_runs_have_no_telemetry_artifacts() {
    let (m, sim) = run_traced(cfg(), RunPlan::quick(), TraceConfig::enabled(1_000));
    assert!(m.telemetry.is_none());
    assert_eq!(sim.world().telemetry.samples_taken(), 0);
    let out = metrics_json(&m, &sim.world().counters, sim.profile());
    assert!(
        !out.contains("\"telemetry\""),
        "telemetry-off export must not mention telemetry"
    );
}

/// `cc.mean_cwnd` on the timeline and `mean_cwnd` in the snapshot are one
/// rule — the mean over transmitting flows — so a fleet receiver slot's
/// placeholder window counts in neither.
#[test]
fn timeline_and_snapshot_mean_cwnd_skip_remote_receiver_slots() {
    use hostcc::substrate::sim::SimDuration;
    use hostcc::{CcKind, Testbed, TestbedConfig};
    let mut tb = Testbed::new(TestbedConfig {
        senders: 2,
        receiver_threads: 2,
        cc: CcKind::Fixed(8.0),
        ..TestbedConfig::default()
    });
    tb.enable_fabric(0, SimDuration::from_micros(8));
    tb.add_remote_receiver(1, 0, 0);
    tb.set_trace(TraceConfig::enabled(1024).with_timeline(100_000));
    let mut sim = Simulation::from_testbed(tb);
    let m = sim.run(SimDuration::from_millis(1), SimDuration::from_millis(1));
    let series = sim
        .world()
        .timeline
        .get("cc.mean_cwnd")
        .expect("the mem tick records cc.mean_cwnd");
    let &(_, last) = series.points.last().expect("sampled at least once");
    assert_eq!(m.mean_cwnd, 8.0);
    assert_eq!(last, m.mean_cwnd);
}

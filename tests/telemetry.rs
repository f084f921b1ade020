//! Integration tests for the telemetry subsystem: sampling is
//! observational (bit-identical metrics with telemetry on or off),
//! bit-deterministic across repeated runs, and the
//! episode detector attributes cc_blindspot's drops to a host-side cause
//! at well under full link utilization — the paper's headline claim made
//! machine-checkable.

use hostcc::substrate::sim::SimDuration;
use hostcc::{
    metrics_json, scenarios, RootCause, RunMetrics, Simulation, TelemetryConfig, TelemetrySample,
};

fn small() -> hostcc::TestbedConfig {
    let mut cfg = scenarios::fig3(8, true);
    cfg.senders = 6;
    cfg
}

const WARMUP: SimDuration = SimDuration::from_millis(2);
const MEASURE: SimDuration = SimDuration::from_millis(8);

/// Run with telemetry installed; returns the metrics plus the full
/// retained sample stream (bounded by the ring capacity).
fn run_telemetry(
    mut cfg: hostcc::TestbedConfig,
    tcfg: TelemetryConfig,
) -> (RunMetrics, Vec<TelemetrySample>) {
    cfg.telemetry = tcfg;
    let mut sim = Simulation::new(cfg);
    let m = sim.try_run(WARMUP, MEASURE).expect("test config runs");
    let samples: Vec<TelemetrySample> = sim.world().telemetry.samples().copied().collect();
    (m, samples)
}

/// Telemetry is observational only: metrics with the sampler on are
/// bit-identical to metrics with it off (modulo the summary section
/// itself), and the golden-digest fields in particular cannot move.
#[test]
fn telemetry_on_leaves_metrics_bit_identical() {
    let off = {
        let mut sim = Simulation::new(small());
        sim.try_run(WARMUP, MEASURE).expect("runs")
    };
    let (on, samples) = run_telemetry(small(), TelemetryConfig::enabled());
    assert!(!samples.is_empty());
    assert_eq!(off.delivered_packets, on.delivered_packets);
    assert_eq!(off.delivered_payload_bytes, on.delivered_payload_bytes);
    assert_eq!(off.drops_buffer_full, on.drops_buffer_full);
    assert_eq!(off.drops_no_descriptor, on.drops_no_descriptor);
    assert_eq!(off.iotlb_misses, on.iotlb_misses);
    assert_eq!(off.retransmits, on.retransmits);
    assert_eq!(off.host_delay.sum(), on.host_delay.sum());
    assert_eq!(off.rtt.sum(), on.rtt.sum());
    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());
}

/// The sample stream (and everything derived from it: episodes,
/// attributions, summary) is bit-identical across repeated same-seed
/// runs.
#[test]
fn sample_stream_is_bit_identical_across_reruns() {
    let tcfg = TelemetryConfig::enabled();
    let (m_a, s_a) = run_telemetry(small(), tcfg);
    let (m_r, s_r) = run_telemetry(small(), tcfg);
    assert!(!s_a.is_empty());
    assert_eq!(s_a, s_r, "same-seed reruns diverged");
    assert_eq!(m_a.telemetry, m_r.telemetry);
}

/// Same contract at coarse time: with the 64 ns grid and chain fusion on,
/// telemetry ticks land on quantised instants, and the sample stream (and
/// the episode/attribution summary derived from it) stays bit-identical
/// across reruns. Fused chains must not perturb sampling either —
/// `on_packet` records the same host-delay/cpu decomposition the unfused
/// path would.
#[test]
fn coarse_sample_stream_is_bit_identical_across_reruns() {
    let tcfg = TelemetryConfig::enabled();
    let cfg = scenarios::with_coarse_time(small());
    let (m_a, s_a) = run_telemetry(cfg.clone(), tcfg);
    let (m_r, s_r) = run_telemetry(cfg, tcfg);
    assert!(!s_a.is_empty());
    // Every sampling instant sits on the 64 ns grid.
    assert!(
        s_a.iter().all(|s| s.t_ns % 64 == 0),
        "coarse-time telemetry ticks must land on the quantised grid"
    );
    assert_eq!(s_a, s_r, "same-seed reruns diverged");
    assert_eq!(m_a.telemetry, m_r.telemetry);
}

/// The headline acceptance test: the paper's §2 blind spot — host drops
/// while the access link looks uncongested — must yield at least one
/// detected episode attributed to a host-side cause. The config is
/// cc_blindspot in the fleet's bursty regime (the Fig. 1 scatter:
/// line-rate bursts at ~40% average utilization, a 256 KiB NIC buffer):
/// "drops at 38% link utilization, attributed: IOTLB".
#[test]
fn blindspot_episode_attributes_to_host_side_cause_at_low_utilization() {
    let mut cfg = scenarios::cc_blindspot(14, 100);
    cfg.duty_cycle = 0.4;
    let cfg = scenarios::with_nic_buffer(cfg, 256 << 10);
    let link_bps = cfg.access_link_bps;
    let (m, _) = run_telemetry(cfg, TelemetryConfig::enabled());
    let t = m.telemetry.as_ref().expect("telemetry ran");
    assert!(t.samples > 100, "sampler ticked: {}", t.samples);
    assert!(
        !t.episodes.is_empty(),
        "blindspot run must surface at least one congestion episode"
    );
    let attributed: Vec<_> = t
        .episodes
        .iter()
        .filter(|e| matches!(e.cause, RootCause::IotlbPressure | RootCause::MemBandwidth))
        .collect();
    assert!(
        !attributed.is_empty(),
        "expected a host-side attribution (IOTLB or memory bandwidth), got {:?}",
        t.episodes
    );
    // Drops happened (that is what makes it an episode worth explaining)…
    assert!(attributed.iter().any(|e| e.drops > 0));
    assert!(m.host_drops() > 0);
    // …while the fabric-facing signal said "no congestion": the access
    // link averaged under half its capacity over the measurement window.
    let util = m.link_utilization(link_bps);
    assert!(
        util < 0.5,
        "blindspot means drops at low link utilization, got {util:.3}"
    );
}

/// The JSON export carries the telemetry section exactly when telemetry
/// ran, with parseable episode records.
#[test]
fn metrics_json_round_trips_telemetry_section() {
    use hostcc::substrate::trace::json;
    let (m, _) = run_telemetry(small(), TelemetryConfig::enabled());
    let mut sim = Simulation::new(small());
    let off = sim.try_run(WARMUP, MEASURE).expect("runs");

    let reg = hostcc::CounterRegistry::new();
    let doc_on = metrics_json(&m, &reg, None);
    let doc_off = metrics_json(&off, &reg, None);
    assert!(!doc_off.contains("\"telemetry\""));
    let v = json::parse(&doc_on).expect("valid JSON");
    let t = v.get("telemetry").expect("telemetry section");
    assert!(t.get("samples").unwrap().as_f64().unwrap() > 0.0);
    assert!(t.get("episodes").unwrap().as_arr().is_some());
}

/// The flight recorder captures bounded retroactive dumps on drop bursts,
/// and the dumps end at (or before) the trigger instant.
#[test]
fn flight_recorder_captures_drop_bursts() {
    let cfg = scenarios::cc_blindspot(14, 100);
    let mut tcfg = TelemetryConfig::enabled().with_flight_recorder();
    // Blindspot drops come in waves of a few per 5 µs window at this
    // scale; any dropping window qualifies as a burst (the inter-dump
    // cooldown still bounds capture volume).
    tcfg.drop_burst_threshold = 1;
    let mut with = cfg.clone();
    with.telemetry = tcfg;
    let mut sim = Simulation::new(with);
    let m = sim.try_run(WARMUP, MEASURE).expect("runs");
    assert!(m.host_drops() > 0, "blindspot run should drop");
    let dumps = sim.world().telemetry.flight_dumps();
    assert!(!dumps.is_empty(), "drop bursts should trigger the recorder");
    for d in dumps {
        assert!(!d.samples.is_empty());
        assert!(d.samples.len() <= tcfg.flight_dump_samples);
        assert!(d.samples.last().unwrap().t_ns <= d.t_ns);
        // Oldest-first ordering.
        for w in d.samples.windows(2) {
            assert!(w[0].t_ns < w[1].t_ns);
        }
    }
    // Dumps are capped by the preallocated slot count.
    assert!(dumps.len() <= tcfg.flight_max_dumps);
}

/// Streaming sink: every sample lands as one JSONL line, incrementally.
#[test]
fn jsonl_sink_receives_every_sample() {
    use hostcc::substrate::trace::json;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let sink = Shared(Arc::new(Mutex::new(Vec::new())));
    let mut cfg = small();
    cfg.telemetry = TelemetryConfig::enabled();
    let mut sim = Simulation::new(cfg);
    sim.world_mut().telemetry.set_sink(Box::new(sink.clone()));
    sim.try_run(WARMUP, MEASURE).expect("runs");
    let taken = sim.world().telemetry.samples_taken();
    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, taken, "one JSONL line per sample");
    let first = json::parse(lines[0]).expect("line parses");
    assert!(first.get("t_ns").is_some());
    assert!(first.get("buffer_frac").is_some());
    assert!(first.get("walks").is_some());
}

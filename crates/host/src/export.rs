//! JSON metrics export: one machine-readable snapshot per run.
//!
//! The snapshot carries the headline metrics, the latency distributions,
//! the exact per-stage host-delay breakdown, every registered counter
//! (measurement-interval deltas) and — when profiling ran — the engine's
//! events/sec dispatch statistics.

use crate::metrics::RunMetrics;
use hostcc_sim::{DispatchProfile, Histogram};
use hostcc_trace::json::JsonWriter;
use hostcc_trace::{CounterRegistry, StageClass};

fn hist_us(w: &mut JsonWriter, key: &str, h: &Histogram) {
    w.key(key).begin_obj();
    w.key("count").int(h.count());
    w.key("mean").num(h.mean() / 1000.0);
    w.key("p50").num(h.p50() as f64 / 1000.0);
    w.key("p90").num(h.p90() as f64 / 1000.0);
    w.key("p99").num(h.p99() as f64 / 1000.0);
    w.key("p999").num(h.p999() as f64 / 1000.0);
    w.key("max").num(h.max() as f64 / 1000.0);
    w.end_obj();
}

/// Render one run's metrics (plus counters and optional engine profile)
/// as a JSON object. Latencies are reported in microseconds; the stage
/// breakdown in nanoseconds (it is exact at that resolution).
pub fn metrics_json(
    m: &RunMetrics,
    counters: &CounterRegistry,
    profile: Option<DispatchProfile>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("measured_ns").int(m.measured.as_nanos());
    w.key("delivered_packets").int(m.delivered_packets);
    w.key("delivered_payload_bytes")
        .int(m.delivered_payload_bytes);
    w.key("data_packets_sent").int(m.data_packets_sent);
    w.key("app_throughput_gbps").num(m.app_throughput_gbps());
    w.key("drop_rate").num(m.drop_rate());
    w.key("drops").begin_obj();
    w.key("buffer_full").int(m.drops_buffer_full);
    w.key("no_descriptor").int(m.drops_no_descriptor);
    w.key("fabric").int(m.drops_fabric);
    w.end_obj();
    w.key("iotlb").begin_obj();
    w.key("lookups").int(m.iotlb_lookups);
    w.key("misses").int(m.iotlb_misses);
    w.key("misses_per_packet").num(m.iotlb_misses_per_packet());
    w.key("walk_memory_accesses").int(m.walk_memory_accesses);
    w.end_obj();
    w.key("memory_bandwidth_gbytes")
        .num(m.memory_bandwidth_gbytes());
    w.key("nic_memory_bandwidth_gbytes")
        .num(m.mean_nic_memory_bandwidth / 1e9);
    w.key("nic_buffer_peak_bytes").int(m.nic_buffer_peak_bytes);
    w.key("retransmits").int(m.retransmits);
    w.key("timeouts").int(m.timeouts);
    w.key("mean_cwnd").num(m.mean_cwnd);
    hist_us(&mut w, "host_delay_us", &m.host_delay);
    hist_us(&mut w, "rtt_us", &m.rtt);
    w.key("stage_breakdown").begin_obj();
    w.key("packets").int(m.stage_breakdown.count());
    w.key("total_ns")
        .num(m.stage_breakdown.total_sum_ns() as f64);
    for class in StageClass::ALL {
        w.key(class.name()).begin_obj();
        w.key("mean_ns").num(m.stage_breakdown.mean_ns(class));
        w.key("p99_ns").int(m.stage_breakdown.stage(class).p99());
        w.key("share").num(m.stage_breakdown.share(class));
        w.end_obj();
    }
    w.end_obj();
    // Fault summary only when a plan actually ran: zero-fault exports
    // must stay byte-identical to pre-fault-layer builds (golden digests).
    if let Some(f) = &m.faults {
        w.key("faults").begin_obj();
        w.key("windows_injected").int(f.windows_injected);
        w.key("link_dropped_packets").int(f.link_dropped_packets);
        w.key("deferred_refills").int(f.deferred_refills);
        w.key("iotlb_flushes").int(f.iotlb_flushes);
        w.key("preempt_ns").int(f.preempt_ns);
        w.key("goodput_before_gbps").num(f.goodput_before_bps / 1e9);
        w.key("goodput_during_gbps").num(f.goodput_during_bps / 1e9);
        w.key("goodput_after_gbps").num(f.goodput_after_bps / 1e9);
        w.key("recovery_observation_ns")
            .int(f.recovery_observation_ns);
        w.key("recovered").bool(f.recovered);
        w.end_obj();
    }
    // Telemetry time-series summary, gated exactly like `faults`:
    // telemetry-off exports stay byte-identical (golden digests).
    if let Some(t) = &m.telemetry {
        w.key("telemetry").begin_obj();
        w.key("samples").int(t.samples);
        w.key("interval_ns").int(t.interval_ns);
        w.key("flight_dumps").int(t.flight_dumps);
        w.key("dropped_episodes").int(t.dropped_episodes);
        w.key("episodes").begin_arr();
        for e in &t.episodes {
            w.begin_obj();
            w.key("onset_ns").int(e.onset_ns);
            w.key("peak_ns").int(e.peak_ns);
            w.key("clear_ns").int(e.clear_ns);
            w.key("open").bool(e.open);
            w.key("samples").int(e.samples as u64);
            w.key("drops").int(e.drops);
            w.key("peak_buffer_frac").num(e.peak_buffer_frac);
            w.key("cause").str(e.cause.name());
            w.key("z").num(e.z);
            w.key("walks_per_packet").num(e.walks_per_packet);
            w.key("mem_util").num(e.mem_util);
            w.key("mem_latency_ns").num(e.mem_latency_ns);
            w.key("credit_stalls").int(e.credit_stalls);
            w.key("cpu_ns_per_packet").num(e.cpu_ns_per_packet);
            w.end_obj();
        }
        w.end_arr();
        if let Some(s) = &t.last {
            w.key("last_sample").begin_obj();
            w.key("t_ns").int(s.t_ns);
            w.key("buffer_frac").num(s.buffer_frac);
            w.key("drops").int(s.drops);
            w.key("credit_stalls").int(s.credit_stalls);
            w.key("walks_per_packet").num(s.walks_per_packet());
            w.key("mem_util").num(s.mem_util);
            w.end_obj();
        }
        w.end_obj();
    }
    w.key("counters").begin_obj();
    for (name, value) in counters.snapshot() {
        w.key(&name).int(value);
    }
    w.end_obj();
    if let Some(p) = profile {
        w.key("engine").begin_obj();
        w.key("events").int(p.events);
        w.key("wall_nanos").int(p.wall_nanos);
        w.key("events_per_sec").num(p.events_per_sec());
        // Same-instant run statistics: `batches` counts distinct
        // dispatch instants, `max_batch` the longest run at one instant.
        w.key("batches").int(p.batches);
        w.key("mean_batch").num(p.mean_batch());
        w.key("max_batch").int(p.max_batch);
        w.end_obj();
    }
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsCollector;
    use hostcc_sim::SimTime;
    use hostcc_trace::json;

    #[test]
    fn snapshot_is_valid_json_with_breakdown_and_counters() {
        let mut c = MetricsCollector::new();
        c.arm(SimTime::ZERO);
        c.delivered_packets = 10;
        c.delivered_payload_bytes = 10_000;
        c.host_delay.record(1_500);
        c.stage_breakdown.record(100, 400, 300, 200, 500);
        let m = c.snapshot(SimTime::from_millis(1), 4096, 8.0);
        let mut reg = CounterRegistry::new();
        reg.set("nic.delivered_packets", 10);
        let doc = metrics_json(&m, &reg, None);
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("delivered_packets").unwrap().as_f64(), Some(10.0));
        let bd = v.get("stage_breakdown").unwrap();
        assert_eq!(bd.get("total_ns").unwrap().as_f64(), Some(1500.0));
        assert_eq!(
            bd.get("pcie").unwrap().get("mean_ns").unwrap().as_f64(),
            Some(400.0)
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("nic.delivered_packets")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
    }

    #[test]
    fn profile_block_present_when_given() {
        let c = MetricsCollector::new();
        let m = c.snapshot(SimTime::ZERO, 0, 0.0);
        let doc = metrics_json(
            &m,
            &CounterRegistry::new(),
            Some(DispatchProfile {
                events: 100,
                wall_nanos: 50,
                batches: 40,
                max_batch: 7,
            }),
        );
        let v = json::parse(&doc).unwrap();
        let engine = v.get("engine").unwrap();
        assert_eq!(engine.get("events").unwrap().as_f64(), Some(100.0));
        assert_eq!(engine.get("batches").unwrap().as_f64(), Some(40.0));
        assert_eq!(engine.get("mean_batch").unwrap().as_f64(), Some(2.5));
        assert_eq!(engine.get("max_batch").unwrap().as_f64(), Some(7.0));
    }
}

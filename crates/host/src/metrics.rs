//! Run metrics: everything the paper's figures plot, measured after a
//! configurable warm-up.

use hostcc_faults::FaultSummary;
use hostcc_sim::{Histogram, SimDuration, SimTime};
use hostcc_telemetry::TelemetrySummary;
use hostcc_trace::StageBreakdown;

/// Aggregated measurements from one testbed run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Measurement interval (post-warm-up).
    pub measured: SimDuration,
    /// Application payload bytes delivered in order to receiver threads.
    pub delivered_payload_bytes: u64,
    /// Data packets delivered (DMA + CPU complete).
    pub delivered_packets: u64,
    /// Wire bytes that arrived at the NIC (accepted + dropped).
    pub nic_arrival_wire_bytes: u64,
    /// Data packets transmitted by senders (including retransmissions).
    pub data_packets_sent: u64,
    /// Host drops: NIC input buffer overflow.
    pub drops_buffer_full: u64,
    /// Host drops: no Rx descriptor available.
    pub drops_no_descriptor: u64,
    /// Fabric drops at the switch egress (should stay ~0; sanity check).
    pub drops_fabric: u64,
    /// IOTLB lookups and misses over the interval.
    pub iotlb_lookups: u64,
    /// IOTLB misses over the interval.
    pub iotlb_misses: u64,
    /// Page-table walk memory accesses over the interval.
    pub walk_memory_accesses: u64,
    /// Mean total memory-bus bandwidth allocated (bytes/sec), averaged
    /// over mem ticks — the Fig. 6 top panel.
    pub mean_memory_bandwidth: f64,
    /// Mean NIC share of the memory bus (bytes/sec).
    pub mean_nic_memory_bandwidth: f64,
    /// Host delay (NIC arrival → receiver stack done) distribution, ns.
    pub host_delay: Histogram,
    /// RTT distribution observed by senders, ns.
    pub rtt: Histogram,
    /// Peak NIC input-buffer occupancy, bytes.
    pub nic_buffer_peak_bytes: u64,
    /// Retransmissions sent during the interval.
    pub retransmits: u64,
    /// Timeout events during the interval.
    pub timeouts: u64,
    /// Mean congestion window across flows at the end of the run.
    pub mean_cwnd: f64,
    /// Sampled NIC input-buffer occupancy over the measurement interval:
    /// (time since measurement start, occupied bytes). One sample per
    /// memory tick; lets harnesses plot the buffer sawtooth.
    pub occupancy_samples: Vec<(u64, u64)>,
    /// Exact per-stage decomposition of `host_delay`: each delivered
    /// packet contributes one sample per stage and the five stage sums
    /// add up to `host_delay.sum()` to the nanosecond.
    pub stage_breakdown: StageBreakdown,
    /// Fault-injection summary: `Some` only when the run's `FaultPlan`
    /// was non-empty (zero-fault runs carry no summary so their exported
    /// metrics stay byte-identical to pre-fault-layer builds).
    pub faults: Option<FaultSummary>,
    /// Telemetry summary (sample totals + detected host-congestion
    /// episodes with root-cause attribution): `Some` only when the run
    /// had telemetry enabled, for the same byte-identity reason.
    pub telemetry: Option<TelemetrySummary>,
}

impl RunMetrics {
    /// Application-level goodput in Gbps (payload bytes/sec × 8).
    pub fn app_throughput_gbps(&self) -> f64 {
        if self.measured.is_zero() {
            return 0.0;
        }
        self.delivered_payload_bytes as f64 * 8.0 / self.measured.as_secs_f64() / 1e9
    }

    /// Host access-link utilisation in `[0, 1]`: wire arrival rate over the
    /// link capacity.
    pub fn link_utilization(&self, link_bps: f64) -> f64 {
        if self.measured.is_zero() {
            return 0.0;
        }
        (self.nic_arrival_wire_bytes as f64 * 8.0 / self.measured.as_secs_f64()) / link_bps
    }

    /// Host drops (buffer + descriptor starvation).
    pub fn host_drops(&self) -> u64 {
        self.drops_buffer_full + self.drops_no_descriptor
    }

    /// Packet drop rate: host drops over data packets transmitted — the
    /// paper's drop metric.
    pub fn drop_rate(&self) -> f64 {
        if self.data_packets_sent == 0 {
            return 0.0;
        }
        self.host_drops() as f64 / self.data_packets_sent as f64
    }

    /// IOTLB misses per *delivered* packet — the Fig. 3/4/5 right panels.
    pub fn iotlb_misses_per_packet(&self) -> f64 {
        if self.delivered_packets == 0 {
            return 0.0;
        }
        self.iotlb_misses as f64 / self.delivered_packets as f64
    }

    /// Mean memory bandwidth in GB/s (decimal), Fig. 6 top panel units.
    pub fn memory_bandwidth_gbytes(&self) -> f64 {
        self.mean_memory_bandwidth / 1e9
    }

    /// p99 host delay in microseconds.
    pub fn host_delay_p99_us(&self) -> f64 {
        self.host_delay.p99() as f64 / 1000.0
    }

    /// Median host delay in microseconds.
    pub fn host_delay_p50_us(&self) -> f64 {
        self.host_delay.p50() as f64 / 1000.0
    }
}

/// Mutable accumulator the world updates; snapshot into `RunMetrics`.
#[derive(Debug)]
pub struct MetricsCollector {
    /// Measurement enabled (post-warm-up).
    pub armed: bool,
    /// When measurement began.
    pub started: SimTime,
    /// See [`RunMetrics`].
    pub delivered_payload_bytes: u64,
    /// Delivered packet count.
    pub delivered_packets: u64,
    /// Wire bytes arriving at the NIC.
    pub nic_arrival_wire_bytes: u64,
    /// Sender transmissions.
    pub data_packets_sent: u64,
    /// Buffer-full drops.
    pub drops_buffer_full: u64,
    /// Descriptor-starvation drops.
    pub drops_no_descriptor: u64,
    /// Switch drops.
    pub drops_fabric: u64,
    /// IOTLB lookups.
    pub iotlb_lookups: u64,
    /// IOTLB misses.
    pub iotlb_misses: u64,
    /// Walk accesses.
    pub walk_memory_accesses: u64,
    /// Sum of memory-bandwidth samples.
    pub mem_bw_sum: f64,
    /// Sum of NIC-share samples.
    pub nic_bw_sum: f64,
    /// Number of bandwidth samples.
    pub mem_bw_samples: u64,
    /// Host-delay histogram (ns).
    pub host_delay: Histogram,
    /// RTT histogram (ns).
    pub rtt: Histogram,
    /// Retransmissions.
    pub retransmits: u64,
    /// Timeouts.
    pub timeouts: u64,
    /// Occupancy samples (time ns since arm, bytes).
    pub occupancy_samples: Vec<(u64, u64)>,
    /// Per-stage host-delay decomposition. Recorded whenever armed —
    /// independently of any tracer — so traced and untraced runs produce
    /// bit-identical metrics.
    pub stage_breakdown: StageBreakdown,
}

hostcc_sim::snap_fields!(MetricsCollector {
    armed, started, delivered_payload_bytes, delivered_packets, nic_arrival_wire_bytes,
    data_packets_sent, drops_buffer_full, drops_no_descriptor, drops_fabric, iotlb_lookups,
    iotlb_misses, walk_memory_accesses, mem_bw_sum, nic_bw_sum, mem_bw_samples, host_delay, rtt,
    retransmits, timeouts, occupancy_samples, stage_breakdown,
} check { MetricsCollector::check_restored });

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsCollector {
    /// A disarmed collector (counts nothing until `arm`).
    pub fn new() -> Self {
        MetricsCollector {
            armed: false,
            started: SimTime::ZERO,
            delivered_payload_bytes: 0,
            delivered_packets: 0,
            nic_arrival_wire_bytes: 0,
            data_packets_sent: 0,
            drops_buffer_full: 0,
            drops_no_descriptor: 0,
            drops_fabric: 0,
            iotlb_lookups: 0,
            iotlb_misses: 0,
            walk_memory_accesses: 0,
            mem_bw_sum: 0.0,
            nic_bw_sum: 0.0,
            mem_bw_samples: 0,
            host_delay: Histogram::new(),
            rtt: Histogram::new(),
            retransmits: 0,
            timeouts: 0,
            occupancy_samples: Vec::new(),
            stage_breakdown: StageBreakdown::new(),
        }
    }

    /// Start measuring at `now` (end of warm-up).
    pub fn arm(&mut self, now: SimTime) {
        *self = MetricsCollector::new();
        self.armed = true;
        self.started = now;
    }

    /// Snapshot the interval `[started, now]` into a `RunMetrics`.
    pub fn snapshot(&self, now: SimTime, nic_buffer_peak: u64, mean_cwnd: f64) -> RunMetrics {
        let samples = self.mem_bw_samples.max(1) as f64;
        RunMetrics {
            measured: now.saturating_since(self.started),
            delivered_payload_bytes: self.delivered_payload_bytes,
            delivered_packets: self.delivered_packets,
            nic_arrival_wire_bytes: self.nic_arrival_wire_bytes,
            data_packets_sent: self.data_packets_sent,
            drops_buffer_full: self.drops_buffer_full,
            drops_no_descriptor: self.drops_no_descriptor,
            drops_fabric: self.drops_fabric,
            iotlb_lookups: self.iotlb_lookups,
            iotlb_misses: self.iotlb_misses,
            walk_memory_accesses: self.walk_memory_accesses,
            mean_memory_bandwidth: self.mem_bw_sum / samples,
            mean_nic_memory_bandwidth: self.nic_bw_sum / samples,
            host_delay: self.host_delay.clone(),
            rtt: self.rtt.clone(),
            nic_buffer_peak_bytes: nic_buffer_peak,
            retransmits: self.retransmits,
            timeouts: self.timeouts,
            mean_cwnd,
            occupancy_samples: self.occupancy_samples.clone(),
            stage_breakdown: self.stage_breakdown.clone(),
            faults: None,
            telemetry: None,
        }
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        if !self.mem_bw_sum.is_finite() || !self.nic_bw_sum.is_finite() {
            return Err(hostcc_sim::SnapError::Corrupt("non-finite bandwidth sum"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_rates() {
        let mut c = MetricsCollector::new();
        c.arm(SimTime::ZERO);
        c.delivered_payload_bytes = 1_250_000_000; // 1.25 GB in 0.1 s = 100 Gbps
        c.delivered_packets = 300_000;
        c.iotlb_misses = 600_000;
        c.data_packets_sent = 400_000;
        c.drops_buffer_full = 8_000;
        let m = c.snapshot(SimTime::from_millis(100), 0, 4.0);
        assert!((m.app_throughput_gbps() - 100.0).abs() < 0.01);
        assert!((m.iotlb_misses_per_packet() - 2.0).abs() < 1e-12);
        assert!((m.drop_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let c = MetricsCollector::new();
        let m = c.snapshot(SimTime::ZERO, 0, 0.0);
        assert_eq!(m.app_throughput_gbps(), 0.0);
        assert_eq!(m.drop_rate(), 0.0);
        assert_eq!(m.iotlb_misses_per_packet(), 0.0);
        assert_eq!(m.link_utilization(100e9), 0.0);
    }

    #[test]
    fn link_utilization_from_wire_bytes() {
        let mut c = MetricsCollector::new();
        c.arm(SimTime::ZERO);
        c.nic_arrival_wire_bytes = 625_000_000; // 0.625 GB in 0.05 s = 100 Gb/s
        let m = c.snapshot(SimTime::from_millis(50), 0, 0.0);
        assert!((m.link_utilization(100e9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn arm_resets_counters() {
        let mut c = MetricsCollector::new();
        c.delivered_packets = 99;
        c.arm(SimTime::from_millis(5));
        assert_eq!(c.delivered_packets, 0);
        assert!(c.armed);
        assert_eq!(c.started, SimTime::from_millis(5));
    }
}

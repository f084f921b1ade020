//! The compact per-interval telemetry sample and the gauge/counter
//! bundle the world hands the sampler at each tick.

/// Instantaneous gauges plus lifetime counters read from the datapath at
/// one sampling tick. The sampler differences the lifetime counters
/// against the previous tick's values, so callers pass raw totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalInputs {
    /// NIC input-buffer occupancy, bytes (gauge).
    pub buffer_occupancy_bytes: u64,
    /// NIC input-buffer capacity, bytes (constant).
    pub buffer_capacity_bytes: u64,
    /// Minimum free Rx-descriptor slots across receiver queues (gauge).
    pub min_ring_free: u32,
    /// Packets delivered, lifetime.
    pub delivered_total: u64,
    /// Host drops (buffer overflow + descriptor starvation), lifetime.
    pub drops_total: u64,
    /// PCIe posted-credit stall events, lifetime.
    pub credit_stalls_total: u64,
    /// IOTLB lookups, lifetime.
    pub iotlb_lookups_total: u64,
    /// IOTLB misses, lifetime.
    pub iotlb_misses_total: u64,
    /// Page-walk memory accesses, lifetime.
    pub walks_total: u64,
    /// Memory-controller utilization in [0, 1] (gauge).
    pub mem_util: f64,
    /// Queued-read memory latency, nanoseconds (gauge).
    pub mem_latency_ns: f64,
}

/// One telemetry sample: gauges at the tick instant plus deltas/sums over
/// the window since the previous tick. `Copy` and compact so the ring
/// and flight dumps shuttle plain words.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetrySample {
    /// Sample time, nanoseconds.
    pub t_ns: u64,
    /// NIC input-buffer occupancy, bytes.
    pub buffer_occupancy_bytes: u64,
    /// Occupancy over capacity, in [0, 1].
    pub buffer_frac: f64,
    /// Minimum free Rx-descriptor slots across receiver queues.
    pub ring_free_slots: u32,
    /// Packets delivered in the window.
    pub delivered: u64,
    /// Host drops in the window.
    pub drops: u64,
    /// PCIe posted-credit stall events in the window.
    pub credit_stalls: u64,
    /// IOTLB lookups in the window.
    pub iotlb_lookups: u64,
    /// IOTLB misses in the window.
    pub iotlb_misses: u64,
    /// Page-walk memory accesses in the window.
    pub walks: u64,
    /// Packets that completed receiver-stack processing in the window.
    pub packets: u64,
    /// Sum of host delay over those packets, ns.
    pub host_delay_ns: u64,
    /// Sum of the CPU stage (core queueing + processing) over those
    /// packets, ns — preemption inflates this.
    pub cpu_ns: u64,
    /// ACKs consumed at senders in the window.
    pub acks: u64,
    /// Sum of fabric delay (RTT minus echoed host delay) over those
    /// ACKs, ns.
    pub fabric_delay_ns: u64,
    /// Memory-controller utilization in [0, 1].
    pub mem_util: f64,
    /// Queued-read memory latency, ns.
    pub mem_latency_ns: f64,
}

hostcc_sim::snap_fields!(TelemetrySample {
    t_ns, buffer_occupancy_bytes, buffer_frac, ring_free_slots, delivered, drops, credit_stalls,
    iotlb_lookups, iotlb_misses, walks, packets, host_delay_ns, cpu_ns, acks, fabric_delay_ns,
    mem_util, mem_latency_ns,
} blank { TelemetrySample::default() });

impl TelemetrySample {
    /// Page-walk accesses per processed packet (0 when idle).
    pub fn walks_per_packet(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.walks as f64 / self.packets as f64
    }

    /// IOTLB miss rate over the window's lookups (0 when idle).
    #[cfg(test)]
    pub(crate) fn iotlb_miss_rate(&self) -> f64 {
        if self.iotlb_lookups == 0 {
            return 0.0;
        }
        self.iotlb_misses as f64 / self.iotlb_lookups as f64
    }

    /// Mean host delay over the window's packets, ns.
    #[cfg(test)]
    pub(crate) fn mean_host_delay_ns(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.host_delay_ns as f64 / self.packets as f64
    }

    /// Mean CPU-stage time per packet, ns.
    pub(crate) fn cpu_ns_per_packet(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.cpu_ns as f64 / self.packets as f64
    }

    /// Mean fabric delay over the window's ACKs, ns.
    #[cfg(test)]
    pub(crate) fn mean_fabric_delay_ns(&self) -> f64 {
        if self.acks == 0 {
            return 0.0;
        }
        self.fabric_delay_ns as f64 / self.acks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_handle_idle_windows() {
        let mut s = TelemetrySample {
            t_ns: 0,
            buffer_occupancy_bytes: 0,
            buffer_frac: 0.0,
            ring_free_slots: 0,
            delivered: 0,
            drops: 0,
            credit_stalls: 0,
            iotlb_lookups: 0,
            iotlb_misses: 0,
            walks: 0,
            packets: 0,
            host_delay_ns: 0,
            cpu_ns: 0,
            acks: 0,
            fabric_delay_ns: 0,
            mem_util: 0.0,
            mem_latency_ns: 0.0,
        };
        assert_eq!(s.walks_per_packet(), 0.0);
        assert_eq!(s.iotlb_miss_rate(), 0.0);
        assert_eq!(s.mean_fabric_delay_ns(), 0.0);
        s.packets = 4;
        s.walks = 24;
        s.cpu_ns = 8_000;
        s.host_delay_ns = 40_000;
        s.iotlb_lookups = 16;
        s.iotlb_misses = 4;
        s.acks = 2;
        s.fabric_delay_ns = 9_000;
        assert_eq!(s.walks_per_packet(), 6.0);
        assert_eq!(s.iotlb_miss_rate(), 0.25);
        assert_eq!(s.cpu_ns_per_packet(), 2_000.0);
        assert_eq!(s.mean_host_delay_ns(), 10_000.0);
        assert_eq!(s.mean_fabric_delay_ns(), 4_500.0);
    }
}

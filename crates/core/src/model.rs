//! The paper's analytical throughput model (§3.1).
//!
//! "IOTLB misses create a hard limit to the maximum achievable NIC-to-CPU
//! throughput: PCIe credits allow at most C packets in flight, each PCIe
//! write experiences a latency `T_base + M · T_miss` …; as a result, the
//! throughput is bounded by `(C · pkt_size) / (T_base + M · T_miss)`."
//!
//! The simulator implements the mechanistic pipeline; this module
//! implements the closed form, so the two can be cross-validated exactly
//! as the paper overlays its model on Figure 3 (the "Modeled App
//! Throughput" series, applicable in the credit-bottlenecked regime).

use hostcc_host::TestbedConfig;

/// Closed-form Little's-law bound on NIC-to-CPU throughput.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputModel {
    /// Maximum packets in flight allowed by PCIe posted credits (`C`).
    pub(crate) credits_packets: f64,
    /// Application payload bytes per packet.
    pub(crate) pkt_payload_bytes: f64,
    /// Per-packet latency with zero IOTLB misses, seconds (`T_base`).
    pub(crate) t_base_s: f64,
    /// Additional latency per IOTLB miss, seconds (`T_miss`).
    pub(crate) t_miss_s: f64,
    /// Ceiling independent of the credit pipeline (line rate / PCIe
    /// goodput / CPU capacity), application bits/sec.
    pub(crate) ceiling_bps: f64,
}

impl ThroughputModel {
    /// Derive model parameters from a testbed configuration.
    ///
    /// `T_base` is the fixed DMA latency plus the unloaded memory commit
    /// plus the packet's PCIe serialisation; `T_miss` is one full page
    /// walk at unloaded memory latency (the paper's "few hundreds of ns").
    pub fn from_config(cfg: &TestbedConfig) -> Self {
        let pkt = cfg.wire.mtu_payload as f64;
        let credits = cfg
            .credits
            .max_inflight_writes(cfg.wire.mtu_payload as u64, cfg.pcie.max_payload)
            as f64;
        let mem_ns = cfg.memsys.base_latency_ns;
        let ser_s = cfg.pcie.wire_bytes_for(cfg.wire.mtu_payload as u64) as f64
            / cfg.pcie.effective_goodput_bytes_per_sec();
        let t_base = cfg.dma_base_latency.as_secs_f64() + mem_ns * 1e-9 + ser_s;
        // A miss costs a full walk: one dependent memory access per level.
        let walk_levels = cfg.data_page.walk_levels() as f64;
        let t_miss = walk_levels * mem_ns * 1e-9 * cfg.walk_access_penalty;
        let ceiling = cfg
            .max_app_goodput_bps()
            .min(cfg.pcie.effective_goodput_bytes_per_sec() * 8.0 * cfg.wire.goodput_efficiency());
        ThroughputModel {
            credits_packets: credits,
            pkt_payload_bytes: pkt,
            t_base_s: t_base,
            t_miss_s: t_miss,
            ceiling_bps: ceiling,
        }
    }

    /// Credit-pipeline bound at `misses_per_packet`, application bits/sec
    /// (no ceiling applied).
    pub(crate) fn pipeline_bound_bps(&self, misses_per_packet: f64) -> f64 {
        let t = self.t_base_s + misses_per_packet * self.t_miss_s;
        self.credits_packets * self.pkt_payload_bytes * 8.0 / t
    }

    /// Modeled application throughput at `misses_per_packet`: the credit
    /// bound clipped by the line-rate/PCIe/CPU ceiling.
    pub(crate) fn app_throughput_bps(&self, misses_per_packet: f64) -> f64 {
        self.pipeline_bound_bps(misses_per_packet)
            .min(self.ceiling_bps)
    }

    /// Convenience: modeled throughput in Gbps.
    pub fn app_throughput_gbps(&self, misses_per_packet: f64) -> f64 {
        self.app_throughput_bps(misses_per_packet) / 1e9
    }

    /// Miss rate above which the credit pipeline (not the line rate)
    /// becomes the binding constraint — where the paper's model "applies".
    #[cfg(test)]
    pub(crate) fn binding_miss_rate(&self) -> f64 {
        // C·pkt·8 / (t_base + M·t_miss) = ceiling  =>  solve for M.
        let t_at_ceiling = self.credits_packets * self.pkt_payload_bytes * 8.0 / self.ceiling_bps;
        ((t_at_ceiling - self.t_base_s) / self.t_miss_s).max(0.0)
    }
}

/// CPU-bound throughput for the linear ramp regime of Fig. 3 (fewer than
/// ~8 cores): each receiver core processes packets at a fixed cost.
pub fn cpu_bound_gbps(cfg: &TestbedConfig, cores: u32) -> f64 {
    let pkts_per_sec = cores as f64 / cfg.core_pkt_cost.as_secs_f64();
    let bps = pkts_per_sec * cfg.wire.mtu_payload as f64 * 8.0;
    (bps / 1e9).min(cfg.max_app_goodput_bps() / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_misses_hits_the_ceiling() {
        let cfg = TestbedConfig::default();
        let m = ThroughputModel::from_config(&cfg);
        let tp = m.app_throughput_gbps(0.0);
        assert!(
            (tp - cfg.max_app_goodput_bps() / 1e9).abs() < 0.5,
            "no-miss model {tp} should sit at the ~92 Gbps ceiling"
        );
    }

    #[test]
    fn throughput_decreases_with_misses() {
        let cfg = TestbedConfig::default();
        let m = ThroughputModel::from_config(&cfg);
        let mut last = f64::INFINITY;
        for i in 0..20 {
            let tp = m.app_throughput_gbps(i as f64 * 0.5);
            assert!(tp <= last + 1e-9);
            last = tp;
        }
        // At ~2.5 misses/packet the bound should be visibly below line
        // rate (the Fig. 3 regime).
        assert!(m.app_throughput_gbps(2.5) < 85.0);
        assert!(m.app_throughput_gbps(2.5) > 55.0);
    }

    #[test]
    fn binding_miss_rate_is_where_model_applies() {
        let cfg = TestbedConfig::default();
        let m = ThroughputModel::from_config(&cfg);
        let m_star = m.binding_miss_rate();
        assert!(m_star > 0.0);
        // Just below: ceiling-limited. Just above: pipeline-limited.
        let below = m.app_throughput_bps(m_star * 0.9);
        let above = m.app_throughput_bps(m_star * 1.1);
        assert!((below - m.ceiling_bps).abs() < 1e-6 * m.ceiling_bps);
        assert!(above < m.ceiling_bps);
    }

    #[test]
    fn cpu_ramp_is_linear_until_the_ceiling() {
        let cfg = TestbedConfig::default();
        let two = cpu_bound_gbps(&cfg, 2);
        let four = cpu_bound_gbps(&cfg, 4);
        assert!((four / two - 2.0).abs() < 1e-9, "linear in cores");
        // Eight cores reach (and clip at) the 92 Gbps ceiling.
        let eight = cpu_bound_gbps(&cfg, 8);
        assert!((eight - cfg.max_app_goodput_bps() / 1e9).abs() < 1.5);
        let sixteen = cpu_bound_gbps(&cfg, 16);
        assert!(sixteen <= cfg.max_app_goodput_bps() / 1e9 + 1e-9);
    }

    #[test]
    fn four_kib_pages_have_costlier_misses() {
        let cfg2m = TestbedConfig::default();
        let cfg4k = TestbedConfig {
            data_page: hostcc_host::mem::PageSize::Size4K,
            ..TestbedConfig::default()
        };
        let m2 = ThroughputModel::from_config(&cfg2m);
        let m4 = ThroughputModel::from_config(&cfg4k);
        assert!(m4.t_miss_s > m2.t_miss_s, "deeper walk per miss");
    }
}

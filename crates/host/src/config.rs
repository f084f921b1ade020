//! Full testbed configuration: every knob of the simulated cluster in one
//! place, with defaults reproducing the paper's testbed (§3).

use crate::addr::PageSize;
use crate::antagonist::StreamConfig;
use crate::credits::CreditConfig;
use crate::dctcp::DctcpConfig;
use crate::ddio::DdioConfig;
use crate::device::IommuConfig;
use crate::faults::FaultPlan;
use crate::flow::FlowConfig;
use crate::host_aware::HostAwareConfig;
use crate::memsys_config::MemSysConfig;
use crate::nic::NicConfig;
use crate::packet::WireFormat;
use crate::pcie_link::PcieLinkConfig;
use crate::reads::ReadChannelConfig;
use crate::rpc::RpcConfig;
use crate::swift::SwiftConfig;
use hostcc_sim::{Resolution, SimDuration};
use hostcc_telemetry::TelemetryConfig;

/// How the receiver stack recycles Rx buffers — the policy that shapes
/// DMA address locality (IOTLB working set) and cache residency (DDIO
/// working set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRecycling {
    /// Out-of-order recycling of a long-running SNAP-style stack:
    /// scattered addresses, whole region hot (the paper's testbed).
    Scattered,
    /// Sequential ring order (fresh driver): whole region hot but
    /// prefetch-friendly page order.
    Sequential,
    /// Aggressive immediate reuse (on-NIC-memory-style small pool): tiny
    /// hot set — relieves both IOTLB and DDIO pressure.
    Hot,
}

/// Which congestion controller every flow runs.
#[derive(Debug, Clone)]
pub enum CcKind {
    /// Swift (the paper's protocol).
    Swift(SwiftConfig),
    /// Swift extended with the §4 host-aware sub-RTT occupancy response.
    HostAware(HostAwareConfig),
    /// DCTCP-style ECN baseline.
    Dctcp(DctcpConfig),
    /// Fixed window of the given size (no control).
    Fixed(f64),
}

/// Complete simulation configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Number of sender machines (paper: 40).
    pub senders: u32,
    /// Receiver threads, each pinned to a dedicated core (x-axis of
    /// Figs. 3/4).
    pub receiver_threads: u32,
    /// Congestion controller.
    pub cc: CcKind,
    /// Per-flow reliability parameters.
    pub flow: FlowConfig,
    /// Closed-loop RPC read workload (16 KB reads).
    pub rpc: RpcConfig,
    /// Optional mix of read sizes: `(read_bytes, weight)` pairs sampled
    /// per connection. Empty = every connection uses `rpc.read_bytes`
    /// (the paper's uniform 16 KB workload). A mixed fleet of small and
    /// bulk readers changes burst structure without changing the
    /// aggregate mechanisms.
    pub read_size_mix: Vec<(u32, f64)>,
    /// Wire/header overhead model (92 Gbps app ceiling at 4 KiB MTU).
    pub wire: WireFormat,
    /// Sender access link rate, bits/sec.
    pub sender_link_bps: f64,
    /// Receiver access link rate, bits/sec (paper: 100 Gbps).
    pub access_link_bps: f64,
    /// One-way propagation per fabric hop (sender→switch and
    /// switch→receiver each).
    pub hop_propagation: SimDuration,
    /// Per-sender propagation spread: sender i's hop propagation is drawn
    /// uniformly from `hop_propagation × [1-spread, 1+spread]`. Real racks
    /// have unequal cable/switch paths; without this heterogeneity the
    /// receiver cores' serialised ACK streams phase-lock all 40 senders of
    /// a thread into lockstep bursts, which no production fabric exhibits.
    pub propagation_spread: f64,
    /// Uniform jitter added to each ACK's return path (engine scheduling
    /// noise, ACK coalescing variance).
    pub ack_jitter: SimDuration,
    /// Sender duty cycle in (0, 1]: the fraction of each `duty_period`
    /// during which the workload generates traffic. 1.0 = continuously
    /// backlogged (the §3 testbed). Values below 1 model bursty
    /// production traffic: a host can average low link utilisation while
    /// still receiving line-rate bursts that overflow the NIC buffer when
    /// the interconnect drain is degraded — the Fig. 1 "drops at low
    /// utilisation" population.
    pub duty_cycle: f64,
    /// Period of the on/off traffic pattern.
    pub duty_period: SimDuration,
    /// Per-flow dispersion of the Swift fabric base target: flow targets
    /// are scaled uniformly in `[1-d, 1+d]`. Production Swift derives
    /// per-flow targets from topology (hop counts differ per path), which
    /// desynchronises decreases; identical targets make all flows cut in
    /// lockstep and the shared queue oscillate.
    pub target_dispersion: f64,
    /// Switch egress buffer, bytes.
    pub switch_buffer_bytes: u64,
    /// ECN marking threshold at the switch egress, bytes (0 = no marking).
    pub ecn_threshold_bytes: u64,
    /// NIC hardware (1 MiB input SRAM by default).
    pub nic: NicConfig,
    /// PCIe link (Gen3 x16, 256 B MPS by default → ~110 Gbps goodput).
    pub pcie: PcieLinkConfig,
    /// Posted credits advertised by the root complex. The default window
    /// is four 4 KiB writes — the `C` of the paper's throughput bound.
    pub credits: CreditConfig,
    /// Non-posted (DMA read) channel limits: descriptor fetches and ACK
    /// payload reads.
    pub read_channel: ReadChannelConfig,
    /// Whether to charge explicit PCIe read round-trips for descriptor
    /// fetches and ACK reads in the DMA pipeline. Off by default: the
    /// descriptor prefetch of a streaming NIC hides these latencies, and
    /// the calibrated `dma_base_latency` subsumes their steady-state
    /// contribution. Turning it on models a NIC without prefetch.
    pub model_dma_read_latency: bool,
    /// IOMMU (128-entry IOTLB). `iommu.enabled=false` is the paper's
    /// "IOMMU OFF" baseline.
    pub iommu: IommuConfig,
    /// Memory subsystem (6×DDR4-2400 per NUMA node).
    pub memsys: MemSysConfig,
    /// STREAM antagonist shape.
    pub stream: StreamConfig,
    /// Antagonist cores running (x-axis of Fig. 6).
    pub antagonist_cores: u32,
    /// Page size for data-buffer regions: `Size2M` = hugepages enabled
    /// (Fig. 3 default), `Size4K` = hugepages disabled (Fig. 4).
    pub data_page: PageSize,
    /// Registered Rx region per receiver thread, bytes (Fig. 5 x-axis;
    /// paper baseline 12 MiB).
    pub rx_region_bytes: u64,
    /// Rx buffer slot size, bytes. Slightly larger than the MTU payload
    /// (metadata headroom), so with 4 KiB pages most payloads straddle two
    /// pages — the paper's footnote-3 effect.
    pub buffer_slot_bytes: u64,
    /// 4 KiB pages in each thread's TX/ACK buffer pool. Outbound ACKs are
    /// DMA-read from a pool that cycles through these pages (SNAP-style TX
    /// packet buffers), so each page contributes an IOTLB entry — part of
    /// the per-thread control-structure footprint that pushes the working
    /// set past 128 entries beyond ~8 threads (Fig. 3 right).
    pub ack_pool_pages: u32,
    /// Hot 4 KiB pages in each thread's Rx descriptor ring that per-packet
    /// descriptor fetches cycle through (descriptor prefetch batches keep
    /// a window of the ring live, not one sequential page).
    pub ring_hot_pages: u32,
    /// Hot 4 KiB pages in each thread's completion queue that per-packet
    /// CQE writes cycle through (out-of-order completion retirement).
    ///
    /// Together with `ring_hot_pages`, `ack_pool_pages` and the data
    /// region's pages these set the per-thread IOMMU footprint (~14
    /// entries at the defaults), which crosses the 128-entry IOTLB just
    /// beyond 8 threads — the Fig. 3 knee. The different cycle lengths
    /// give each structure a different LRU reuse distance, so misses turn
    /// on structure by structure as threads increase, reproducing the
    /// graduated rise of misses-per-packet rather than a single cliff.
    pub cq_hot_pages: u32,
    /// Buffer recycling behaviour of the receiver stack.
    pub recycling: BufferRecycling,
    /// Direct cache access (DDIO): DMA writes land in an LLC slice and
    /// only reach DRAM when the buffer working set exceeds it ("leaky
    /// DMA"). With the paper's cycling 12 MiB-per-thread buffers the slice
    /// leaks ~everything, so enabling it matches the measured write
    /// bandwidth; a hot buffer pool makes it absorb the stream.
    pub ddio: DdioConfig,
    /// Per-packet receiver CPU cost (protocol processing + app hand-off).
    /// 2.85 µs/packet makes 8 cores exactly sufficient for 92 Gbps of
    /// 4 KiB packets — the CPU-bottleneck ramp of Fig. 3.
    pub core_pkt_cost: SimDuration,
    /// Fraction of delivered payload the receiver threads re-read from
    /// memory when handing data to the application (paper measures
    /// ~3.3 GB/s of reads against 11.5 GB/s of payload ≈ 0.29).
    pub app_copy_read_fraction: f64,
    /// Fixed NIC→root-complex DMA latency (PCIe propagation + RC
    /// processing), excluding translation and memory time.
    pub dma_base_latency: SimDuration,
    /// LLC hit latency, nanoseconds: what a DDIO-absorbed DMA commit costs
    /// instead of the (possibly contended) DRAM round-trip.
    pub llc_latency_ns: f64,
    /// Strict IOMMU mode: unmap + IOTLB invalidation when each buffer is
    /// consumed (Linux strict/dynamic mapping). The paper's stack uses
    /// loose mode precisely because dynamic modes "are known to cause even
    /// worse IOTLB misses"; this knob lets the claim be measured.
    pub strict_iommu: bool,
    /// CPU cost of the unmap + invalidation command per buffer in strict
    /// mode (queued invalidation descriptors, waits).
    pub invalidation_cost: SimDuration,
    /// IOMMU-side stall per packet in strict mode: invalidation commands
    /// serialise with translations in the walker, so a stream of
    /// per-buffer invalidations steals translation throughput.
    pub invalidation_dma_stall: SimDuration,
    /// Cap on the load-latency inflation factor applied to page-table walk
    /// accesses. Page-table lines are small, hot and cache/buffer-friendly,
    /// so the walker feels far less of the bus contention than full
    /// cache-line DMA commits do.
    pub walk_latency_cap_factor: f64,
    /// Multiplier on the memory latency for each page-walk access: the
    /// IOMMU's walker issues strictly dependent accesses through the
    /// root complex, which costs more than a CPU-side DRAM reference
    /// (measured IOTLB-miss penalties run hundreds of ns to ~1 µs).
    pub walk_access_penalty: f64,
    /// Memory-demand refresh period.
    pub mem_tick: SimDuration,
    /// Period of the per-flow retransmission-timer sweep.
    pub rto_sweep: SimDuration,
    /// Deterministic fault-injection schedule. Empty by default: a run
    /// with an empty plan is bit-identical to one without the fault layer.
    pub faults: FaultPlan,
    /// Continuous host-congestion telemetry (sampler, episode detector,
    /// flight recorder). Disabled by default: a telemetry-off run
    /// schedules no sampling events and is bit-identical to a build
    /// without the telemetry layer.
    pub telemetry: TelemetryConfig,
    /// Simulation time grid. The default exact (1 ns) resolution
    /// reproduces historical runs bit for bit. A coarse power-of-two grid
    /// (e.g. 64 ns) rounds the latency terms that are already
    /// approximations — serialisation boundaries, pacer grants, memory
    /// tick latencies — *up* to the grid so nearby events share timing
    /// wheel slots. An explicit opt-in: coarse runs have their own pinned
    /// goldens.
    pub resolution: Resolution,
    /// Fuse the uncontended DmaComplete→CpuDone chain into one macro
    /// event when the receiving core is known to be free at DMA-complete
    /// time. Off by default (bit-identical to historical runs); enabled
    /// by the coarse-time profile alongside `resolution`. Disabled
    /// automatically when a fault plan is present (core preemption
    /// invalidates the reservation this optimisation relies on).
    pub fuse_chains: bool,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 1,
            senders: 40,
            receiver_threads: 12,
            cc: CcKind::Swift(SwiftConfig {
                // Per-ACK additive increase scaled for a 480-flow incast:
                // aggregate AI per RTT is what overshoot (and therefore
                // steady drop rate) scales with when the controller is
                // blind to host congestion.
                ai: 0.25,
                ..SwiftConfig::default()
            }),
            flow: FlowConfig::default(),
            rpc: RpcConfig::default(),
            read_size_mix: Vec::new(),
            wire: WireFormat::default(),
            sender_link_bps: 100e9,
            access_link_bps: 100e9,
            hop_propagation: SimDuration::from_micros(2),
            propagation_spread: 0.5,
            ack_jitter: SimDuration::from_micros(4),
            target_dispersion: 0.3,
            duty_cycle: 1.0,
            duty_period: SimDuration::from_millis(2),
            switch_buffer_bytes: 4 << 20,
            ecn_threshold_bytes: 0,
            nic: NicConfig::default(),
            pcie: PcieLinkConfig::default(),
            credits: CreditConfig {
                posted_header: 64,
                posted_data: 1024,
            },
            read_channel: ReadChannelConfig::default(),
            model_dma_read_latency: false,
            iommu: IommuConfig {
                // Page-walk caching disabled by default: measured IOTLB
                // miss costs in the paper (hundreds of ns) correspond to
                // full walks; the PWC remains available as an ablation.
                pwc_entries: 0,
                // Fully-associative 128-entry IOTLB with LRU: keeps the
                // below-capacity regime miss-free so the Fig. 3 knee is
                // driven by capacity, as the paper's entry-count argument
                // assumes.
                iotlb_ways: 128,
                ..IommuConfig::default()
            },
            memsys: MemSysConfig::default(),
            stream: StreamConfig::default(),
            antagonist_cores: 0,
            data_page: PageSize::Size2M,
            rx_region_bytes: 12 << 20,
            buffer_slot_bytes: 4352,
            ack_pool_pages: 4,
            ring_hot_pages: 2,
            cq_hot_pages: 4,
            recycling: BufferRecycling::Scattered,
            ddio: DdioConfig::default(),
            core_pkt_cost: SimDuration::from_nanos(2850),
            app_copy_read_fraction: 0.29,
            dma_base_latency: SimDuration::from_nanos(500),
            llc_latency_ns: 20.0,
            strict_iommu: false,
            invalidation_cost: SimDuration::from_nanos(400),
            invalidation_dma_stall: SimDuration::from_nanos(300),
            walk_latency_cap_factor: 1.1,
            walk_access_penalty: 1.0,
            mem_tick: SimDuration::from_micros(10),
            rto_sweep: SimDuration::from_micros(250),
            faults: FaultPlan::new(),
            telemetry: TelemetryConfig::disabled(),
            resolution: Resolution::EXACT,
            fuse_chains: false,
        }
    }
}

/// A configuration the testbed cannot simulate, with enough context to
/// tell the user which knob is wrong. Produced by
/// [`TestbedConfig::validate`]; the library surfaces it as
/// `RunError::InvalidConfig` instead of panicking (or worse, silently
/// dividing by zero into an all-NaN report).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `senders == 0`: there is no workload to simulate.
    ZeroSenders,
    /// `receiver_threads == 0`: nothing drains the NIC; every run stalls.
    ZeroReceiverThreads,
    /// A link rate that is zero, negative, or not finite.
    NonPositiveLinkRate {
        /// Which knob: `"sender_link_bps"` or `"access_link_bps"`.
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `duty_cycle` outside (0, 1].
    DutyCycleOutOfRange(f64),
    /// A `read_size_mix` entry with a non-positive weight (the sampler
    /// normalises by the weight sum, so these poison every draw).
    NonPositiveReadMixWeight {
        /// The entry's read size, bytes.
        bytes: u32,
        /// The offending weight.
        weight: f64,
    },
    /// A periodic timer with a zero period. It would reschedule itself at
    /// the same instant forever, so every run would end stalled at t = 0.
    ZeroPeriod {
        /// Which knob: `"mem_tick"`, `"rto_sweep"` or
        /// `"telemetry.interval_ns"`.
        which: &'static str,
    },
    /// A fleet-level knob the multi-host builder cannot work with
    /// (zero hosts, zero inter-host latency, fan-in without peers).
    InvalidFleet {
        /// Which constraint was violated.
        reason: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroSenders => write!(f, "senders must be at least 1"),
            ConfigError::ZeroReceiverThreads => write!(f, "receiver_threads must be at least 1"),
            ConfigError::NonPositiveLinkRate { which, value } => {
                write!(f, "{which} must be a positive rate, got {value}")
            }
            ConfigError::DutyCycleOutOfRange(v) => {
                write!(f, "duty_cycle must be in (0, 1], got {v}")
            }
            ConfigError::NonPositiveReadMixWeight { bytes, weight } => {
                write!(
                    f,
                    "read_size_mix weight for {bytes}-byte reads must be positive, got {weight}"
                )
            }
            ConfigError::ZeroPeriod { which } => {
                write!(f, "{which} must be a positive period, got 0")
            }
            ConfigError::InvalidFleet { reason } => {
                write!(f, "invalid fleet configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl TestbedConfig {
    /// Total flows: one per (sender, receiver thread) pair.
    pub fn flow_count(&self) -> u32 {
        self.senders * self.receiver_threads
    }

    /// Maximum achievable application goodput in bits/sec (the paper's
    /// 92 Gbps green line).
    pub fn max_app_goodput_bps(&self) -> f64 {
        self.access_link_bps * self.wire.goodput_efficiency()
    }

    /// A light-weight host profile for 10k–100k-member fleets: the same
    /// datapath (NIC → PCIe → IOMMU → memory) but the smallest
    /// population that still exercises it — 2 senders on 1 receiver
    /// thread, no antagonists, a 1 MiB Rx region with a 256-entry ring,
    /// and telemetry off. A light host carries ~1/200th of the default
    /// incast's flow count, which is what makes five-digit fleets fit in
    /// CI memory; it is a *different simulation* (different digests),
    /// not an approximation of the default host.
    pub fn light(seed: u64) -> Self {
        TestbedConfig {
            seed,
            senders: 2,
            receiver_threads: 1,
            antagonist_cores: 0,
            rx_region_bytes: 1 << 20,
            ack_pool_pages: 2,
            ring_hot_pages: 1,
            cq_hot_pages: 1,
            nic: NicConfig {
                ring_entries: 256,
                ..NicConfig::default()
            },
            telemetry: TelemetryConfig::disabled(),
            ..TestbedConfig::default()
        }
    }

    /// Check the knobs a caller most plausibly gets wrong (zero
    /// populations, non-positive rates, zero timer periods, out-of-range
    /// fractions) before building a testbed from them. Returns the first
    /// violation found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.senders == 0 {
            return Err(ConfigError::ZeroSenders);
        }
        if self.receiver_threads == 0 {
            return Err(ConfigError::ZeroReceiverThreads);
        }
        for (which, value) in [
            ("sender_link_bps", self.sender_link_bps),
            ("access_link_bps", self.access_link_bps),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(ConfigError::NonPositiveLinkRate { which, value });
            }
        }
        for (which, zero) in [
            ("mem_tick", self.mem_tick == SimDuration::ZERO),
            ("rto_sweep", self.rto_sweep == SimDuration::ZERO),
            (
                "telemetry.interval_ns",
                self.telemetry.enabled && self.telemetry.interval_ns == 0,
            ),
        ] {
            if zero {
                return Err(ConfigError::ZeroPeriod { which });
            }
        }
        if !self.duty_cycle.is_finite() || self.duty_cycle <= 0.0 || self.duty_cycle > 1.0 {
            return Err(ConfigError::DutyCycleOutOfRange(self.duty_cycle));
        }
        for &(bytes, weight) in &self.read_size_mix {
            if !weight.is_finite() || weight <= 0.0 {
                return Err(ConfigError::NonPositiveReadMixWeight { bytes, weight });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_testbed() {
        let c = TestbedConfig::default();
        assert_eq!(c.senders, 40);
        assert_eq!(c.flow_count(), 480);
        let ceiling = c.max_app_goodput_bps() / 1e9;
        assert!(
            (91.0..93.0).contains(&ceiling),
            "app ceiling {ceiling} should be ~92 Gbps"
        );
        assert_eq!(c.credits.max_inflight_writes(4096, 256), 4);
        assert_eq!(c.iommu.iotlb_entries, 128);
    }

    fn base() -> TestbedConfig {
        TestbedConfig::default()
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_knobs() {
        assert_eq!(base().validate(), Ok(()));

        let mut c = base();
        c.senders = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroSenders));

        let mut c = base();
        c.receiver_threads = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroReceiverThreads));

        let mut c = base();
        c.access_link_bps = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositiveLinkRate {
                which: "access_link_bps",
                value: 0.0
            })
        );
        c.access_link_bps = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveLinkRate { .. })
        ));

        let mut c = base();
        c.sender_link_bps = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveLinkRate {
                which: "sender_link_bps",
                ..
            })
        ));

        let mut c = base();
        c.duty_cycle = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::DutyCycleOutOfRange(0.0)));
        c.duty_cycle = 1.5;
        assert_eq!(c.validate(), Err(ConfigError::DutyCycleOutOfRange(1.5)));
        c.duty_cycle = 1.0;
        assert_eq!(c.validate(), Ok(()));

        let mut c = base();
        c.read_size_mix = vec![(4096, 1.0), (65536, 0.0)];
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositiveReadMixWeight {
                bytes: 65536,
                weight: 0.0
            })
        );
    }

    #[test]
    fn validate_rejects_zero_mem_tick() {
        let mut c = base();
        c.mem_tick = SimDuration::ZERO;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroPeriod { which: "mem_tick" })
        );
    }

    #[test]
    fn validate_rejects_zero_rto_sweep() {
        let mut c = base();
        c.rto_sweep = SimDuration::ZERO;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroPeriod { which: "rto_sweep" })
        );
    }

    #[test]
    fn validate_rejects_zero_telemetry_interval_only_when_enabled() {
        // The public field bypasses `with_interval_ns`'s clamp.
        let mut c = base();
        c.telemetry = TelemetryConfig::enabled();
        c.telemetry.interval_ns = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroPeriod {
                which: "telemetry.interval_ns"
            })
        );
        // A disabled sampler schedules no ticks, so its period is unused.
        c.telemetry.enabled = false;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn config_errors_render_for_cli() {
        let msg = ConfigError::ZeroPeriod { which: "rto_sweep" }.to_string();
        assert_eq!(msg, "rto_sweep must be a positive period, got 0");
        let msg = ConfigError::DutyCycleOutOfRange(2.0).to_string();
        assert!(msg.contains("duty_cycle"), "{msg}");
        let msg = ConfigError::NonPositiveLinkRate {
            which: "access_link_bps",
            value: -5.0,
        }
        .to_string();
        assert!(
            msg.contains("access_link_bps") && msg.contains("-5"),
            "{msg}"
        );
    }

    #[test]
    fn core_cost_makes_eight_cores_sufficient() {
        let c = TestbedConfig::default();
        // packets/sec one core can process
        let per_core = 1e9 / c.core_pkt_cost.as_nanos() as f64;
        let needed = c.max_app_goodput_bps() / 8.0 / c.wire.mtu_payload as f64;
        let cores = needed / per_core;
        assert!(
            (7.0..9.0).contains(&cores),
            "ramp should saturate near 8 cores, got {cores}"
        );
    }
}

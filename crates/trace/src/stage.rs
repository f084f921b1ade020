//! The datapath stage taxonomy and the per-stage host-delay breakdown.

use hostcc_sim::Histogram;

/// Every instrumented point of the receiver-host datapath, in the order a
/// packet visits them (Fig. 2 of the paper). Instant stages mark events;
/// span stages carry durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A packet arrived at the NIC input buffer.
    NicArrival,
    /// A packet was dropped: NIC input buffer full.
    NicDropBufferFull,
    /// A packet was dropped: no Rx descriptor available.
    NicDropNoDescriptor,
    /// An Rx descriptor was fetched from the ring.
    RingDescriptorFetch,
    /// DMA admission stalled for want of PCIe posted credits.
    PcieCreditStall,
    /// Time a packet waited in the NIC input buffer before DMA admission.
    BufferWait,
    /// PCIe TLP serialisation + fixed DMA latency for one packet.
    PcieTransfer,
    /// IOTLB lookup served from the cache.
    IotlbHit,
    /// IOTLB lookup that required a page walk.
    IotlbMiss,
    /// IOMMU translation time (lookups, page walks, invalidation stalls).
    IommuTranslate,
    /// Memory-controller grant: bus serialisation + commit latency.
    MemoryGrant,
    /// A receiver core dequeued a completed packet.
    CpuDequeue,
    /// Receiver-core wait + protocol processing for one packet.
    CpuProcess,
    /// A congestion-control window update (value = new cwnd).
    CwndUpdate,
    /// A fault-injection window opened (value = fault spec index).
    FaultStart,
    /// A fault-injection window closed (value = fault spec index).
    FaultEnd,
}

impl Stage {
    /// Stable display name (used in trace exports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::NicArrival => "nic.arrival",
            Stage::NicDropBufferFull => "nic.drop.buffer_full",
            Stage::NicDropNoDescriptor => "nic.drop.no_descriptor",
            Stage::RingDescriptorFetch => "ring.descriptor_fetch",
            Stage::PcieCreditStall => "pcie.credit_stall",
            Stage::BufferWait => "stage.buffer_wait",
            Stage::PcieTransfer => "stage.pcie",
            Stage::IotlbHit => "iotlb.hit",
            Stage::IotlbMiss => "iotlb.miss",
            Stage::IommuTranslate => "stage.iommu",
            Stage::MemoryGrant => "stage.memory",
            Stage::CpuDequeue => "cpu.dequeue",
            Stage::CpuProcess => "stage.cpu",
            Stage::CwndUpdate => "cc.cwnd",
            Stage::FaultStart => "fault.start",
            Stage::FaultEnd => "fault.end",
        }
    }
}

/// The five aggregate stages the paper's host-delay story decomposes
/// into: where does time go between NIC arrival and CPU completion?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageClass {
    /// Waiting in the NIC input buffer for DMA admission.
    Buffer,
    /// PCIe serialisation + fixed DMA path latency.
    Pcie,
    /// IOMMU translation: IOTLB lookups, page walks, invalidation stalls.
    Iommu,
    /// Memory-bus serialisation + commit latency.
    Memory,
    /// Receiver-core queueing + protocol processing.
    Cpu,
}

impl StageClass {
    /// All classes in datapath order.
    pub const ALL: [StageClass; 5] = [
        StageClass::Buffer,
        StageClass::Pcie,
        StageClass::Iommu,
        StageClass::Memory,
        StageClass::Cpu,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            StageClass::Buffer => "buffer",
            StageClass::Pcie => "pcie",
            StageClass::Iommu => "iommu",
            StageClass::Memory => "memory",
            StageClass::Cpu => "cpu",
        }
    }
}

/// Per-stage host-delay histograms: one packet contributes one sample to
/// each stage, and the five samples sum exactly to that packet's host
/// delay — so the breakdown is an exact decomposition of the `host_delay`
/// histogram, not an independent estimate.
#[derive(Debug, Clone, Default)]
pub struct StageBreakdown {
    /// NIC input-buffer wait (ns).
    pub(crate) buffer: Histogram,
    /// PCIe serialisation + fixed DMA latency (ns).
    pub(crate) pcie: Histogram,
    /// IOMMU translation (ns).
    pub(crate) iommu: Histogram,
    /// Memory-bus serialisation + commit (ns).
    pub(crate) memory: Histogram,
    /// Receiver-core wait + processing (ns).
    pub(crate) cpu: Histogram,
}

hostcc_sim::snap_fields!(StageBreakdown { buffer, pcie, iommu, memory, cpu } blank { StageBreakdown::default() });

impl StageBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one packet's stage durations (all in nanoseconds).
    pub fn record(&mut self, buffer: u64, pcie: u64, iommu: u64, memory: u64, cpu: u64) {
        self.buffer.record(buffer);
        self.pcie.record(pcie);
        self.iommu.record(iommu);
        self.memory.record(memory);
        self.cpu.record(cpu);
    }

    /// The histogram for one stage class.
    pub fn stage(&self, class: StageClass) -> &Histogram {
        match class {
            StageClass::Buffer => &self.buffer,
            StageClass::Pcie => &self.pcie,
            StageClass::Iommu => &self.iommu,
            StageClass::Memory => &self.memory,
            StageClass::Cpu => &self.cpu,
        }
    }

    /// Packets recorded (identical for every stage).
    pub fn count(&self) -> u64 {
        self.buffer.count()
    }

    /// Sum of all stage samples in nanoseconds. Equals the sum of the
    /// corresponding `host_delay` histogram when the decomposition is
    /// exact (the invariant the observability tests assert).
    pub fn total_sum_ns(&self) -> u128 {
        StageClass::ALL.iter().map(|&c| self.stage(c).sum()).sum()
    }

    /// Mean time per packet spent in `class`, nanoseconds.
    pub fn mean_ns(&self, class: StageClass) -> f64 {
        self.stage(class).mean()
    }

    /// Fraction of total host delay attributed to `class` (0 when empty).
    pub fn share(&self, class: StageClass) -> f64 {
        let total = self.total_sum_ns();
        if total == 0 {
            return 0.0;
        }
        self.stage(class).sum() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique() {
        let all = [
            Stage::NicArrival,
            Stage::NicDropBufferFull,
            Stage::NicDropNoDescriptor,
            Stage::RingDescriptorFetch,
            Stage::PcieCreditStall,
            Stage::BufferWait,
            Stage::PcieTransfer,
            Stage::IotlbHit,
            Stage::IotlbMiss,
            Stage::IommuTranslate,
            Stage::MemoryGrant,
            Stage::CpuDequeue,
            Stage::CpuProcess,
            Stage::CwndUpdate,
            Stage::FaultStart,
            Stage::FaultEnd,
        ];
        let mut names: Vec<_> = all.iter().map(|s| s.name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn breakdown_decomposes_exactly() {
        let mut b = StageBreakdown::new();
        b.record(100, 200, 300, 400, 500);
        b.record(1, 2, 3, 4, 5);
        assert_eq!(b.count(), 2);
        assert_eq!(b.total_sum_ns(), 1500 + 15);
        let host_delay_sum = 1500u128 + 15;
        assert_eq!(b.total_sum_ns(), host_delay_sum);
        let shares: f64 = StageClass::ALL.iter().map(|&c| b.share(c)).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = StageBreakdown::new();
        assert_eq!(b.count(), 0);
        assert_eq!(b.total_sum_ns(), 0);
        assert_eq!(b.share(StageClass::Pcie), 0.0);
    }
}

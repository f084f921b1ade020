//! The receive-side NIC model: the shared input SRAM where host-congestion
//! drops occur, Rx descriptor rings + completion queues (whose 4 KiB-mapped
//! control structures add their own IOTLB pressure), and delivery/drop
//! counters.
//!
//! The NIC itself is dumb on purpose — it queues arriving packets, consumes
//! descriptors and exposes counters. The *pipeline* that drains it (PCIe
//! credits → IOMMU translation → memory write → credit return) lives in
//! the testbed world, where those models are composed; splitting it this
//! way keeps each model independently testable.

use crate::addr::Iova;
use crate::buffer::InputBuffer;
use crate::ring::{CompletionRing, RxRing};

/// NIC hardware parameters.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Input SRAM capacity in bytes (commodity 100 G NICs: 1–2 MiB; the
    /// paper's testbed behaves like ~1 MiB).
    pub input_buffer_bytes: u64,
    /// Rx descriptor ring entries per queue.
    pub(crate) ring_entries: u32,
    /// Bytes per Rx descriptor (what the descriptor-fetch DMA reads).
    pub(crate) desc_bytes: u64,
    /// Bytes per completion-queue entry (what the CQE DMA writes).
    pub(crate) cqe_bytes: u64,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            input_buffer_bytes: 1 << 20,
            ring_entries: 1024,
            desc_bytes: 32,
            cqe_bytes: 64,
        }
    }
}

/// One Rx queue: a descriptor ring and its completion queue, both living
/// in a 4 KiB-mapped control region owned by one receiver thread.
#[derive(Debug)]
pub(crate) struct RxQueue {
    /// Descriptor ring.
    pub(crate) ring: RxRing,
    /// Completion queue.
    pub(crate) cq: CompletionRing,
    /// IOVA the thread's outbound ACK packets are read from (one small
    /// buffer, reused; contributes the "ACK packet" IOTLB access). The
    /// receiver stage keeps its own copy and is the only reader; this one
    /// stays only for the checkpoint image until the next format change.
    pub(crate) ack_buffer: Iova,
}

hostcc_sim::snap_fields!(RxQueue {
    ring,
    cq,
    ack_buffer
});

/// Delivery/drop counters for the whole NIC.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NicStats {
    /// Packets successfully DMA-ed to host memory.
    pub(crate) delivered_packets: u64,
    /// Payload bytes successfully DMA-ed.
    pub(crate) delivered_payload_bytes: u64,
    /// Packets dropped because the input buffer was full.
    pub(crate) drops_buffer_full: u64,
    /// Packets dropped because no Rx descriptor was available.
    pub(crate) drops_no_descriptor: u64,
}

hostcc_sim::snap_fields!(NicStats {
    delivered_packets,
    delivered_payload_bytes,
    drops_buffer_full,
    drops_no_descriptor,
});

impl NicStats {
    /// All drops regardless of cause.
    pub(crate) fn total_drops(&self) -> u64 {
        self.drops_buffer_full + self.drops_no_descriptor
    }
}

/// The receive-side NIC.
#[derive(Debug)]
pub(crate) struct Nic {
    config: NicConfig,
    /// Shared input SRAM (all queues drop here — the isolation-violation
    /// surface the paper calls out).
    pub(crate) input: InputBuffer,
    /// Per-receiver-thread queues.
    pub(crate) queues: Vec<RxQueue>,
    /// Delivery/drop counters.
    pub(crate) stats: NicStats,
}

hostcc_sim::snap_fields!(Nic { input, queues, stats } skip { config });

impl Nic {
    /// A NIC with no queues yet (add one per receiver thread).
    pub(crate) fn new(config: NicConfig) -> Self {
        let input = InputBuffer::new(config.input_buffer_bytes);
        Nic {
            config,
            input,
            queues: Vec::new(),
            stats: NicStats::default(),
        }
    }

    /// Add an Rx queue whose ring/CQ/ACK structures live at the given
    /// control-region IOVAs. Returns the queue index.
    pub(crate) fn add_queue(&mut self, ring_base: Iova, cq_base: Iova, ack_buffer: Iova) -> usize {
        let q = RxQueue {
            ring: RxRing::new(ring_base, self.config.ring_entries, self.config.desc_bytes),
            cq: CompletionRing::new(cq_base, self.config.ring_entries, self.config.cqe_bytes),
            ack_buffer,
        };
        self.queues.push(q);
        self.queues.len() - 1
    }

    /// Aggregate descriptor-ring starvation events across queues.
    pub(crate) fn descriptor_starvation(&self) -> u64 {
        self.queues.iter().map(|q| q.ring.stats().2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nic_builds_queues() {
        let mut nic = Nic::new(NicConfig::default());
        let q0 = nic.add_queue(Iova(0x1000), Iova(0x2000), Iova(0x3000));
        let q1 = nic.add_queue(Iova(0x4000), Iova(0x5000), Iova(0x6000));
        assert_eq!(q0, 0);
        assert_eq!(q1, 1);
        assert_eq!(nic.queues.len(), 2);
        assert_eq!(nic.queues[0].ring.capacity(), 1024);
        assert_eq!(nic.queues[1].ack_buffer, Iova(0x6000));
    }

    #[test]
    fn stats_roll_up() {
        let s = NicStats {
            drops_buffer_full: 3,
            drops_no_descriptor: 2,
            ..NicStats::default()
        };
        assert_eq!(s.total_drops(), 5);
    }

    #[test]
    fn starvation_aggregates_across_queues() {
        let mut nic = Nic::new(NicConfig::default());
        nic.add_queue(Iova(0x1000), Iova(0x2000), Iova(0x3000));
        nic.add_queue(Iova(0x4000), Iova(0x5000), Iova(0x6000));
        nic.queues[0].ring.take();
        nic.queues[1].ring.take();
        nic.queues[1].ring.take();
        assert_eq!(nic.descriptor_starvation(), 3);
    }
}

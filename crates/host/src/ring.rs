//! Rx descriptor rings and completion queues.
//!
//! Step 2 of the paper's datapath: the NIC fetches an Rx descriptor — which
//! carries the (virtual, when the IOMMU is on) buffer address — for every
//! arriving packet, and after DMA-ing the payload writes a completion
//! entry. Both structures live in host memory mapped with ordinary 4 KiB
//! pages, so descriptor fetches and completion writes contribute their own
//! IOTLB lookups: this is how a single packet can cost up to six misses
//! (payload + descriptor + completion + ACK, §3.1 footnote 3).

use crate::addr::Iova;
use std::collections::VecDeque;

/// An Rx descriptor: points at a posted receive buffer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RxDescriptor {
    /// Ring slot the descriptor occupies (determines its own address).
    pub(crate) index: u32,
    /// IOVA of the receive buffer the payload should be DMA-ed to.
    pub(crate) buffer: Iova,
}

hostcc_sim::snap_fields!(RxDescriptor { index, buffer } blank { RxDescriptor::default() });

/// A descriptor ring in host memory.
///
/// The driver replenishes descriptors (posting free buffers); the NIC
/// consumes one per packet. An empty ring means an arriving packet has
/// nowhere to go — accounted as a descriptor-starvation drop.
#[derive(Debug)]
pub(crate) struct RxRing {
    /// The ring's address and descriptor size. The receiver stage lays
    /// out the control region and computes descriptor addresses itself;
    /// these stay only because the checkpoint image holds them, until the
    /// next format change.
    base: Iova,
    entries: u32,
    desc_bytes: u64,
    queue: VecDeque<RxDescriptor>,
    head: u32,
    posted: u64,
    consumed: u64,
    empty_events: u64,
}

hostcc_sim::snap_fields!(RxRing {
    base, entries, desc_bytes, queue, head, posted, consumed, empty_events,
} check { RxRing::check_restored });

impl RxRing {
    /// A ring of `entries` descriptors of `desc_bytes` each, resident at
    /// `base` in the (4 KiB-mapped) control region.
    pub(crate) fn new(base: Iova, entries: u32, desc_bytes: u64) -> Self {
        assert!(entries > 0, "empty ring");
        RxRing {
            base,
            entries,
            desc_bytes,
            queue: VecDeque::with_capacity(entries as usize),
            head: 0,
            posted: 0,
            consumed: 0,
            empty_events: 0,
        }
    }

    /// Number of descriptors currently posted and unconsumed.
    pub(crate) fn available(&self) -> u32 {
        self.queue.len() as u32
    }

    /// Ring capacity.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> u32 {
        self.entries
    }

    /// Free slots the driver could still post into.
    pub(crate) fn free_slots(&self) -> u32 {
        self.entries - self.available()
    }

    /// Driver path: post a receive buffer. Returns `false` if the ring is
    /// already full.
    pub(crate) fn post(&mut self, buffer: Iova) -> bool {
        if self.queue.len() as u32 >= self.entries {
            return false;
        }
        let index = self.head;
        self.head = (self.head + 1) % self.entries;
        self.queue.push_back(RxDescriptor { index, buffer });
        self.posted += 1;
        true
    }

    /// NIC path: consume the next descriptor for an arriving packet.
    pub(crate) fn take(&mut self) -> Option<RxDescriptor> {
        match self.queue.pop_front() {
            Some(d) => {
                self.consumed += 1;
                Some(d)
            }
            None => {
                self.empty_events += 1;
                None
            }
        }
    }

    /// Lifetime (posted, consumed, empty-on-take) counters.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.posted, self.consumed, self.empty_events)
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if self.entries == 0 {
            return Err(SnapError::Corrupt("empty descriptor ring"));
        }
        if self.queue.len() > self.entries as usize {
            return Err(SnapError::Corrupt("descriptor ring overfull"));
        }
        if self.queue.iter().any(|d| d.index >= self.entries) {
            return Err(SnapError::Corrupt("descriptor slot out of range"));
        }
        if self.head >= self.entries {
            return Err(SnapError::Corrupt("ring head out of range"));
        }
        Ok(())
    }
}

/// A completion queue in host memory: the NIC writes one entry per
/// received packet (step 7 precursor: the CQE is what packet-processing
/// threads poll).
#[derive(Debug)]
pub(crate) struct CompletionRing {
    /// The queue's address and entry size, kept only for the checkpoint
    /// image (as in [`RxRing`]) until the next format change.
    base: Iova,
    entries: u32,
    cqe_bytes: u64,
    head: u32,
    written: u64,
}

hostcc_sim::snap_fields!(CompletionRing { base, entries, cqe_bytes, head, written }
    check { CompletionRing::check_restored });

impl CompletionRing {
    /// A CQ of `entries` entries of `cqe_bytes` each at `base`.
    pub(crate) fn new(base: Iova, entries: u32, cqe_bytes: u64) -> Self {
        assert!(entries > 0, "empty CQ");
        CompletionRing {
            base,
            entries,
            cqe_bytes,
            head: 0,
            written: 0,
        }
    }

    /// Record a completion.
    pub(crate) fn push(&mut self) {
        self.head = (self.head + 1) % self.entries;
        self.written += 1;
    }

    /// Completions written over the lifetime.
    #[cfg(test)]
    pub(crate) fn written(&self) -> u64 {
        self.written
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if self.entries == 0 {
            return Err(SnapError::Corrupt("empty completion queue"));
        }
        if self.head >= self.entries {
            return Err(SnapError::Corrupt("completion head out of range"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_take_roundtrip() {
        let mut r = RxRing::new(Iova(0x1000), 4, 32);
        assert!(r.post(Iova(0xA000)));
        assert!(r.post(Iova(0xB000)));
        assert_eq!(r.available(), 2);
        let d = r.take().unwrap();
        assert_eq!(d.buffer, Iova(0xA000));
        assert_eq!(d.index, 0);
        let d2 = r.take().unwrap();
        assert_eq!(d2.buffer, Iova(0xB000));
        assert_eq!(d2.index, 1);
        assert_eq!(r.stats(), (2, 2, 0));
    }

    #[test]
    fn empty_ring_counts_starvation() {
        let mut r = RxRing::new(Iova(0), 4, 32);
        assert!(r.take().is_none());
        assert!(r.take().is_none());
        assert_eq!(r.stats().2, 2);
    }

    #[test]
    fn full_ring_rejects_posts() {
        let mut r = RxRing::new(Iova(0), 2, 32);
        assert!(r.post(Iova(0x1000)));
        assert!(r.post(Iova(0x2000)));
        assert!(!r.post(Iova(0x3000)));
        assert_eq!(r.free_slots(), 0);
        r.take();
        assert!(r.post(Iova(0x3000)));
    }

    #[test]
    fn completion_ring_wraps_and_counts() {
        let mut c = CompletionRing::new(Iova(0x2000), 2, 64);
        for (written, head) in [(1, 1), (2, 0), (3, 1)] {
            c.push();
            assert_eq!((c.written(), c.head), (written, head));
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn sustained_post_take_cycles_indices() {
        let mut r = RxRing::new(Iova(0x1000), 4, 32);
        let mut indices = Vec::new();
        for i in 0..12u64 {
            assert!(r.post(Iova(0x10_0000 + i * 0x1000)));
            let d = r.take().unwrap();
            indices.push(d.index);
        }
        // Indices wrap modulo the ring size.
        assert_eq!(indices, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let (posted, consumed, empty) = r.stats();
        assert_eq!(posted, 12);
        assert_eq!(consumed, 12);
        assert_eq!(empty, 0);
    }

    #[test]
    fn take_preserves_post_order_under_partial_fill() {
        let mut r = RxRing::new(Iova(0), 8, 32);
        r.post(Iova(0xA000));
        r.post(Iova(0xB000));
        assert_eq!(r.take().unwrap().buffer, Iova(0xA000));
        r.post(Iova(0xC000));
        assert_eq!(r.take().unwrap().buffer, Iova(0xB000));
        assert_eq!(r.take().unwrap().buffer, Iova(0xC000));
    }
}

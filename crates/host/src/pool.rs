//! Rx buffer pools: the allocation policy that shapes the DMA address
//! stream.
//!
//! The receiver stack posts Rx descriptors pointing at free buffers from a
//! per-thread pool carved out of that thread's registered region. The
//! *recycling order* determines DMA address locality and therefore the
//! IOTLB working set: a production descriptor ring cycles through every
//! buffer in the region (FIFO — the whole region is hot), while a LIFO
//! stack would keep reusing a handful of buffers. The paper's observed
//! misses require the FIFO behaviour plus multiple concurrent flows
//! destroying page adjacency; both are modelled here.

use crate::addr::Iova;
use crate::region::MemoryRegion;
use std::collections::VecDeque;

/// Buffer recycling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecycleOrder {
    /// Freed buffers go to the back of the free list; allocation cycles
    /// through the entire region sequentially (a freshly-initialised
    /// descriptor ring).
    Fifo,
    /// Freed buffers are reused immediately (stack behaviour; minimal
    /// working set — useful as an ablation).
    Lifo,
    /// Allocation picks a uniformly random free buffer (deterministic,
    /// seeded). This models a long-running SNAP-style stack where
    /// per-connection RPC completions return buffers out of order, so the
    /// descriptor ring ends up pointing at scattered addresses — the
    /// "lack of locality in IOMMU access patterns" the paper names as the
    /// reason subsequent packets do not lie in contiguous memory (§3.1).
    Random {
        /// Seed for the pool's internal generator.
        seed: u64,
    },
}

impl hostcc_sim::Snap for RecycleOrder {
    fn save(&self, w: &mut hostcc_sim::SnapWriter) {
        match *self {
            RecycleOrder::Fifo => w.u8(0),
            RecycleOrder::Lifo => w.u8(1),
            RecycleOrder::Random { seed } => {
                w.u8(2);
                w.u64(seed);
            }
        }
    }

    fn load(&mut self, r: &mut hostcc_sim::SnapReader<'_>) -> Result<(), hostcc_sim::SnapError> {
        *self = match r.u8()? {
            0 => RecycleOrder::Fifo,
            1 => RecycleOrder::Lifo,
            2 => RecycleOrder::Random { seed: r.u64()? },
            _ => return Err(hostcc_sim::SnapError::Corrupt("recycle order out of range")),
        };
        Ok(())
    }
}

/// A fixed-slot buffer pool within one registered region.
#[derive(Debug)]
pub(crate) struct RxBufferPool {
    region_iova: Iova,
    slot_size: u64,
    slots: usize,
    free: VecDeque<u32>,
    order: RecycleOrder,
    rng_state: u64,
    allocated: usize,
    peak_allocated: usize,
    /// Lifetime counters.
    alloc_count: u64,
    exhausted_count: u64,
}

hostcc_sim::snap_fields!(RxBufferPool {
    region_iova, slot_size, slots, free, order, rng_state, allocated, peak_allocated, alloc_count,
    exhausted_count,
} check { RxBufferPool::check_restored });

impl RxBufferPool {
    /// Carve `region` into `slot_size`-byte buffers.
    ///
    /// Panics if the region cannot hold at least one slot.
    pub(crate) fn new(region: &MemoryRegion, slot_size: u64, order: RecycleOrder) -> Self {
        assert!(slot_size > 0, "slot size must be positive");
        let slots = (region.len / slot_size) as usize;
        assert!(slots > 0, "region smaller than one buffer");
        let rng_state = match order {
            RecycleOrder::Random { seed } => seed | 1,
            _ => 0,
        };
        RxBufferPool {
            region_iova: region.iova_base,
            slot_size,
            slots,
            free: (0..slots as u32).collect(),
            order,
            rng_state,
            allocated: 0,
            peak_allocated: 0,
            alloc_count: 0,
            exhausted_count: 0,
        }
    }

    /// xorshift64* step for the `Random` recycle order.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Total number of slots.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots
    }

    /// Currently outstanding (allocated) buffers.
    #[cfg(test)]
    pub(crate) fn in_use(&self) -> usize {
        self.allocated
    }

    /// Free buffers available for posting.
    #[cfg(test)]
    pub(crate) fn available(&self) -> usize {
        self.free.len()
    }

    /// Byte size of one slot.
    #[cfg(test)]
    pub(crate) fn slot_size(&self) -> u64 {
        self.slot_size
    }

    /// Take a buffer for an Rx descriptor. `None` when the pool is dry
    /// (the driver cannot replenish descriptors — upstream this surfaces as
    /// NIC drops).
    pub(crate) fn alloc(&mut self) -> Option<Iova> {
        if self.free.is_empty() {
            self.exhausted_count += 1;
            return None;
        }
        let idx = match self.order {
            RecycleOrder::Fifo | RecycleOrder::Lifo => self.free.pop_front().expect("non-empty"),
            RecycleOrder::Random { .. } => {
                let pick = (self.next_rand() % self.free.len() as u64) as usize;
                self.free.swap_remove_back(pick).expect("non-empty")
            }
        };
        self.allocated += 1;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        self.alloc_count += 1;
        Some(self.slot_iova(idx))
    }

    /// Return a buffer after the application has consumed the packet.
    ///
    /// Panics in debug builds if `iova` does not belong to this pool.
    pub(crate) fn free(&mut self, iova: Iova) {
        let off = iova.as_u64() - self.region_iova.as_u64();
        debug_assert_eq!(off % self.slot_size, 0, "misaligned buffer free");
        let idx = (off / self.slot_size) as u32;
        debug_assert!((idx as usize) < self.slots, "foreign buffer freed");
        debug_assert!(self.allocated > 0, "double free");
        self.allocated -= 1;
        match self.order {
            RecycleOrder::Fifo | RecycleOrder::Random { .. } => self.free.push_back(idx),
            RecycleOrder::Lifo => self.free.push_front(idx),
        }
    }

    /// Lifetime allocation count.
    #[cfg(test)]
    pub(crate) fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Number of failed allocations (pool empty).
    #[cfg(test)]
    pub(crate) fn exhausted_count(&self) -> u64 {
        self.exhausted_count
    }

    /// Estimated bytes of buffer memory the DMA stream keeps hot — the
    /// working set the DDIO slice competes with. LIFO reuse keeps only the
    /// concurrently-outstanding buffers warm; FIFO and scattered recycling
    /// cycle through the whole region.
    pub(crate) fn hot_set_bytes(&self) -> u64 {
        match self.order {
            RecycleOrder::Lifo => self.peak_allocated as u64 * self.slot_size,
            RecycleOrder::Fifo | RecycleOrder::Random { .. } => self.slots as u64 * self.slot_size,
        }
    }

    #[inline]
    fn slot_iova(&self, idx: u32) -> Iova {
        self.region_iova.add(idx as u64 * self.slot_size)
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if self.slot_size == 0 {
            return Err(SnapError::Corrupt("zero pool slot size"));
        }
        if self.slots == 0 {
            return Err(SnapError::Corrupt("empty buffer pool"));
        }
        if self.free.len() > self.slots {
            return Err(SnapError::Corrupt("free list larger than pool"));
        }
        let mut seen = vec![false; self.slots];
        for &idx in &self.free {
            let slot = seen
                .get_mut(idx as usize)
                .ok_or(SnapError::Corrupt("free index out of range"))?;
            if *slot {
                return Err(SnapError::Corrupt("duplicate free index"));
            }
            *slot = true;
        }
        if matches!(self.order, RecycleOrder::Random { .. }) && self.rng_state == 0 {
            return Err(SnapError::Corrupt("zero pool rng state"));
        }
        if self.allocated != self.slots - self.free.len() {
            return Err(SnapError::Corrupt("pool allocation count mismatch"));
        }
        if self.peak_allocated < self.allocated {
            return Err(SnapError::Corrupt("pool peak below outstanding"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::MemoryRegion;

    fn region(len: u64) -> MemoryRegion {
        MemoryRegion {
            iova_base: Iova(0x10_0000),
            len,
        }
    }

    #[test]
    fn carves_region_into_slots() {
        let p = RxBufferPool::new(&region(64 * 4096), 4096, RecycleOrder::Fifo);
        assert_eq!(p.capacity(), 64);
        assert_eq!(p.available(), 64);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.slot_size(), 4096);
    }

    #[test]
    fn fifo_cycles_through_entire_region() {
        let mut p = RxBufferPool::new(&region(4 * 4096), 4096, RecycleOrder::Fifo);
        let mut seen = std::collections::HashSet::new();
        // Alloc+free repeatedly: FIFO must visit all 4 distinct buffers.
        for _ in 0..8 {
            let b = p.alloc().unwrap();
            seen.insert(b);
            p.free(b);
        }
        assert_eq!(seen.len(), 4, "FIFO should cycle the whole region");
    }

    #[test]
    fn lifo_reuses_hot_buffer() {
        let mut p = RxBufferPool::new(&region(4 * 4096), 4096, RecycleOrder::Lifo);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let b = p.alloc().unwrap();
            seen.insert(b);
            p.free(b);
        }
        assert_eq!(seen.len(), 1, "LIFO should reuse one buffer");
    }

    #[test]
    fn exhaustion_returns_none_and_counts() {
        let mut p = RxBufferPool::new(&region(2 * 4096), 4096, RecycleOrder::Fifo);
        let a = p.alloc().unwrap();
        let _b = p.alloc().unwrap();
        assert_eq!(p.alloc(), None);
        assert_eq!(p.exhausted_count(), 1);
        assert_eq!(p.in_use(), 2);
        p.free(a);
        assert!(p.alloc().is_some());
        assert_eq!(p.alloc_count(), 3);
    }

    #[test]
    fn random_order_scatters_allocations_deterministically() {
        let r = region(64 * 4096);
        let mut a = RxBufferPool::new(&r, 4096, RecycleOrder::Random { seed: 7 });
        let mut b = RxBufferPool::new(&r, 4096, RecycleOrder::Random { seed: 7 });
        let seq_a: Vec<_> = (0..32).map(|_| a.alloc().unwrap()).collect();
        let seq_b: Vec<_> = (0..32).map(|_| b.alloc().unwrap()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same sequence");
        // The sequence must not be the sequential FIFO order.
        let sequential: Vec<_> = (0..32u64).map(|i| r.iova_base.add(i * 4096)).collect();
        assert_ne!(seq_a, sequential, "random order should scatter");
        // All distinct.
        let mut dedup = seq_a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 32);
    }

    #[test]
    fn random_order_visits_whole_region_over_time() {
        let r = region(8 * 4096);
        let mut p = RxBufferPool::new(&r, 4096, RecycleOrder::Random { seed: 3 });
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let b = p.alloc().unwrap();
            seen.insert(b);
            p.free(b);
        }
        assert_eq!(seen.len(), 8, "random recycling keeps the whole region hot");
    }

    #[test]
    fn hot_set_tracks_recycle_policy() {
        let r = region(64 * 4096);
        // LIFO: only outstanding buffers are hot.
        let mut lifo = RxBufferPool::new(&r, 4096, RecycleOrder::Lifo);
        let a = lifo.alloc().unwrap();
        let b = lifo.alloc().unwrap();
        lifo.free(b);
        lifo.free(a);
        for _ in 0..100 {
            let x = lifo.alloc().unwrap();
            lifo.free(x);
        }
        assert_eq!(lifo.hot_set_bytes(), 2 * 4096, "peak of two outstanding");
        // FIFO/random: the whole region is hot.
        let fifo = RxBufferPool::new(&r, 4096, RecycleOrder::Fifo);
        assert_eq!(fifo.hot_set_bytes(), 64 * 4096);
        let rand = RxBufferPool::new(&r, 4096, RecycleOrder::Random { seed: 1 });
        assert_eq!(rand.hot_set_bytes(), 64 * 4096);
    }

    #[test]
    fn buffers_are_distinct_and_in_region() {
        let r = region(16 * 4096);
        let mut p = RxBufferPool::new(&r, 4096, RecycleOrder::Fifo);
        let mut got = Vec::new();
        let end = r.iova_base.as_u64() + r.len;
        while let Some(b) = p.alloc() {
            assert!(b >= r.iova_base);
            assert!(b.as_u64() + 4096 <= end);
            got.push(b);
        }
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 16);
    }
}

//! Receiver stack stage: the host end that consumes DMA-ed packets
//! (paper §2, step 7). Per receiver thread it owns the Rx buffer pool
//! feeding the thread's descriptor ring, the thread's dedicated core, and
//! the cursors over the hot pages of its control structures (descriptor
//! ring, completion queue, ACK pool) that every packet's DMAs touch.

use crate::config::{BufferRecycling, TestbedConfig};
use hostcc_mem::{IoPageTable, Iova, PageSize, RecycleOrder, RegionRegistry, RxBufferPool};
use hostcc_nic::Nic;
use hostcc_sim::{stream_seed, SimDuration, SimTime, SnapError};

/// A receive queue's control structures, in control-region order: Rx
/// descriptor ring, completion queue, TX/ACK buffer pool.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ctrl {
    Ring,
    Cq,
    Ack,
}

/// The receiver stack.
pub(crate) struct Receiver {
    pools: Vec<RxBufferPool>,
    /// When each receiver core finishes its current packet.
    core_free_at: Vec<SimTime>,
    /// Per thread, the next hot page of each control structure.
    ring_cursor: Vec<[u64; 3]>,
    /// Per thread, the base IOVA of each control structure.
    ctrl_base: Vec<[Iova; 3]>,
    /// Hot-window page counts per control structure.
    ring_pages: [u64; 3],
    /// Per-packet receiver-core cost (plus strict-mode invalidation work).
    per_pkt_cost: SimDuration,
}

// The control layout and the per-packet cost are run constants.
hostcc_sim::snap_fields!(Receiver { pools, core_free_at, ring_cursor }
    skip { ctrl_base, ring_pages, per_pkt_cost } check { Receiver::check_restored });

impl Receiver {
    /// Register each thread's data and control regions in `table`, add
    /// its NIC queue and pre-post its descriptor ring.
    pub(crate) fn new(cfg: &TestbedConfig, table: &mut IoPageTable, nic: &mut Nic) -> Receiver {
        let threads = cfg.receiver_threads;
        let phys = (threads as u64 + 2) * (cfg.rx_region_bytes + (4 << 20)) + (256 << 20);
        let mut registry = RegionRegistry::new(phys);
        // Control region layout: descriptor ring, CQ, ACK pool.
        let entries = cfg.nic.ring_entries as u64;
        let ctrl_bytes = [
            entries * cfg.nic.desc_bytes,
            entries * cfg.nic.cqe_bytes,
            cfg.ack_pool_pages.max(1) as u64 * 4096,
        ];
        let hot_pages = [cfg.ring_hot_pages, cfg.cq_hot_pages, cfg.ack_pool_pages];
        let ring_pages = std::array::from_fn(|i| {
            (ctrl_bytes[i] / 4096)
                .max(1)
                .min(hot_pages[i].max(1) as u64)
        });
        let mut pools = Vec::with_capacity(threads as usize);
        let mut ctrl_base = Vec::with_capacity(threads as usize);
        for t in 0..threads {
            // Data region (hugepage or 4K mapping per the scenario).
            let data = registry
                .register(table, t, cfg.rx_region_bytes, cfg.data_page)
                .expect("phys budget");
            // Control region: 4 KiB mappings (as in the paper's setup).
            let ctrl = registry
                .register(table, t, ctrl_bytes.iter().sum(), PageSize::Size4K)
                .expect("phys budget");
            let cq = ctrl.iova_base.add(ctrl_bytes[0]);
            let base = [ctrl.iova_base, cq, cq.add(ctrl_bytes[1])];
            let q = nic.add_queue(base[0], base[1], base[2]);
            ctrl_base.push(base);

            let order = match cfg.recycling {
                BufferRecycling::Scattered => RecycleOrder::Random {
                    // SplitMix64-finalized per-thread stream: adjacent
                    // (seed, thread) pairs must not yield correlated
                    // recycling orders.
                    seed: stream_seed(cfg.seed, t as u64),
                },
                BufferRecycling::Sequential => RecycleOrder::Fifo,
                BufferRecycling::Hot => RecycleOrder::Lifo,
            };
            let mut pool = RxBufferPool::new(&data, cfg.buffer_slot_bytes, order);
            // Pre-post the descriptor ring. A hot (on-NIC-memory-style)
            // pool posts a shallow ring so the outstanding buffer set
            // stays small; the default stack fills the whole ring.
            let prepost = match cfg.recycling {
                BufferRecycling::Hot => 64,
                _ => cfg.nic.ring_entries,
            };
            for _ in 0..prepost {
                if nic.queues[q].ring.free_slots() == 0 {
                    break;
                }
                match pool.alloc() {
                    Some(b) => {
                        nic.queues[q].ring.post(b);
                    }
                    None => break,
                }
            }
            pools.push(pool);
        }
        let mut per_pkt_cost = cfg.core_pkt_cost;
        if cfg.strict_iommu {
            per_pkt_cost += cfg.invalidation_cost;
        }
        Receiver {
            pools,
            core_free_at: vec![SimTime::ZERO; threads as usize],
            ring_cursor: vec![[0; 3]; threads as usize],
            ctrl_base,
            ring_pages,
            per_pkt_cost,
        }
    }

    /// Per-thread vectors sized to the receiver threads, ring cursors
    /// inside their hot windows.
    fn check_restored(&mut self) -> Result<(), SnapError> {
        let threads = self.pools.len();
        if self.core_free_at.len() != threads {
            return Err(SnapError::Corrupt("receiver core count mismatch"));
        }
        if self.ring_cursor.len() != threads {
            return Err(SnapError::Corrupt("ring cursor count mismatch"));
        }
        for cur in &self.ring_cursor {
            if cur
                .iter()
                .zip(&self.ring_pages)
                .any(|(c, pages)| c >= pages)
            {
                return Err(SnapError::Corrupt("ring cursor out of range"));
            }
        }
        Ok(())
    }

    pub(crate) fn threads(&self) -> usize {
        self.pools.len()
    }

    /// The IOVA a per-packet access to control structure `which` of
    /// `thread` touches.
    ///
    /// Each structure keeps a hot window of pages that per-packet
    /// accesses cycle through (descriptor prefetch batches, out-of-order
    /// completion retirement). Cyclic reuse is LRU's worst case: below
    /// IOTLB capacity it is free, past capacity it thrashes — which is
    /// what produces the sharp Fig. 3 knee.
    pub(crate) fn next_ctrl_iova(&mut self, thread: usize, which: Ctrl) -> Iova {
        let w = which as usize;
        let pages = self.ring_pages[w];
        let c = self.ring_cursor[thread][w];
        // Wrapping cursor: `c` stays in `[0, pages)`, so the offset
        // sequence is identical to `(count % pages) * 4096` without the
        // per-packet hardware division.
        self.ring_cursor[thread][w] = if c + 1 == pages { 0 } else { c + 1 };
        self.ctrl_base[thread][w].add(c * 4096)
    }

    // ---- cores ----

    pub(crate) fn per_pkt_cost(&self) -> SimDuration {
        self.per_pkt_cost
    }

    /// Queue one packet on `thread`'s core at `now`; returns when the
    /// core finishes it.
    pub(crate) fn run_core(&mut self, thread: usize, now: SimTime) -> SimTime {
        let done = now.max(self.core_free_at[thread]) + self.per_pkt_cost;
        self.core_free_at[thread] = done;
        done
    }

    /// Reserve `thread`'s core for one packet starting at `at` if it is
    /// idle by then.
    pub(crate) fn reserve_core(&mut self, thread: usize, at: SimTime) -> bool {
        let idle = self.core_free_at[thread] <= at;
        if idle {
            self.core_free_at[thread] = at + self.per_pkt_cost;
        }
        idle
    }

    /// Deschedule the first `cores` receiver cores until `horizon`;
    /// returns the core time taken from them, ns.
    pub(crate) fn preempt(&mut self, cores: u32, now: SimTime, horizon: SimTime) -> u64 {
        let mut stolen = 0;
        for free_at in self.core_free_at.iter_mut().take(cores as usize) {
            if *free_at < horizon {
                stolen += horizon.saturating_since((*free_at).max(now)).as_nanos();
                *free_at = horizon;
            }
        }
        stolen
    }

    // ---- buffers ----

    /// Return a consumed buffer to `thread`'s pool and, unless `defer`,
    /// replenish the thread's descriptor ring.
    pub(crate) fn recycle(&mut self, thread: usize, buffer: Iova, defer: bool, nic: &mut Nic) {
        self.pools[thread].free(buffer);
        if !defer {
            self.refill(thread, nic);
        }
    }

    /// Post one fresh buffer on `thread`'s descriptor ring; `false` when
    /// the ring is full or the pool drained.
    pub(crate) fn refill(&mut self, thread: usize, nic: &mut Nic) -> bool {
        let ring = &mut nic.queues[thread].ring;
        if ring.free_slots() == 0 {
            return false;
        }
        match self.pools[thread].alloc() {
            Some(b) => {
                ring.post(b);
                true
            }
            None => false,
        }
    }

    /// Bytes of buffer the pools currently cycle through (the DDIO
    /// working set).
    pub(crate) fn hot_set_bytes(&self) -> u64 {
        self.pools.iter().map(|p| p.hot_set_bytes()).sum()
    }
}

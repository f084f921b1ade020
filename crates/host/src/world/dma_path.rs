//! PCIe/IOMMU/memory path stage (paper §2, steps 2–6): PCIe credits gate
//! admission, the IOMMU translates every DMA target (IOTLB misses walk
//! the page table at memory latency), and the write serialises through
//! PCIe and the memory bus. Any latency here holds the credits longer and
//! shrinks the usable in-flight window (Little's law). The [`Launcher`]
//! schedules launches and decides chain fusion.

use super::demand::DemandWindow;
use super::receiver::Receiver;
use super::{DmaRef, Event};
use crate::addr::{Iova, PageSize};
use crate::antagonist::StreamAntagonist;
use crate::config::TestbedConfig;
use crate::controller::{AgentClass, AgentId, MemorySystem};
use crate::credits::{CreditState, WriteCredits};
use crate::device::{Iommu, TranslationCost};
use crate::metrics::MetricsCollector;
use crate::nic::Nic;
use crate::page_table::IoPageTable;
use crate::vlink::VariableRateLink;
use hostcc_sim::{Resolution, Scheduler, SerialLink, SimTime};
use hostcc_telemetry::SignalInputs;

/// The PCIe/IOMMU/memory path.
pub(crate) struct DmaPath {
    iommu: Iommu,
    mem: MemorySystem,
    antagonist: StreamAntagonist,
    credits: CreditState,
    pcie_pipe: SerialLink,
    mem_pipe: VariableRateLink,
    nic_agent: AgentId,
    app_agent: AgentId,
    /// PCIe credit cost of one full-MTU payload write (a run constant).
    pkt_credits: WriteCredits,
    /// Cached per-walk-access latency (ns); valid while `cached_mem_epoch`
    /// matches the memory system's demand epoch.
    cached_walk_ns: f64,
    /// Cached DDIO commit latency term (ns); same epoch key.
    cached_commit_ns: f64,
    /// Cached descriptor-read round-trip (ns); same epoch key.
    cached_read_rt_ns: u64,
    /// Memory-system epoch the cached latency terms were derived at.
    cached_mem_epoch: u64,
}

// Agent ids and the credit cost are fixed at build; the latency caches
// are recomputed after a restore.
hostcc_sim::snap_fields!(DmaPath {
    iommu, mem, antagonist, credits, pcie_pipe, mem_pipe,
} skip {
    nic_agent, app_agent, pkt_credits, cached_walk_ns, cached_commit_ns, cached_read_rt_ns,
    cached_mem_epoch,
});

impl DmaPath {
    /// Build the path with its latency caches derived at `ddio_leak`.
    pub(crate) fn new(cfg: &TestbedConfig, ddio_leak: f64) -> DmaPath {
        let mut mem = MemorySystem::new(cfg.memsys.clone());
        let nic_agent = mem.register_agent(AgentClass::Io);
        let app_agent = mem.register_agent(AgentClass::Cpu);
        let mut antagonist = StreamAntagonist::new(&mut mem, cfg.stream.clone());
        antagonist.set_cores(&mut mem, cfg.antagonist_cores);
        // Quantised time happens once, at the event-queue boundary: the
        // scheduler's queue rounds every pushed timestamp up to
        // `cfg.resolution`, so all dispatch instants land on the grid and
        // nearby completions share wheel slots. The rate models below
        // deliberately keep their *internal* clocks exact — rounding each
        // serialisation term inside a link would cap it at one packet per
        // grid step (a 400 G link quantised per-packet to 64 ns behaves
        // like 128 G), whereas quantising only the dispatch instant
        // displaces each event by < one grid step without distorting
        // sustained rates. The queue boundary is the only quantiser.
        let mut path = DmaPath {
            iommu: Iommu::new(cfg.iommu.clone()),
            mem,
            antagonist,
            credits: CreditState::new(cfg.credits),
            pcie_pipe: SerialLink::new(cfg.pcie.effective_goodput_bytes_per_sec()),
            mem_pipe: VariableRateLink::new(cfg.memsys.achievable_bytes_per_sec()),
            nic_agent,
            app_agent,
            pkt_credits: WriteCredits::for_write(cfg.wire.mtu_payload as u64, cfg.pcie.max_payload),
            cached_walk_ns: 0.0,
            cached_commit_ns: 0.0,
            cached_read_rt_ns: 0,
            cached_mem_epoch: u64::MAX,
        };
        path.refresh_latency_cache(cfg, ddio_leak);
        path
    }

    /// The IOMMU page table the receiver stack registers its regions in.
    pub(crate) fn page_table_mut(&mut self) -> &mut IoPageTable {
        self.iommu.page_table_mut()
    }

    /// Re-derive the cached per-DMA latency terms. Each term is the exact
    /// f64 expression the launch path would evaluate per packet, and its
    /// inputs change only at memory ticks (demand + DDIO-leak refresh) or
    /// agent registration — so caching them keyed on the memory system's
    /// demand epoch (plus an explicit refresh at the tick, which also
    /// covers a leak-only change) is bit-identical to recomputing.
    pub(crate) fn refresh_latency_cache(&mut self, cfg: &TestbedConfig, ddio_leak: f64) {
        // Per page-walk access: the memory latency curve (capped —
        // page-table lines are cache-friendly) times the IOMMU walker
        // penalty (dependent accesses through the root complex).
        let full = self.mem.access_latency_ns();
        let base = cfg.memsys.base_latency_ns;
        self.cached_walk_ns =
            full.min(base * cfg.walk_latency_cap_factor) * cfg.walk_access_penalty;
        // Commit: DRAM round-trip for leaked lines, LLC hit for absorbed
        // ones.
        self.cached_commit_ns =
            ddio_leak * self.mem.access_latency_ns() + (1.0 - ddio_leak) * cfg.llc_latency_ns;
        self.cached_read_rt_ns = crate::reads::read_round_trip_ns(
            &cfg.pcie,
            &cfg.read_channel,
            cfg.nic.desc_bytes,
            250.0,
            self.mem.access_latency_ns(),
        ) as u64;
        self.cached_mem_epoch = self.mem.demand_epoch();
    }

    /// Refresh the latency caches if the memory demand moved since.
    pub(crate) fn refresh_if_stale(&mut self, cfg: &TestbedConfig, ddio_leak: f64) {
        if self.cached_mem_epoch != self.mem.demand_epoch() {
            self.refresh_latency_cache(cfg, ddio_leak);
        }
    }

    // ---- PCIe credits ----

    /// Whether posted credits admit one more packet write; a refusal
    /// counts as a credit stall.
    pub(crate) fn credits_available(&mut self) -> bool {
        let ok = self.credits.can_admit_write(self.pkt_credits);
        if !ok {
            self.credits.note_stall();
        }
        ok
    }

    /// Take one packet write's credits (checked free just before).
    pub(crate) fn admit_write(&mut self) {
        assert!(self.credits.try_admit_write(self.pkt_credits));
    }

    /// A packet write retired; its credits return.
    pub(crate) fn release_write(&mut self) {
        self.credits.release_write(self.pkt_credits);
    }

    // ---- the write ----

    /// Translate DMA targets `(iova, len, page size)` in order through
    /// the IOMMU and charge the summed receipt: lookups, misses and walk
    /// accesses to the metrics (when armed), walk accesses to the memory
    /// demand window.
    pub(crate) fn translate<const N: usize>(
        &mut self,
        targets: [(Iova, u64, PageSize); N],
        metrics: &mut MetricsCollector,
        demand: &mut DemandWindow,
    ) -> TranslationCost {
        let mut cost = TranslationCost::default();
        for (iova, len, page) in targets {
            cost.add(
                self.iommu
                    .translate_range_cost(iova, len, page)
                    .expect("DMA target mapped"),
            );
        }
        if metrics.armed {
            metrics.iotlb_lookups += cost.iotlb_lookups as u64;
            metrics.iotlb_misses += cost.iotlb_misses as u64;
            metrics.walk_memory_accesses += cost.walk_memory_accesses as u64;
        }
        demand.add_walks(cost.walk_memory_accesses as u64);
        cost
    }

    /// Push a `payload`-byte write admitted at `now` through the pipeline
    /// and return its `(pcie_ns, mem_ns, iommu_ns)` completion delay:
    /// PCIe serialisation, then the memory-bus stage at the NIC's current
    /// grant; the fixed base latency, the serialized page walks of `cost`
    /// and the commit latency ride on top and hold the credits.
    pub(crate) fn write(
        &mut self,
        now: SimTime,
        payload: u64,
        cost: &TranslationCost,
        ddio_leak: f64,
        cfg: &TestbedConfig,
    ) -> (u64, u64, u64) {
        let pcie_done = self
            .pcie_pipe
            .transmit(now, cfg.pcie.wire_bytes_for(payload));
        // Only the DDIO-leaked share of the write stream occupies the
        // DRAM bus; the rest coalesces in the LLC slice.
        let leaked_bytes = (payload as f64 * ddio_leak) as u64;
        let mem_done = self.mem_pipe.transmit(pcie_done, leaked_bytes);
        let walk_ns = cost.walk_memory_accesses as f64 * self.cached_walk_ns;
        let mut pcie_ns =
            pcie_done.saturating_since(now).as_nanos() + cfg.dma_base_latency.as_nanos();
        let mem_ns = mem_done.saturating_since(pcie_done).as_nanos() + self.cached_commit_ns as u64;
        let mut iommu_ns = walk_ns as u64 + cost.lookup_ns;
        if cfg.strict_iommu && self.iommu.is_enabled() {
            // Strict mode: the walker interleaves invalidation commands
            // with translations.
            iommu_ns += cfg.invalidation_dma_stall.as_nanos();
        }
        if cfg.model_dma_read_latency {
            // No descriptor prefetch: the descriptor-fetch DMA read's full
            // PCIe round trip gates the payload write.
            pcie_ns += self.cached_read_rt_ns;
        }
        (pcie_ns, mem_ns, iommu_ns)
    }

    /// Strict IOMMU mode: the driver unmaps a consumed buffer, which
    /// invalidates its IOTLB entry — the next DMA to this page walks.
    pub(crate) fn unmap(&mut self, buffer: Iova, cfg: &TestbedConfig) {
        if cfg.strict_iommu && self.iommu.is_enabled() {
            self.iommu.invalidate_page(buffer, cfg.data_page);
        }
    }

    /// Flush every IOTLB entry; `false` when the IOMMU is off.
    pub(crate) fn flush_iotlb(&mut self) -> bool {
        let enabled = self.iommu.is_enabled();
        if enabled {
            self.iommu.invalidate_all();
        }
        enabled
    }

    // ---- memory bus ----

    /// Register the NIC's and the application's memory demands and
    /// return the bandwidth the bus leaves for DMA after the CPU-class
    /// agents take their (weighted) shares: an idle bus gives DMA its
    /// full burst bandwidth, a saturated one squeezes it toward its
    /// protected share.
    pub(crate) fn grant_memory(&mut self, nic: f64, app: f64, cfg: &TestbedConfig) -> f64 {
        self.mem.set_demand(self.nic_agent, nic);
        self.mem.set_demand(self.app_agent, app);
        let capacity = cfg.memsys.achievable_bytes_per_sec();
        (capacity - self.cpu_bandwidth()).max(2e9)
    }

    /// Memory bandwidth the CPU-class agents (antagonists and receiver
    /// copies) are allocated.
    pub(crate) fn cpu_bandwidth(&mut self) -> f64 {
        self.antagonist.achieved(&mut self.mem) + self.mem.allocation(self.app_agent)
    }

    /// Re-rate the memory stage of the DMA pipeline.
    pub(crate) fn set_memory_rate(&mut self, now: SimTime, bytes_per_sec: f64) {
        self.mem_pipe.set_rate(now, bytes_per_sec);
    }

    // ---- observation ----

    /// The datapath's telemetry gauges and lifetime counters. The
    /// memory-system calls are pure memoization, so reading cannot
    /// perturb the run.
    pub(crate) fn signals(&mut self, nic: &Nic) -> SignalInputs {
        let tlb = self.iommu.iotlb_stats();
        SignalInputs {
            buffer_occupancy_bytes: nic.input.occupancy_bytes(),
            buffer_capacity_bytes: nic.input.capacity_bytes(),
            min_ring_free: nic
                .queues
                .iter()
                .map(|q| q.ring.free_slots())
                .min()
                .unwrap_or(0),
            delivered_total: nic.stats.delivered_packets,
            drops_total: nic.stats.total_drops(),
            credit_stalls_total: self.credits.stalls(),
            iotlb_lookups_total: tlb.lookups,
            iotlb_misses_total: tlb.misses,
            walks_total: self.iommu.stats().walk_memory_accesses,
            mem_util: self.mem.utilization(),
            mem_latency_ns: self.mem.access_latency_ns(),
        }
    }

    pub(crate) fn credits(&self) -> &CreditState {
        &self.credits
    }

    pub(crate) fn iommu(&self) -> &Iommu {
        &self.iommu
    }

    pub(crate) fn mem(&self) -> &MemorySystem {
        &self.mem
    }
}

/// DMA launch scheduling: coalesced launch kicks and chain fusion.
pub(crate) struct Launcher {
    /// Whether a `DmaLaunch` event is already scheduled at the current
    /// instant. Packet arrivals and DMA completions both kick the launch
    /// loop; coalescing the kicks removes one queue round-trip per packet
    /// from the dispatch hot path without changing admission order (the
    /// launch handler drains every admissible packet anyway).
    pending: bool,
    /// Unfused DMA jobs in flight per receiver thread. A chain may only
    /// fuse when this is zero for its thread: a pending unfused
    /// completion claims the core at *dispatch* time, so fusing past it
    /// could start the fused packet's CPU work on a core an earlier
    /// packet is about to take.
    unfused_inflight: Vec<u32>,
    /// Chain fusion enabled for this run: `cfg.fuse_chains` and no fault
    /// plan (CorePreempt windows rewrite the receiver cores' busy
    /// horizons, which would invalidate launch-time core reservations).
    fuse: bool,
}

hostcc_sim::snap_fields!(Launcher { pending, unfused_inflight } skip { fuse });

impl Launcher {
    pub(crate) fn new(cfg: &TestbedConfig) -> Launcher {
        Launcher {
            pending: false,
            unfused_inflight: vec![0; cfg.receiver_threads as usize],
            fuse: cfg.fuse_chains && cfg.faults.is_empty(),
        }
    }

    /// Receiver threads tracked (restore cross-check).
    pub(crate) fn threads(&self) -> usize {
        self.unfused_inflight.len()
    }

    /// Schedule a `DmaLaunch` at the current instant unless one is
    /// already pending.
    pub(crate) fn kick(&mut self, sched: &mut Scheduler<Event>) {
        if !self.pending {
            self.pending = true;
            sched.immediately(Event::DmaLaunch);
        }
    }

    /// The pending launch is being dispatched.
    pub(crate) fn launching(&mut self) {
        self.pending = false;
    }

    /// Schedule the completion of `job` on `thread` at `done`. When the
    /// receiver core is provably idle through the DMA completion (no
    /// unfused completion pending on it, and its busy horizon ends by
    /// then), reserve the core now and collapse DmaComplete → CpuDone
    /// into one macro event — half the wheel traffic for the uncontended
    /// common case. The event queue rounds timestamps up to the run's
    /// resolution, so the reservation uses the same quantised instant the
    /// macro event will actually dispatch at.
    pub(crate) fn schedule(
        &mut self,
        job: DmaRef,
        thread: usize,
        done: SimTime,
        receiver: &mut Receiver,
        resolution: Resolution,
        sched: &mut Scheduler<Event>,
    ) {
        if self.fuse {
            if self.unfused_inflight[thread] == 0
                && receiver.reserve_core(thread, resolution.ceil_time(done))
            {
                return sched.at(done, Event::DmaChain(job));
            }
            self.unfused_inflight[thread] += 1;
        }
        sched.at(done, Event::DmaComplete(job));
    }

    /// An unfused completion on `thread` dispatched: it claims its core
    /// now, so the thread may fuse again.
    pub(crate) fn retire(&mut self, thread: usize) {
        if self.fuse {
            self.unfused_inflight[thread] -= 1;
        }
    }
}

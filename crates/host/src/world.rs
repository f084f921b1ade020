//! The testbed world: every substrate composed into one discrete-event
//! simulation reproducing the paper's receiver-host datapath (Fig. 2).
//!
//! The life of a packet, exactly as §2 describes it:
//!
//! 1. a sender flow transmits over its access link into the incast switch;
//! 2. the switch egress delivers it to the receiver NIC's input buffer
//!    (tail-drop — the host drop point);
//! 3. the DMA pipeline admits the head-of-line packet when PCIe posted
//!    credits allow, consumes an Rx descriptor, translates the descriptor
//!    fetch / payload write / completion write through the IOMMU (IOTLB
//!    misses walk the page table at memory-subsystem latency);
//! 4. the write serialises through PCIe and the memory bus, after which
//!    credits return and the next packet can be admitted — any latency on
//!    this path shrinks the usable in-flight window (Little's law);
//! 5. a receiver thread (dedicated core) processes the packet, frees the
//!    buffer, replenishes a descriptor, and emits an ACK echoing the
//!    measured *host delay* (NIC arrival → processing done) — the signal
//!    Swift compares against its 100 µs target.

use crate::config::{CcKind, TestbedConfig};
use crate::error::RunError;
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::vlink::VariableRateLink;
use hostcc_fabric::{
    EnqueueOutcome, FlowId, GenSlab, Link, PacketRef, PacketStore, SlabRef, SwitchPort, WireMsg,
};
use hostcc_faults::{FaultKind, FaultState, RecoveryTracker};
use hostcc_iommu::Iommu;
use hostcc_mem::{Iova, PageSize, RecycleOrder, RegionRegistry, RxBufferPool};
use hostcc_memsys::{AgentClass, AgentId, MemorySystem, StreamAntagonist};
use hostcc_nic::Nic;
use hostcc_pcie::{CreditState, ReplayChannel, ReplayConfig, WriteCredits};
use hostcc_sim::{
    check_resave, decode, fnv1a_64, stream_seed, DispatchProfile, Engine, Envelope, Ewma,
    RunOutcome, Scheduler, SerialLink, SimDuration, SimRng, SimTime, Snap, SnapError, SnapReader,
    SnapWriter, World,
};
use hostcc_telemetry::{SignalInputs, Telemetry};
use hostcc_trace::{CounterRegistry, Stage, TimelineRecorder, TraceConfig, TraceEvent, Tracer};
use hostcc_transport::{
    Dctcp, FixedWindow, FlowStats, HostAware, ReceiverFlow, RpcConfig, RpcReadChannel, SendBlocked,
    SenderFlow, Swift,
};

/// Build one flow's congestion controller, drawing the target-dispersion
/// scale from `rng` exactly as `Testbed::new` always has (shared with the
/// fleet wiring path so remote flows get the same CC diversity and the
/// draw sequence stays bit-identical).
fn build_cc(
    kind: &CcKind,
    dispersion: f64,
    initial_cwnd: f64,
    rng: &mut SimRng,
) -> Box<dyn hostcc_transport::CongestionControl> {
    match kind {
        CcKind::Swift(sc) => {
            let mut sc = sc.clone();
            let d = dispersion.clamp(0.0, 0.9);
            let scale = 1.0 - d + 2.0 * d * rng.next_f64();
            sc.fabric_base_target = sc.fabric_base_target.mul_f64(scale);
            sc.fs_range = sc.fs_range.mul_f64(scale);
            Box::new(Swift::new(sc, initial_cwnd))
        }
        CcKind::HostAware(hc) => {
            let mut hc = hc.clone();
            let d = dispersion.clamp(0.0, 0.9);
            let scale = 1.0 - d + 2.0 * d * rng.next_f64();
            hc.swift.fabric_base_target = hc.swift.fabric_base_target.mul_f64(scale);
            hc.swift.fs_range = hc.swift.fs_range.mul_f64(scale);
            Box::new(HostAware::new(hc, initial_cwnd))
        }
        CcKind::Dctcp(dc) => Box::new(Dctcp::new(dc.clone(), initial_cwnd)),
        CcKind::Fixed(w) => Box::new(FixedWindow::new(*w)),
    }
}

/// Sample one connection's RPC read size from the configured mix (no
/// draw when the mix is empty — zero-mix runs stay bit-identical).
fn sample_rpc_cfg(cfg: &TestbedConfig, rng: &mut SimRng) -> RpcConfig {
    let mut rpc_cfg = cfg.rpc;
    let total_weight: f64 = cfg.read_size_mix.iter().map(|(_, w)| w).sum();
    if total_weight > 0.0 {
        let mut pick = rng.next_f64() * total_weight;
        for &(bytes, w) in &cfg.read_size_mix {
            pick -= w;
            if pick <= 0.0 {
                rpc_cfg.read_bytes = bytes.max(rpc_cfg.mtu_payload);
                break;
            }
        }
    }
    rpc_cfg
}

/// Build one sender access link, drawing its propagation-spread factor
/// from `rng` (shared with the fleet wiring path).
fn build_sender_link(cfg: &TestbedConfig, rng: &mut SimRng) -> Link {
    let spread = cfg.propagation_spread.clamp(0.0, 0.95);
    let factor = 1.0 - spread + 2.0 * spread * rng.next_f64();
    Link::new(cfg.sender_link_bps, cfg.hop_propagation.mul_f64(factor))
}

/// A DMA in flight between credit admission and completion.
///
/// Besides routing state, the job carries its admission time and the
/// integer-nanosecond DMA stage components (PCIe, memory, IOMMU) so that
/// `CpuDone` can reconstruct an *exact* per-stage decomposition of the
/// packet's host delay: `buffer + pcie + iommu + memory + cpu ==
/// host_delay`, to the nanosecond.
///
/// Jobs live in the testbed's DMA slab between `DmaLaunch` and `CpuDone`;
/// events carry only a [`DmaRef`] handle. The packet itself is referenced
/// by handle too — its bytes stay in the `PacketStore` for the whole
/// NIC-to-ACK lifecycle. The per-packet PCIe credit cost is a testbed
/// constant (`pkt_credits`), so the job does not repeat it.
#[derive(Debug, Clone, Copy)]
pub struct DmaJob {
    pkt: PacketRef,
    nic_arrival: SimTime,
    buffer: Iova,
    thread: u32,
    /// When DMA admission happened (credits granted, descriptor taken).
    admitted: SimTime,
    /// PCIe serialisation + fixed DMA latency (+ descriptor-read round
    /// trip when modelled), ns.
    pcie_ns: u64,
    /// Memory-bus serialisation + commit latency, ns.
    mem_ns: u64,
    /// IOMMU translation: lookups + page walks (+ invalidation stall), ns.
    iommu_ns: u64,
}

hostcc_sim::snap_fields!(DmaJob {
    pkt, nic_arrival, buffer, thread, admitted, pcie_ns, mem_ns, iommu_ns,
} blank {
    DmaJob {
        pkt: PacketRef::from_parts(0, 0),
        nic_arrival: SimTime::ZERO,
        buffer: Iova(0),
        thread: 0,
        admitted: SimTime::ZERO,
        pcie_ns: 0,
        mem_ns: 0,
        iommu_ns: 0,
    }
});

/// Handle to a [`DmaJob`] in the testbed's DMA slab.
pub type DmaRef = SlabRef<DmaJob>;

/// Simulation events.
///
/// Events are handle-sized: packets and DMA jobs live in generational
/// slabs on the testbed and events reference them by 8-byte handles, so
/// the event queue's node arena shuttles at most 24 bytes per event
/// (vs. ~128 when payloads rode in the events by value).
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A sender flow attempts to transmit.
    TrySend(u32),
    /// A data packet reaches the incast switch egress.
    AtSwitch(PacketRef),
    /// A packet arrives at the receiver NIC.
    AtNic(PacketRef),
    /// Attempt to admit queued packets into the DMA pipeline.
    DmaLaunch,
    /// A packet's DMA retired to memory; credits return.
    DmaComplete(DmaRef),
    /// A receiver thread finished processing a packet.
    CpuDone(DmaRef),
    /// Fused macro-event for an uncontended DMA chain: the packet's DMA
    /// retires *and* its (already reserved) receiver core finishes at
    /// `now + per_pkt_cost`. Emitted only when chain fusion is active and
    /// the launch path proved the core idle through the DMA completion —
    /// one wheel round-trip instead of two for the common case.
    DmaChain(DmaRef),
    /// An ACK (with piggybacked RPC frontier) reaches its sender.
    AckToSender {
        /// Flow index.
        flow: u32,
        /// The ACK packet.
        ack: PacketRef,
        /// Piggybacked data frontier.
        frontier: u64,
    },
    /// Periodic retransmission-timer sweep.
    RtoSweep,
    /// Periodic memory-demand refresh.
    MemTick,
    /// A fault-plan transition: `(spec_index << 2) | phase`, where phase
    /// 0 opens a window, 1 closes one, and 2 is an in-window tick (the
    /// IOTLB-storm flush cadence). Packed to keep the event handle-sized.
    Fault(u32),
    /// Periodic telemetry sampling tick (scheduled only when telemetry is
    /// enabled, so telemetry-off runs dispatch an identical event stream).
    TelemetryTick,
    /// A cross-host fabric message (data or returning ACK) fires at this
    /// host. Payload-free on purpose: the message itself waits in the
    /// fabric port's FIFO inbox — the parallel engine injects messages in
    /// `(fire, src_host, seq)` order and the wheel preserves FIFO within
    /// a timestamp, so the queue order matches the injection order and
    /// the event stays inside the 24-byte budget.
    RemoteArrival,
}

// The whole point of the handle-based datapath: events must stay small
// enough that the wheel's node arena is cache-dense. Grows here fail the
// build, not a benchmark three PRs later.
const _: () = assert!(
    std::mem::size_of::<Event>() <= 24,
    "Event outgrew its 24-byte budget; keep payloads in slabs, not events"
);

// Every host owns an event queue, so its fixed slot arrays are paid once
// per host however little the host schedules; at fleet scale they set
// the memory floor. Fleets run at exact resolution; coarse queues keep a
// list head per slot and get the larger budget.
const _: () = {
    use hostcc_sim::{Resolution, TimingWheel};
    assert!(
        TimingWheel::<Event>::slot_array_bytes(Resolution::EXACT) <= 24 * 1024,
        "the exact wheel's fixed slot arrays outgrew their 24 KiB per-queue budget"
    );
    let coarse = Resolution::from_nanos(64).expect("64 ns is a resolution");
    assert!(
        TimingWheel::<Event>::slot_array_bytes(coarse) <= 96 * 1024,
        "the coarse wheel's fixed slot arrays outgrew their 96 KiB per-queue budget"
    );
};

/// A pending event is its tag byte plus the variant's payload.
impl Snap for Event {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            Event::TrySend(f) => (0u8, f).save(w),
            Event::AtSwitch(p) => (1u8, p).save(w),
            Event::AtNic(p) => (2u8, p).save(w),
            Event::DmaLaunch => w.u8(3),
            Event::DmaComplete(j) => (4u8, j).save(w),
            Event::CpuDone(j) => (5u8, j).save(w),
            Event::DmaChain(j) => (6u8, j).save(w),
            Event::AckToSender {
                flow,
                ack,
                frontier,
            } => (7u8, (flow, ack, frontier)).save(w),
            Event::RtoSweep => w.u8(8),
            Event::MemTick => w.u8(9),
            Event::Fault(code) => (10u8, code).save(w),
            Event::TelemetryTick => w.u8(11),
            Event::RemoteArrival => w.u8(12),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => Event::TrySend(decode(r)?),
            1 => Event::AtSwitch(decode(r)?),
            2 => Event::AtNic(decode(r)?),
            3 => Event::DmaLaunch,
            4 => Event::DmaComplete(decode(r)?),
            5 => Event::CpuDone(decode(r)?),
            6 => Event::DmaChain(decode(r)?),
            7 => Event::AckToSender {
                flow: decode(r)?,
                ack: decode(r)?,
                frontier: decode(r)?,
            },
            8 => Event::RtoSweep,
            9 => Event::MemTick,
            10 => Event::Fault(decode(r)?),
            11 => Event::TelemetryTick,
            12 => Event::RemoteArrival,
            _ => return Err(SnapError::Corrupt("event tag out of range")),
        };
        Ok(())
    }

    fn blank() -> Option<Self> {
        Some(Event::DmaLaunch)
    }
}

/// Role of a virtual flow slot appended by fleet wiring. Slot `k`
/// (flow index `senders * receiver_threads + k`) owns virtual sender id
/// `senders + k`, so the existing per-sender vectors stay uniformly
/// indexed.
#[derive(Debug, Clone, Copy)]
enum RemoteEntry {
    /// This host transmits; the data crosses the fabric to `dst_host`,
    /// stamped with the destination-side flow id so the receive path
    /// needs no translation table.
    Sender {
        /// Destination host (global fleet id).
        dst_host: u32,
        /// Flow id of the paired receiver slot on the destination.
        dst_flow_id: FlowId,
    },
    /// This host receives; ACKs return across the fabric to flow
    /// `src_flow` on `src_host`.
    Receiver {
        /// Source host (global fleet id).
        src_host: u32,
        /// Flow index of the paired sender slot on the source.
        src_flow: u32,
    },
}

/// Inter-host fabric attachment: identity, minimum latency (the parallel
/// engine's lookahead), and the outbound/inbound message staging areas.
/// `None` on single-host testbeds — the entire remote path costs one
/// `is_empty` branch there.
#[derive(Debug)]
struct FabricPort {
    /// This host's global fleet id (stamped on outgoing envelopes).
    host_id: u32,
    /// Minimum inter-host delivery latency, added to every crossing.
    latency: SimDuration,
    /// Monotonic per-host envelope counter: the deterministic merge
    /// tiebreaker `(fire, src_host, seq)` needs uniqueness per host.
    wire_seq: u64,
    /// Envelopes emitted since the last `take_outbound` drain.
    outbox: Vec<Envelope<WireMsg>>,
    /// Inbound messages awaiting their `RemoteArrival` events, in
    /// delivery order (the engine injects in merge order; the wheel's
    /// FIFO-within-timestamp keeps event order aligned with this queue).
    inbox: std::collections::VecDeque<WireMsg>,
}

// Identity and latency are topology; the sequence counter and the staged
// messages evolve.
hostcc_sim::snap_fields!(FabricPort { wire_seq, outbox, inbox } skip { host_id, latency });

/// The complete simulated testbed (implements [`World`]).
pub struct Testbed {
    cfg: TestbedConfig,
    rng: SimRng,
    // --- senders & flows ---
    flows: Vec<SenderFlow>,
    flow_ids: Vec<FlowId>,
    sender_links: Vec<Link>,
    recv_flows: Vec<ReceiverFlow>,
    rpc: Vec<RpcReadChannel>,
    /// Roles of the virtual flow slots appended by fleet wiring (empty on
    /// single-host testbeds; slot `k` is flow `base_flows() + k`).
    remote: Vec<RemoteEntry>,
    /// Inter-host fabric attachment (`None` outside a fleet).
    fabric: Option<FabricPort>,
    // --- fabric ---
    switch: SwitchPort,
    /// Every live packet, from `TrySend` until its ACK is consumed at the
    /// sender (or it drops). Events and queues carry `PacketRef` handles.
    store: PacketStore,
    /// DMA jobs in flight between admission and `CpuDone`.
    dma: GenSlab<DmaJob>,
    // --- host ---
    nic: Nic,
    iommu: Iommu,
    mem: MemorySystem,
    nic_agent: AgentId,
    app_agent: AgentId,
    antagonist: StreamAntagonist,
    credits: CreditState,
    pcie_pipe: SerialLink,
    mem_pipe: VariableRateLink,
    pools: Vec<RxBufferPool>,
    core_free_at: Vec<SimTime>,
    ring_cursor: Vec<[u64; 3]>,
    /// Hot-window page counts per control structure (ring, CQ, ACK pool) —
    /// run constants hoisted out of the per-packet ring-offset computation.
    ring_pages: [u64; 3],
    /// Per-packet receiver-core cost (plus strict-mode invalidation work):
    /// a run constant precomputed at build.
    per_pkt_cost: SimDuration,
    /// Cached per-walk-access latency (ns); valid while `cached_mem_epoch`
    /// matches the memory system's demand epoch.
    cached_walk_ns: f64,
    /// Cached DDIO commit latency term (ns); same epoch key.
    cached_commit_ns: f64,
    /// Cached descriptor-read round-trip (ns); same epoch key.
    cached_read_rt_ns: u64,
    /// Memory-system epoch the cached latency terms were derived at.
    cached_mem_epoch: u64,
    // --- demand window ---
    window_payload: u64,
    window_walks: u64,
    last_tick: SimTime,
    nic_demand: Ewma,
    app_demand: Ewma,
    // --- credit constants ---
    /// PCIe credit cost of one full-MTU payload write (precomputed).
    pkt_credits: WriteCredits,
    /// Fraction of DMA writes currently reaching DRAM (DDIO leak),
    /// refreshed every mem tick.
    ddio_leak: f64,
    /// Whether a `DmaLaunch` event is already scheduled at the current
    /// instant. Packet arrivals and DMA completions both kick the launch
    /// loop; coalescing the kicks removes one queue round-trip per packet
    /// from the dispatch hot path without changing admission order (the
    /// launch handler drains every admissible packet anyway).
    dma_launch_pending: bool,
    /// Chain fusion enabled for this run: `cfg.fuse_chains` and no fault
    /// plan (CorePreempt windows rewrite `core_free_at`, which would
    /// invalidate launch-time core reservations).
    fuse_active: bool,
    /// Unfused DMA jobs in flight per receiver thread. A chain may only
    /// fuse when this is zero for its thread: a pending unfused
    /// completion claims the core at *dispatch* time, so fusing past it
    /// could start the fused packet's CPU work on a core an earlier
    /// packet is about to take.
    unfused_inflight: Vec<u32>,
    /// Metrics accumulator (armed after warm-up).
    pub metrics: MetricsCollector,
    /// Datapath event tracer (disabled by default; purely observational).
    pub tracer: Tracer,
    /// Named counters collected from every datapath component.
    pub counters: CounterRegistry,
    /// Periodic time-series recorder (disabled by default).
    pub timeline: TimelineRecorder,
    /// Continuous host-congestion telemetry: sampler + episode detector +
    /// flight recorder (disabled by default; purely observational).
    pub telemetry: Telemetry,
    rtx_base: u64,
    timeout_base: u64,
    // --- fault injection ---
    /// Open-window bookkeeping + fault counters (empty-plan: all idle).
    pub faults: FaultState,
    /// Dedicated RNG stream for fault coin flips (NAK draws). Kept apart
    /// from the workload RNG so wiring the fault layer never perturbs a
    /// zero-fault run's draws.
    fault_rng: SimRng,
    /// PCIe DLLP ACK/NAK replay state (exercised only during replay
    /// windows; an idle channel costs one branch per DMA).
    replay: ReplayChannel,
    /// Goodput before/during/after fault windows.
    recovery: RecoveryTracker,
    /// Cached aggregates, refreshed on window edges (hot-path reads).
    fault_link_down: bool,
    fault_nak_rate: f64,
    fault_refill_stalled: bool,
    fault_throttle: f64,
    /// Refills deferred per thread while a descriptor stall is open.
    fault_pending_refills: Vec<u32>,
    /// Diagnostic counterfactual switch (campaign bisect): when set, fault
    /// windows that have not yet opened are skipped, so a replay from a
    /// checkpoint shows what the run would have done without the fault.
    /// Transient — never serialized; a checkpoint taken after suppression
    /// does not record it.
    faults_suppressed: bool,
    /// Last NIC memory-bandwidth grant computed by the mem tick (so a
    /// throttle edge can re-rate the pipe immediately, between ticks).
    last_nic_avail: f64,
    /// Delivered-byte watermark for recovery goodput sampling.
    last_delivered_bytes: u64,
}

// The checkpoint image: every piece of evolving state. Topology,
// configuration and run constants are skipped: a restore loads into a
// testbed freshly built from the identical config (and, in a fleet, the
// same remote-flow wiring), so shape-fixed containers (flows, links,
// pools, the fabric attachment) must match it. Derived caches are
// recomputed after load, and scratch buffers carry no state between events
// at a slot boundary. The cached fault aggregates are saved rather than
// re-derived: `refresh_fault_aggregates` re-rates the memory pipe, which
// would perturb the restored busy horizon. `faults_suppressed` is a
// transient diagnostic switch and is never saved.
hostcc_sim::snap_fields!(Testbed {
    rng, flows, sender_links, recv_flows, rpc, fabric, switch, store, dma, nic, iommu, mem,
    antagonist, credits, pcie_pipe, mem_pipe, pools, core_free_at, ring_cursor, window_payload,
    window_walks, last_tick, nic_demand, app_demand, ddio_leak, dma_launch_pending,
    unfused_inflight, metrics, counters, telemetry, rtx_base, timeout_base, faults, fault_rng,
    replay, recovery, fault_link_down, fault_nak_rate, fault_refill_stalled, fault_throttle,
    fault_pending_refills, last_nic_avail, last_delivered_bytes,
} skip {
    cfg, flow_ids, remote, nic_agent, app_agent, ring_pages, per_pkt_cost, cached_walk_ns,
    cached_commit_ns, cached_read_rt_ns, cached_mem_epoch, pkt_credits,
    fuse_active, tracer, timeline, faults_suppressed,
} check { Testbed::check_restored });

impl Testbed {
    /// Build the testbed from a configuration. Registers all memory
    /// regions, pre-posts descriptor rings and creates every flow.
    pub fn new(cfg: TestbedConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let wire = cfg.wire;

        // Memory system and agents.
        let mut mem = MemorySystem::new(cfg.memsys.clone());
        let nic_agent = mem.register_agent("nic-dma", AgentClass::Io);
        let app_agent = mem.register_agent("receiver-copies", AgentClass::Cpu);
        let mut antagonist = StreamAntagonist::new(&mut mem, cfg.stream.clone());
        antagonist.set_cores(&mut mem, cfg.antagonist_cores);

        // IOMMU and registered regions.
        let mut iommu = Iommu::new(cfg.iommu.clone());
        let threads = cfg.receiver_threads;
        let phys = (threads as u64 + 2) * (cfg.rx_region_bytes + (4 << 20)) + (256 << 20);
        let mut registry = RegionRegistry::new(phys);

        let mut nic = Nic::new(cfg.nic.clone());
        let mut pools = Vec::with_capacity(threads as usize);
        for t in 0..threads {
            // Data region (hugepage or 4K mapping per the scenario).
            let data = registry
                .register(
                    iommu.page_table_mut(),
                    t,
                    cfg.rx_region_bytes,
                    cfg.data_page,
                )
                .expect("phys budget");
            // Control region: descriptor ring + CQ + ACK buffer, 4 KiB
            // mappings (as in the paper's setup).
            let ring_bytes = cfg.nic.ring_entries as u64 * cfg.nic.desc_bytes;
            let cq_bytes = cfg.nic.ring_entries as u64 * cfg.nic.cqe_bytes;
            let ack_pool_bytes = cfg.ack_pool_pages.max(1) as u64 * 4096;
            let ctrl_len = ring_bytes + cq_bytes + ack_pool_bytes;
            let ctrl = registry
                .register(iommu.page_table_mut(), t, ctrl_len, PageSize::Size4K)
                .expect("phys budget");
            let ring_base = ctrl.iova_base;
            let cq_base = ctrl.iova_base.add(ring_bytes);
            let ack_buf = ctrl.iova_base.add(ring_bytes + cq_bytes);
            let q = nic.add_queue(ring_base, cq_base, ack_buf);

            let order = match cfg.recycling {
                crate::config::BufferRecycling::Scattered => RecycleOrder::Random {
                    // SplitMix64-finalized per-thread stream: adjacent
                    // (seed, thread) pairs must not yield correlated
                    // recycling orders.
                    seed: stream_seed(cfg.seed, t as u64),
                },
                crate::config::BufferRecycling::Sequential => RecycleOrder::Fifo,
                crate::config::BufferRecycling::Hot => RecycleOrder::Lifo,
            };
            let mut pool = RxBufferPool::new(&data, cfg.buffer_slot_bytes, order);
            // Pre-post the descriptor ring. A hot (on-NIC-memory-style)
            // pool posts a shallow ring so the outstanding buffer set
            // stays small; the default stack fills the whole ring.
            let prepost = match cfg.recycling {
                crate::config::BufferRecycling::Hot => 64,
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

        // Flows: one per (sender, thread).
        let n_flows = (cfg.senders * threads) as usize;
        let mut flows = Vec::with_capacity(n_flows);
        let mut flow_ids = Vec::with_capacity(n_flows);
        let mut recv_flows = Vec::with_capacity(n_flows);
        let mut rpc = Vec::with_capacity(n_flows);
        for s in 0..cfg.senders {
            for t in 0..threads {
                // Sample this connection's read size from the mix.
                let rpc_cfg = sample_rpc_cfg(&cfg, &mut rng);
                let cc = build_cc(
                    &cfg.cc,
                    cfg.target_dispersion,
                    cfg.flow.initial_cwnd,
                    &mut rng,
                );
                let mut f = SenderFlow::new(cfg.flow.clone(), cc);
                let ch = RpcReadChannel::new(rpc_cfg);
                f.set_data_frontier(ch.data_frontier());
                flows.push(f);
                flow_ids.push(FlowId {
                    sender: s,
                    thread: t,
                });
                recv_flows.push(ReceiverFlow::new());
                rpc.push(ch);
            }
        }

        let sender_links: Vec<Link> = (0..cfg.senders)
            .map(|_| build_sender_link(&cfg, &mut rng))
            .collect();
        let switch = SwitchPort::new(
            cfg.access_link_bps,
            cfg.hop_propagation,
            cfg.switch_buffer_bytes,
            cfg.ecn_threshold_bytes,
        );

        let pcie_pipe = SerialLink::new(cfg.pcie.effective_goodput_bytes_per_sec());
        let mem_pipe = VariableRateLink::new(cfg.memsys.achievable_bytes_per_sec());
        // Quantised time happens once, at the event-queue boundary: the
        // scheduler's queue rounds every pushed timestamp up to
        // `cfg.resolution`, so all dispatch instants land on the grid and
        // nearby completions share wheel slots. The rate models above
        // deliberately keep their *internal* clocks exact — rounding each
        // serialisation term inside a link would cap it at one packet per
        // grid step (a 400 G link quantised per-packet to 64 ns behaves
        // like 128 G), whereas quantising only the dispatch instant
        // displaces each event by < one grid step without distorting
        // sustained rates. The queue boundary is the only quantiser.
        let credits = CreditState::new(cfg.credits);
        let pkt_credits = WriteCredits::for_write(wire.mtu_payload as u64, cfg.pcie.max_payload);

        // Slab working sets: packets in flight are bounded by the flows'
        // aggregate windows plus queued buffers; DMA jobs by the credit
        // window times threads. Both slabs grow to the real peak and then
        // recycle; these pre-sizes just skip the early doublings.
        let store = PacketStore::with_capacity(1024.max(n_flows * 16));
        let dma = GenSlab::with_capacity(256);

        let faults = FaultState::new(&cfg.faults);
        let fault_rng = SimRng::new(stream_seed(cfg.seed ^ cfg.faults.seed, 0xFA017));
        let last_nic_avail = cfg.memsys.achievable_bytes_per_sec();

        // Hot-window page counts and the per-packet CPU cost are run
        // constants; hoist them out of the per-packet handlers.
        let ring_bytes = cfg.nic.ring_entries as u64 * cfg.nic.desc_bytes;
        let cq_bytes = cfg.nic.ring_entries as u64 * cfg.nic.cqe_bytes;
        let ack_pool_bytes = cfg.ack_pool_pages.max(1) as u64 * 4096;
        let ring_pages = [
            (ring_bytes / 4096)
                .max(1)
                .min(cfg.ring_hot_pages.max(1) as u64),
            (cq_bytes / 4096).max(1).min(cfg.cq_hot_pages.max(1) as u64),
            (ack_pool_bytes / 4096)
                .max(1)
                .min(cfg.ack_pool_pages.max(1) as u64),
        ];
        let mut per_pkt_cost = cfg.core_pkt_cost;
        if cfg.strict_iommu {
            per_pkt_cost += cfg.invalidation_cost;
        }

        let _ = &mut rng;
        let mut tb = Testbed {
            rng,
            flows,
            flow_ids,
            sender_links,
            recv_flows,
            rpc,
            remote: Vec::new(),
            fabric: None,
            switch,
            store,
            dma,
            nic,
            iommu,
            mem,
            nic_agent,
            app_agent,
            antagonist,
            credits,
            pcie_pipe,
            mem_pipe,
            pools,
            core_free_at: vec![SimTime::ZERO; threads as usize],
            ring_cursor: vec![[0; 3]; threads as usize],
            ring_pages,
            per_pkt_cost,
            cached_walk_ns: 0.0,
            cached_commit_ns: 0.0,
            cached_read_rt_ns: 0,
            cached_mem_epoch: u64::MAX,
            window_payload: 0,
            window_walks: 0,
            last_tick: SimTime::ZERO,
            nic_demand: Ewma::new(0.3),
            app_demand: Ewma::new(0.3),
            pkt_credits,
            ddio_leak: 1.0,
            dma_launch_pending: false,
            fuse_active: cfg.fuse_chains && cfg.faults.is_empty(),
            unfused_inflight: vec![0; threads as usize],
            metrics: MetricsCollector::new(),
            tracer: Tracer::disabled(),
            counters: CounterRegistry::new(),
            timeline: TimelineRecorder::disabled(),
            telemetry: Telemetry::new(cfg.telemetry),
            rtx_base: 0,
            timeout_base: 0,
            faults,
            fault_rng,
            replay: ReplayChannel::new(ReplayConfig::default()),
            recovery: RecoveryTracker::new(),
            fault_link_down: false,
            fault_nak_rate: 0.0,
            fault_refill_stalled: false,
            faults_suppressed: false,
            fault_throttle: 1.0,
            fault_pending_refills: vec![0; threads as usize],
            last_nic_avail,
            last_delivered_bytes: 0,
            cfg,
        };
        tb.refresh_latency_cache();
        tb
    }

    /// Install a trace configuration (tracer + timeline recorder). The
    /// tracer is purely observational: enabling it never changes event
    /// ordering, RNG draws or metrics.
    pub fn set_trace(&mut self, trace: TraceConfig) {
        self.tracer = Tracer::new(trace);
        self.timeline = TimelineRecorder::new(trace.timeline_period_ns);
    }

    /// The configuration this testbed was built with.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// Kick off the simulation: initial send attempts + periodic timers.
    pub fn start(&mut self, sched: &mut Scheduler<Event>) {
        let n = self.flows.len() as u32;
        for f in 0..n {
            // Fleet receiver slots hold no transmitting flow.
            if self.is_remote_receiver(f as usize) {
                continue;
            }
            // Slight deterministic desynchronisation of flow start times.
            let jitter = SimDuration::from_nanos((f as u64 * 193) % 20_000);
            sched.after(jitter, Event::TrySend(f));
        }
        sched.after(self.cfg.mem_tick, Event::MemTick);
        sched.after(self.cfg.rto_sweep, Event::RtoSweep);
        // Fault windows ride the same wheel as everything else: every
        // occurrence's opening edge is scheduled up front (closing edges
        // are scheduled when the window opens). Empty plan = no events.
        for (idx, spec) in self.cfg.faults.specs.iter().enumerate() {
            for at in spec.occurrences() {
                sched.after(at, Event::Fault((idx as u32) << 2));
            }
        }
        // The telemetry sampler rides the same wheel as everything else.
        // Telemetry off = no events: those runs stay bit-identical.
        if self.telemetry.is_enabled() {
            sched.after(
                SimDuration::from_nanos(self.telemetry.interval_ns()),
                Event::TelemetryTick,
            );
        }
    }

    fn flow_index(&self, id: FlowId) -> u32 {
        if id.sender >= self.cfg.senders {
            // Virtual sender from fleet wiring: slot k = sender - senders,
            // one flow per slot, appended after the local grid.
            self.base_flows() + (id.sender - self.cfg.senders)
        } else {
            id.sender * self.cfg.receiver_threads + id.thread
        }
    }

    /// Number of local (sender, thread) flows; remote slots start here.
    #[inline]
    fn base_flows(&self) -> u32 {
        self.cfg.senders * self.cfg.receiver_threads
    }

    /// Whether flow `f` is a fleet-wiring receiver slot (a placeholder
    /// sender that must never be started or swept into transmitting).
    #[inline]
    fn is_remote_receiver(&self, f: usize) -> bool {
        let base = self.base_flows() as usize;
        f >= base && matches!(self.remote[f - base], RemoteEntry::Receiver { .. })
    }

    // ---- fleet wiring (all calls happen before `start`) ----

    /// Attach this testbed to the inter-host fabric as `host_id`, with
    /// the given minimum crossing latency (the parallel engine's
    /// lookahead). Must precede any `add_remote_*` call.
    pub fn enable_fabric(&mut self, host_id: u32, latency: SimDuration) {
        assert!(
            latency > SimDuration::ZERO,
            "inter-host latency must be positive (it is the lookahead)"
        );
        self.fabric = Some(FabricPort {
            host_id,
            latency,
            wire_seq: 0,
            outbox: Vec::new(),
            inbox: std::collections::VecDeque::new(),
        });
    }

    /// Flow index the next `add_remote_*` call will allocate. The fleet
    /// builder reads this on the *sender* host before wiring the receiver
    /// side, so the receiver knows the return address up front.
    pub fn next_remote_flow(&self) -> u32 {
        self.flows.len() as u32
    }

    /// Whether this testbed can ever emit a fabric envelope: it is
    /// attached to the fabric *and* has at least one remote flow wired.
    /// The fleet layer uses this to withdraw send-free hosts from the
    /// parallel engine's epoch bound (super-epoch batching) — the answer
    /// is fixed once `start` runs, so it is a sound promise.
    pub fn coupled(&self) -> bool {
        self.fabric.is_some() && !self.remote.is_empty()
    }

    /// Allocate the receiver half of a cross-host flow terminating on
    /// local thread `thread`: a receiver flow + RPC read channel behind a
    /// placeholder sender slot. ACKs return across the fabric to
    /// `src_flow` on `src_host`. Returns `(flow_index, flow_id,
    /// initial_data_frontier)` — the sender half embeds the flow id in
    /// its data packets and seeds its frontier from the returned value.
    pub fn add_remote_receiver(
        &mut self,
        src_host: u32,
        src_flow: u32,
        thread: u32,
    ) -> (u32, FlowId, u64) {
        assert!(
            self.fabric.is_some(),
            "enable_fabric before wiring remote flows"
        );
        let f = self.flows.len() as u32;
        let id = FlowId {
            sender: self.cfg.senders + self.remote.len() as u32,
            thread: thread % self.cfg.receiver_threads.max(1),
        };
        // Same per-connection draws as local flows (read-size mix, link
        // spread), from the host's own RNG: the wiring is a fixed part of
        // the fleet topology, so the draw sequence is independent of
        // shard count.
        let rpc_cfg = sample_rpc_cfg(&self.cfg, &mut self.rng);
        let ch = RpcReadChannel::new(rpc_cfg);
        let frontier = ch.data_frontier();
        // The slot's sender side never transmits (its TrySend is never
        // scheduled and no ACK ever addresses it); the placeholder just
        // keeps the flow vectors parallel.
        self.flows.push(SenderFlow::new(
            self.cfg.flow.clone(),
            Box::new(FixedWindow::new(1.0)),
        ));
        self.flow_ids.push(id);
        self.recv_flows.push(ReceiverFlow::new());
        self.rpc.push(ch);
        self.sender_links
            .push(build_sender_link(&self.cfg, &mut self.rng));
        self.remote
            .push(RemoteEntry::Receiver { src_host, src_flow });
        (f, id, frontier)
    }

    /// Allocate the sender half of a cross-host flow: a full sender flow
    /// (CC built exactly like local ones, including the dispersion draw)
    /// whose data packets cross the fabric to `dst_flow_id` on
    /// `dst_host`. Returns the new flow index — which the fleet builder
    /// already predicted via [`next_remote_flow`](Self::next_remote_flow).
    pub fn add_remote_sender(
        &mut self,
        dst_host: u32,
        dst_flow_id: FlowId,
        initial_frontier: u64,
    ) -> u32 {
        assert!(
            self.fabric.is_some(),
            "enable_fabric before wiring remote flows"
        );
        let f = self.flows.len() as u32;
        let id = FlowId {
            sender: self.cfg.senders + self.remote.len() as u32,
            thread: dst_flow_id.thread,
        };
        let cc = build_cc(
            &self.cfg.cc,
            self.cfg.target_dispersion,
            self.cfg.flow.initial_cwnd,
            &mut self.rng,
        );
        let mut fl = SenderFlow::new(self.cfg.flow.clone(), cc);
        fl.set_data_frontier(initial_frontier);
        self.flows.push(fl);
        self.flow_ids.push(id);
        // Unused on the sender host (data is consumed remotely); parallel
        // for uniform indexing.
        self.recv_flows.push(ReceiverFlow::new());
        self.rpc.push(RpcReadChannel::new(self.cfg.rpc));
        self.sender_links
            .push(build_sender_link(&self.cfg, &mut self.rng));
        self.remote.push(RemoteEntry::Sender {
            dst_host,
            dst_flow_id,
        });
        f
    }

    /// Move every envelope emitted since the last drain into `out`
    /// (parallel-engine send phase). No-op outside a fleet.
    pub fn take_outbound(&mut self, out: &mut Vec<Envelope<WireMsg>>) {
        if let Some(port) = self.fabric.as_mut() {
            out.append(&mut port.outbox);
        }
    }

    /// Queue an inbound fabric message; the caller schedules the matching
    /// [`Event::RemoteArrival`] at the envelope's fire time.
    pub fn push_inbound(&mut self, msg: WireMsg) {
        self.fabric
            .as_mut()
            .expect("inbound message without fabric")
            .inbox
            .push_back(msg);
    }

    /// Stamp and stage an outbound envelope: `fire` is the local
    /// emission-side arrival instant, to which the fabric crossing adds
    /// its minimum latency (so `fire >= now + lookahead` always holds).
    fn queue_remote(&mut self, fire: SimTime, dst_host: u32, msg: WireMsg) {
        let port = self.fabric.as_mut().expect("remote flow without fabric");
        let seq = port.wire_seq;
        port.wire_seq += 1;
        port.outbox.push(Envelope {
            fire: fire + port.latency,
            src_host: port.host_id,
            seq,
            dst_host,
            msg,
        });
    }

    /// Suppress fault windows that have not yet opened (campaign bisect's
    /// counterfactual replay: "what would this run have done without the
    /// fault?"). Windows already open keep their scheduled closing edge.
    /// Transient: the flag is never serialized, so a checkpoint saved
    /// after suppression restores with faults active again.
    pub fn suppress_faults(&mut self) {
        self.faults_suppressed = true;
    }

    /// Begin measurement (discard warm-up counts). Also baselines the
    /// counter registry so `since_baseline` reports the measurement
    /// interval, mirroring the headline metrics.
    pub fn arm_metrics(&mut self, now: SimTime) {
        self.metrics.arm(now);
        self.nic.input.reset_peak();
        self.rtx_base = self.flows.iter().map(|f| f.stats().retransmits).sum();
        self.timeout_base = self.flows.iter().map(|f| f.stats().timeouts).sum();
        if !self.cfg.faults.is_empty() {
            // Recovery goodput is measured over the same interval as the
            // headline metrics. Windows already open at arm time carry
            // over (their closing edges must still balance the tracker).
            self.recovery = RecoveryTracker::new();
            for _ in 0..self.faults.open_windows() {
                self.recovery.on_window_start(now.as_nanos());
            }
            self.last_delivered_bytes = 0;
        }
        self.collect_counters();
        self.counters.mark_baseline();
    }

    /// Snapshot metrics at `now`.
    pub fn snapshot(&mut self, now: SimTime) -> RunMetrics {
        // Placeholder receiver slots hold no real window; exclude them so
        // fleet hosts report the mean over transmitting flows (identical
        // accumulation when no remote slots exist).
        let (mut cwnd_sum, mut cwnd_n) = (0.0f64, 0u64);
        for (i, fl) in self.flows.iter().enumerate() {
            if self.is_remote_receiver(i) {
                continue;
            }
            cwnd_sum += fl.cwnd();
            cwnd_n += 1;
        }
        let mean_cwnd = cwnd_sum / cwnd_n as f64;
        let mut m = self
            .metrics
            .snapshot(now, self.nic.input.peak_bytes(), mean_cwnd);
        let rtx_now: u64 = self.flows.iter().map(|f| f.stats().retransmits).sum();
        let to_now: u64 = self.flows.iter().map(|f| f.stats().timeouts).sum();
        m.retransmits = rtx_now - self.rtx_base;
        m.timeouts = to_now - self.timeout_base;
        if !self.cfg.faults.is_empty() {
            m.faults = Some(self.recovery.summarize(&self.faults.counters));
        }
        // Like `faults`: the section exists only when the subsystem ran,
        // so telemetry-off exports stay byte-identical.
        if self.telemetry.is_enabled() {
            m.telemetry = Some(self.telemetry.summary(now.as_nanos()));
        }
        self.collect_counters();
        m
    }

    /// Refresh the counter registry from every datapath component.
    pub fn collect_counters(&mut self) {
        self.counters.collect(&self.nic);
        self.counters.collect(&self.credits);
        self.counters.collect(&self.iommu);
        self.counters.collect(&self.mem);
        let mut agg = FlowStats::default();
        for f in &self.flows {
            agg.absorb(&f.stats());
        }
        self.counters.collect(&agg);
        // Fault counters only exist in the registry when a plan is present:
        // a zero-fault run's counter export must stay byte-identical to a
        // build without the fault layer.
        if !self.cfg.faults.is_empty() {
            self.counters.collect(&self.faults.counters);
            self.counters.collect(&self.replay);
        }
    }

    /// Per-flow progress: (cumulative bytes ACKed at the sender, packets
    /// delivered in order at the receiver). Chaos tests diff two readings
    /// to prove no flow is permanently stalled after a fault window.
    pub fn flow_progress(&self) -> Vec<(u64, u64)> {
        self.flows
            .iter()
            .zip(&self.recv_flows)
            .map(|(s, r)| (s.cum_acked(), r.delivered_packets()))
            .collect()
    }

    /// Revalidate restored state against the prebuilt topology (per-thread
    /// vectors sized to the receiver threads, ring cursors inside their
    /// hot windows) and value ranges, then recompute the derived caches.
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
        if self.unfused_inflight.len() != threads {
            return Err(SnapError::Corrupt("unfused inflight count mismatch"));
        }
        if self.fault_pending_refills.len() != threads {
            return Err(SnapError::Corrupt("pending refill count mismatch"));
        }
        if !(0.0..=1.0).contains(&self.ddio_leak) {
            return Err(SnapError::Corrupt("ddio leak out of range"));
        }
        if !(0.0..=1.0).contains(&self.fault_nak_rate) {
            return Err(SnapError::Corrupt("nak rate out of range"));
        }
        if !self.fault_throttle.is_finite() || self.fault_throttle < 0.0 {
            return Err(SnapError::Corrupt("invalid throttle factor"));
        }
        if !self.last_nic_avail.is_finite() || self.last_nic_avail < 0.0 {
            return Err(SnapError::Corrupt("invalid nic bandwidth"));
        }
        self.refresh_latency_cache();
        Ok(())
    }

    /// Latency charged per page-walk memory access: the memory latency
    /// curve (capped — page-table lines are cache-friendly) times the
    /// IOMMU walker penalty (dependent accesses through the root complex).
    fn walk_access_latency_ns(&mut self) -> f64 {
        let full = self.mem.access_latency_ns();
        let base = self.cfg.memsys.base_latency_ns;
        full.min(base * self.cfg.walk_latency_cap_factor) * self.cfg.walk_access_penalty
    }

    /// Re-derive the cached per-DMA latency terms. Each term is the exact
    /// f64 expression the launch path used to evaluate per packet, and its
    /// inputs change only at memory ticks (demand + DDIO-leak refresh) or
    /// agent registration — so caching them keyed on the memory system's
    /// demand epoch (plus an explicit refresh at the tick, which also
    /// covers a leak-only change) is bit-identical to recomputing.
    fn refresh_latency_cache(&mut self) {
        self.cached_walk_ns = self.walk_access_latency_ns();
        self.cached_commit_ns = self.ddio_leak * self.mem.access_latency_ns()
            + (1.0 - self.ddio_leak) * self.cfg.llc_latency_ns;
        self.cached_read_rt_ns = hostcc_pcie::read_round_trip_ns(
            &self.cfg.pcie,
            &self.cfg.read_channel,
            self.cfg.nic.desc_bytes,
            250.0,
            self.mem.access_latency_ns(),
        ) as u64;
        self.cached_mem_epoch = self.mem.demand_epoch();
    }

    /// Pick the control-structure page a per-packet ring access touches.
    ///
    /// Each ring keeps a hot window of pages that per-packet accesses
    /// cycle through (descriptor prefetch batches, out-of-order
    /// completion retirement). Cyclic reuse is LRU's worst case: below
    /// IOTLB capacity it is free, past capacity it thrashes — which is
    /// what produces the sharp Fig. 3 knee.
    fn ring_page_offset(&mut self, thread: usize, which: usize) -> u64 {
        let pages = self.ring_pages[which];
        let c = self.ring_cursor[thread][which];
        // Wrapping cursor: `c` stays in `[0, pages)`, so the offset
        // sequence is identical to `(count % pages) * 4096` without the
        // per-packet hardware division.
        self.ring_cursor[thread][which] = if c + 1 == pages { 0 } else { c + 1 };
        c * 4096
    }

    // ---- event handlers ----

    /// Schedule a `DmaLaunch` at the current instant unless one is
    /// already pending (coalesced kick; see `dma_launch_pending`).
    fn kick_dma_launch(&mut self, sched: &mut Scheduler<Event>) {
        if !self.dma_launch_pending {
            self.dma_launch_pending = true;
            sched.immediately(Event::DmaLaunch);
        }
    }

    fn handle_try_send(&mut self, now: SimTime, f: u32, sched: &mut Scheduler<Event>) {
        // Bursty workloads: outside the active window, hold transmissions
        // until the next burst begins (all of a host's flows share the
        // pattern, as co-located application phases do).
        if self.cfg.duty_cycle < 1.0 {
            let period = self.cfg.duty_period.as_nanos().max(1);
            let active = (period as f64 * self.cfg.duty_cycle) as u64;
            let phase = now.as_nanos() % period;
            if phase >= active {
                let next_burst = now + SimDuration::from_nanos(period - phase);
                sched.at(next_burst, Event::TrySend(f));
                return;
            }
        }
        let id = self.flow_ids[f as usize];
        match self.flows[f as usize].try_send(now) {
            Ok(seq) => {
                let base = self.base_flows();
                if f >= base {
                    // Cross-host flow: the packet leaves this host
                    // entirely, stamped with the destination-side flow id.
                    // It still serialises through this slot's access link
                    // (so pacing and link contention are modelled), then
                    // crosses the fabric at its minimum latency and joins
                    // the destination's datapath at its incast switch.
                    let RemoteEntry::Sender {
                        dst_host,
                        dst_flow_id,
                    } = self.remote[(f - base) as usize]
                    else {
                        unreachable!("receiver slots never transmit");
                    };
                    let pkt = self.cfg.wire.data_packet(dst_flow_id, seq, now);
                    if self.metrics.armed {
                        self.metrics.data_packets_sent += 1;
                    }
                    let link = &mut self.sender_links[id.sender as usize];
                    let arrive = link.transmit(now, &pkt);
                    let next = link.free_at().max(now);
                    self.queue_remote(arrive, dst_host, WireMsg::Data(pkt));
                    sched.at(next, Event::TrySend(f));
                    return;
                }
                let pkt = self.cfg.wire.data_packet(id, seq, now);
                if self.metrics.armed {
                    self.metrics.data_packets_sent += 1;
                }
                let link = &mut self.sender_links[id.sender as usize];
                let arrive = link.transmit(now, &pkt);
                // The packet enters the store here and is referenced by
                // handle for the rest of its life.
                sched.at(arrive, Event::AtSwitch(self.store.alloc(pkt)));
                // Chain the next attempt at the link's serialisation slot.
                let next = link.free_at().max(now);
                sched.at(next, Event::TrySend(f));
            }
            Err(SendBlocked::PacedUntil(t)) => sched.at(t.max(now), Event::TrySend(f)),
            Err(SendBlocked::WindowLimited) | Err(SendBlocked::DataLimited) => {
                // Woken by the next ACK / frontier advance.
            }
        }
    }

    fn handle_at_switch(&mut self, now: SimTime, pkt: PacketRef, sched: &mut Scheduler<Event>) {
        match self.switch.enqueue(now, self.store.get_mut(pkt)) {
            EnqueueOutcome::DeliverAt(t) => sched.at(t, Event::AtNic(pkt)),
            EnqueueOutcome::Dropped => {
                self.store.free(pkt);
                if self.metrics.armed {
                    self.metrics.drops_fabric += 1;
                }
            }
        }
    }

    fn handle_at_nic(&mut self, now: SimTime, pkt: PacketRef, sched: &mut Scheduler<Event>) {
        // Link-flap blackout: the packet is lost on the wire, so it never
        // arrives at the NIC at all (no wire-byte accounting, no buffer).
        if self.fault_link_down {
            self.store.free(pkt);
            self.faults.counters.link_dropped_packets += 1;
            if self.metrics.armed {
                self.metrics.drops_fabric += 1;
            }
            return;
        }
        let wire_bytes = self.store.get(pkt).wire_bytes;
        if self.metrics.armed {
            self.metrics.nic_arrival_wire_bytes += wire_bytes as u64;
        }
        if self.nic.input.enqueue(now, pkt, wire_bytes) {
            self.kick_dma_launch(sched);
        } else {
            self.store.free(pkt);
            self.nic.stats.drops_buffer_full += 1;
            if self.metrics.armed {
                self.metrics.drops_buffer_full += 1;
            }
            if self.tracer.is_enabled() {
                self.tracer.record(TraceEvent::instant(
                    now.as_nanos(),
                    Stage::NicDropBufferFull,
                ));
            }
        }
    }

    fn handle_dma_launch(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.dma_launch_pending = false;
        if self.cached_mem_epoch != self.mem.demand_epoch() {
            self.refresh_latency_cache();
        }
        loop {
            if self.nic.input.is_empty() {
                return;
            }
            if !self.credits.can_admit_write(self.pkt_credits) {
                self.credits.note_stall();
                if self.tracer.is_enabled() {
                    self.tracer
                        .record(TraceEvent::instant(now.as_nanos(), Stage::PcieCreditStall));
                }
                return; // retried on the next DmaComplete
            }
            let qp = self.nic.input.dequeue().expect("peeked non-empty");
            let (thread, payload) = {
                let p = self.store.get(qp.pkt);
                (p.flow.thread as usize, p.payload_bytes as u64)
            };

            // Step 2: fetch an Rx descriptor.
            let Some(desc) = self.nic.queues[thread].ring.take() else {
                self.store.free(qp.pkt);
                self.nic.stats.drops_no_descriptor += 1;
                if self.metrics.armed {
                    self.metrics.drops_no_descriptor += 1;
                }
                if self.tracer.is_enabled() {
                    self.tracer.record(TraceEvent::instant(
                        now.as_nanos(),
                        Stage::NicDropNoDescriptor,
                    ));
                }
                continue;
            };
            assert!(self.credits.try_admit_write(self.pkt_credits));

            // Steps 3-5: translate descriptor fetch, payload write and
            // completion write; all contribute IOTLB pressure. Ring
            // accesses land on batched/prefetched (effectively random)
            // pages of their structures.
            let ring_bytes = self.cfg.nic.ring_entries as u64 * self.cfg.nic.desc_bytes;
            let mut cost = hostcc_iommu::TranslationCost::default();
            let desc_off = self.ring_page_offset(thread, 0);
            let desc_iova = self.nic.queues[thread]
                .ring
                .descriptor_iova(0)
                .add(desc_off);
            cost.add(
                self.iommu
                    .translate_range_cost(desc_iova, self.cfg.nic.desc_bytes, PageSize::Size4K)
                    .expect("descriptor mapped"),
            );
            cost.add(
                self.iommu
                    .translate_range_cost(desc.buffer, payload, self.cfg.data_page)
                    .expect("buffer mapped"),
            );
            let cq_off = self.ring_page_offset(thread, 1);
            self.nic.queues[thread].cq.push();
            let cq_base = self.nic.queues[thread]
                .ring
                .descriptor_iova(0)
                .add(ring_bytes);
            cost.add(
                self.iommu
                    .translate_range_cost(
                        cq_base.add(cq_off),
                        self.cfg.nic.cqe_bytes,
                        PageSize::Size4K,
                    )
                    .expect("cq mapped"),
            );

            if self.metrics.armed {
                self.metrics.iotlb_lookups += cost.iotlb_lookups as u64;
                self.metrics.iotlb_misses += cost.iotlb_misses as u64;
                self.metrics.walk_memory_accesses += cost.walk_memory_accesses as u64;
            }
            self.window_walks += cost.walk_memory_accesses as u64;

            // Pipeline: PCIe serialisation, then the memory-bus stage at
            // the NIC's currently-available bandwidth; fixed base latency,
            // serialized page walks and the commit latency ride on top and
            // hold the credits (Little's law).
            let pcie_done = self
                .pcie_pipe
                .transmit(now, self.cfg.pcie.wire_bytes_for(payload));
            // Only the DDIO-leaked share of the write stream occupies the
            // DRAM bus; the rest coalesces in the LLC slice.
            let leaked_bytes = (payload as f64 * self.ddio_leak) as u64;
            let mem_done = self.mem_pipe.transmit(pcie_done, leaked_bytes);
            let walk_ns = cost.walk_memory_accesses as f64 * self.cached_walk_ns;
            // Commit latency: DRAM round-trip for leaked lines, LLC hit
            // for absorbed ones.
            let commit_ns = self.cached_commit_ns;
            // Accumulate the completion delay as three integer-ns stage
            // components (the sum is identical to adding each term to
            // `done` directly, so the decomposition is exact and free).
            let mut pcie_ns =
                pcie_done.saturating_since(now).as_nanos() + self.cfg.dma_base_latency.as_nanos();
            let mem_ns = mem_done.saturating_since(pcie_done).as_nanos() + commit_ns as u64;
            let mut iommu_ns = walk_ns as u64 + cost.lookup_ns;
            if self.cfg.strict_iommu && self.iommu.is_enabled() {
                // Strict mode: the walker interleaves invalidation
                // commands with translations.
                iommu_ns += self.cfg.invalidation_dma_stall.as_nanos();
            }
            if self.cfg.model_dma_read_latency {
                // No descriptor prefetch: the descriptor-fetch DMA read's
                // full PCIe round trip gates the payload write.
                pcie_ns += self.cached_read_rt_ns;
            }
            if self.fault_nak_rate > 0.0 {
                // PCIe link-layer error window: the DLLP layer NAKs this
                // TLP with probability `nak_rate` and the write replays
                // from the replay buffer after a backed-off replay timer.
                if self.fault_rng.next_f64() < self.fault_nak_rate {
                    pcie_ns += self.replay.nak();
                } else {
                    self.replay.ack();
                }
            }
            let done = now + SimDuration::from_nanos(pcie_ns + mem_ns + iommu_ns);

            let job = self.dma.alloc(DmaJob {
                pkt: qp.pkt,
                nic_arrival: qp.arrived,
                buffer: desc.buffer,
                thread: thread as u32,
                admitted: now,
                pcie_ns,
                mem_ns,
                iommu_ns,
            });
            // Chain fusion: when the receiver core is provably idle
            // through the DMA completion (no unfused completion pending
            // on it, and its busy horizon ends by then), reserve the core
            // now and collapse DmaComplete -> CpuDone into one macro
            // event — half the wheel traffic for the uncontended common
            // case. The event queue rounds timestamps up to the run's
            // resolution, so the reservation uses the same quantised
            // instant the macro event will actually dispatch at.
            if self.fuse_active && self.unfused_inflight[thread] == 0 {
                let done_q = self.cfg.resolution.ceil_time(done);
                if self.core_free_at[thread] <= done_q {
                    self.core_free_at[thread] = done_q + self.per_pkt_cost;
                    sched.at(done, Event::DmaChain(job));
                    continue;
                }
            }
            if self.fuse_active {
                self.unfused_inflight[thread] += 1;
            }
            sched.at(done, Event::DmaComplete(job));
        }
    }

    fn handle_dma_complete(&mut self, now: SimTime, job: DmaRef, sched: &mut Scheduler<Event>) {
        self.credits.release_write(self.pkt_credits);
        self.kick_dma_launch(sched);
        let (pkt, thread) = {
            let j = self.dma.get(job);
            (j.pkt, j.thread as usize)
        };
        self.window_payload += self.store.get(pkt).payload_bytes as u64;
        if self.fuse_active {
            // This job was counted as a fusion blocker at launch; its
            // core claim happens right here, so the thread may fuse again.
            self.unfused_inflight[thread] -= 1;
        }

        // Step 7: a dedicated receiver core processes the packet (strict
        // IOMMU mode adds the unmap/invalidate work to the per-packet
        // cost, precomputed into `per_pkt_cost`).
        let start = now.max(self.core_free_at[thread]);
        let done = start + self.per_pkt_cost;
        self.core_free_at[thread] = done;
        sched.at(done, Event::CpuDone(job));
    }

    /// Fused DMA chain: the DMA retired at `now` and the receiver core —
    /// reserved for this packet at launch — finishes at
    /// `now + per_pkt_cost`. Credits return exactly as a `DmaComplete`
    /// would return them, then the CPU-done tail runs with the reserved
    /// completion instant as its logical timestamp. `core_free_at` was
    /// already advanced at launch and must not be touched here.
    fn handle_dma_chain(&mut self, now: SimTime, job: DmaRef, sched: &mut Scheduler<Event>) {
        self.credits.release_write(self.pkt_credits);
        self.kick_dma_launch(sched);
        self.window_payload += self.store.get(self.dma.get(job).pkt).payload_bytes as u64;
        let cpu_done = now + self.per_pkt_cost;
        self.cpu_done_body(cpu_done, job, sched);
    }

    fn handle_cpu_done(&mut self, now: SimTime, job: DmaRef, sched: &mut Scheduler<Event>) {
        self.cpu_done_body(now, job, sched);
    }

    /// Receiver-core completion at logical time `done_at`. Dispatched as
    /// its own `CpuDone` event (`done_at == now`) on the unfused path, or
    /// inline from a fused chain — where the engine clock still reads the
    /// DMA-retire instant and `done_at` is the core's reserved finish
    /// time, strictly in the future. Everything time-stamped here (stage
    /// decomposition, telemetry, the ACK's return-path departure) uses
    /// `done_at`, so both paths agree on when processing finished.
    fn cpu_done_body(&mut self, done_at: SimTime, job: DmaRef, sched: &mut Scheduler<Event>) {
        let now = done_at;
        // The packet's host lifecycle ends here: both slab entries retire
        // (free returns the final value by copy), and only the ACK —
        // allocated below — survives into the return path.
        let job = self.dma.free(job);
        let pkt = self.store.free(job.pkt);
        let f = self.flow_index(pkt.flow) as usize;
        let t = job.thread as usize;

        let (ack_seq, fresh) = self.recv_flows[f].on_data_detailed(pkt.seq);
        if fresh {
            self.nic.stats.delivered_packets += 1;
            self.nic.stats.delivered_payload_bytes += pkt.payload_bytes as u64;
            if self.metrics.armed {
                self.metrics.delivered_packets += 1;
                self.metrics.delivered_payload_bytes += pkt.payload_bytes as u64;
            }
        }
        // Closed-loop RPC: completed reads issue new ones.
        let in_order = self.recv_flows[f].delivered_packets();
        let prev = self.rpc[f].delivered_packets();
        if in_order > prev {
            self.rpc[f].on_delivered(in_order - prev);
        }

        // Strict IOMMU mode: the driver unmaps the consumed buffer, which
        // invalidates its IOTLB entry — the next DMA to this page walks.
        if self.cfg.strict_iommu && self.iommu.is_enabled() {
            self.iommu.invalidate_page(job.buffer, self.cfg.data_page);
        }
        // Free the buffer and replenish the descriptor ring. During a
        // descriptor-stall window the refill is deferred instead: the ring
        // drains, packets drop descriptor-starved, and the backlog posts
        // when the window closes.
        self.pools[t].free(job.buffer);
        if self.fault_refill_stalled {
            self.fault_pending_refills[t] += 1;
            self.faults.counters.deferred_refills += 1;
        } else if self.nic.queues[t].ring.free_slots() > 0 {
            if let Some(b) = self.pools[t].alloc() {
                self.nic.queues[t].ring.post(b);
            }
        }

        // Host delay: NIC arrival -> stack processing done, decomposed
        // exactly into its stages. `admitted` and the three DMA components
        // rode on the job; buffer wait and CPU time fall out of the event
        // times, and the five parts sum to `host_delay` to the nanosecond.
        let host_delay = now.saturating_since(job.nic_arrival);
        let dma_done =
            job.admitted + SimDuration::from_nanos(job.pcie_ns + job.mem_ns + job.iommu_ns);
        let buffer_ns = job.admitted.saturating_since(job.nic_arrival).as_nanos();
        let cpu_ns = now.saturating_since(dma_done).as_nanos();
        if self.telemetry.is_enabled() {
            self.telemetry.on_packet(host_delay.as_nanos(), cpu_ns);
        }
        if self.metrics.armed {
            self.metrics.host_delay.record(host_delay.as_nanos());
            self.metrics.stage_breakdown.record(
                buffer_ns,
                job.pcie_ns,
                job.iommu_ns,
                job.mem_ns,
                cpu_ns,
            );
        }
        if self.tracer.sample() {
            let (flow, thread, seq) = (pkt.flow.sender, job.thread, pkt.seq);
            let t0 = job.admitted.as_nanos();
            self.tracer.record(TraceEvent::span(
                job.nic_arrival.as_nanos(),
                Stage::BufferWait,
                buffer_ns,
                flow,
                thread,
                seq,
            ));
            self.tracer.record(TraceEvent::span(
                t0,
                Stage::PcieTransfer,
                job.pcie_ns,
                flow,
                thread,
                seq,
            ));
            self.tracer.record(TraceEvent::span(
                t0 + job.pcie_ns,
                Stage::IommuTranslate,
                job.iommu_ns,
                flow,
                thread,
                seq,
            ));
            self.tracer.record(TraceEvent::span(
                t0 + job.pcie_ns + job.iommu_ns,
                Stage::MemoryGrant,
                job.mem_ns,
                flow,
                thread,
                seq,
            ));
            self.tracer.record(TraceEvent::span(
                dma_done.as_nanos(),
                Stage::CpuProcess,
                cpu_ns,
                flow,
                thread,
                seq,
            ));
        }

        // ACK: the NIC DMA-reads the ACK from the thread's TX/ACK pool,
        // which cycles through its pages (one more IOTLB access per packet
        // over a multi-page working set).
        let ack_off = self.ring_page_offset(t, 2);
        let ack_cost = self
            .iommu
            .translate_range_cost(
                self.nic.queues[t].ack_buffer.add(ack_off),
                self.cfg.wire.ack_wire_bytes as u64,
                PageSize::Size4K,
            )
            .expect("ack buffer mapped");
        if self.metrics.armed {
            self.metrics.iotlb_lookups += ack_cost.iotlb_lookups as u64;
            self.metrics.iotlb_misses += ack_cost.iotlb_misses as u64;
            self.metrics.walk_memory_accesses += ack_cost.walk_memory_accesses as u64;
        }
        self.window_walks += ack_cost.walk_memory_accesses as u64;

        let mut ack = self.cfg.wire.ack_packet(&pkt, ack_seq, host_delay);
        // Echo the freshest host-congestion signal: the NIC input-buffer
        // occupancy at ACK-generation time (hardware telemetry a
        // host-aware protocol could read; §4's new congestion signal).
        ack.nic_buffer_frac =
            self.nic.input.occupancy_bytes() as f64 / self.nic.input.capacity_bytes() as f64;
        let frontier = self.rpc[f].data_frontier();
        // Return path: receiver uplink + switch + sender downlink are all
        // uncontended; charge propagation + a small fixed processing cost
        // + jitter (engine scheduling noise, ACK coalescing variance).
        let jitter =
            SimDuration::from_nanos(self.rng.next_below(self.cfg.ack_jitter.as_nanos().max(1)));
        let back = self.cfg.hop_propagation * 2 + SimDuration::from_micros(1) + jitter;
        // Anchored at `done_at`, not the engine clock: a fused chain runs
        // this body at the DMA-retire instant but the ACK leaves when the
        // core finishes.
        if f >= self.base_flows() as usize {
            // Cross-host flow: the ACK crosses the fabric back to the
            // paired sender slot, taking the same local return path plus
            // the fabric's minimum latency.
            let RemoteEntry::Receiver { src_host, src_flow } =
                self.remote[f - self.base_flows() as usize]
            else {
                unreachable!("sender slots never receive data");
            };
            self.queue_remote(
                now + back,
                src_host,
                WireMsg::Ack {
                    flow: src_flow,
                    ack,
                    frontier,
                },
            );
            return;
        }
        sched.at(
            now + back,
            Event::AckToSender {
                flow: f as u32,
                ack: self.store.alloc(ack),
                frontier,
            },
        );
    }

    fn handle_ack(
        &mut self,
        now: SimTime,
        f: u32,
        ack: PacketRef,
        frontier: u64,
        sched: &mut Scheduler<Event>,
    ) {
        // The ACK is consumed at the sender; its slab entry retires.
        let ack = self.store.free(ack);
        self.ack_body(now, f, ack, frontier, sched);
    }

    /// ACK consumption at the sender, shared by the local path (after the
    /// store retire above) and the cross-host path (where the ACK arrives
    /// by value, never having entered this host's store).
    fn ack_body(
        &mut self,
        now: SimTime,
        f: u32,
        ack: hostcc_fabric::Packet,
        frontier: u64,
        sched: &mut Scheduler<Event>,
    ) {
        if self.telemetry.is_enabled() {
            // Fabric share of the round trip: RTT minus the echoed host
            // delay. Independent of `metrics.armed`, so the sampler sees
            // warm-up windows too.
            let rtt_ns = now.saturating_since(ack.sent_at).as_nanos();
            self.telemetry
                .on_ack(rtt_ns.saturating_sub(ack.host_delay_echo.as_nanos()));
        }
        if self.metrics.armed {
            let rtt = now.saturating_since(ack.sent_at);
            self.metrics.rtt.record(rtt.as_nanos());
        }
        let flow = &mut self.flows[f as usize];
        flow.on_ack(
            now,
            ack.seq,
            ack.sent_at,
            ack.host_delay_echo,
            ack.ecn_ce,
            ack.nic_buffer_frac,
        );
        flow.set_data_frontier(frontier);
        sched.immediately(Event::TrySend(f));
    }

    /// A cross-host message fires: pop the fabric inbox head (injection
    /// order matches event order — see [`Event::RemoteArrival`]). Data
    /// joins the local datapath at the incast switch, exactly where a
    /// local sender's packet enters; ACKs take the shared consumption
    /// path without a store round-trip.
    fn handle_remote_arrival(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let msg = self
            .fabric
            .as_mut()
            .expect("RemoteArrival without fabric")
            .inbox
            .pop_front()
            .expect("RemoteArrival without queued message");
        match msg {
            WireMsg::Data(pkt) => {
                let pref = self.store.alloc(pkt);
                self.handle_at_switch(now, pref, sched);
            }
            WireMsg::Ack {
                flow,
                ack,
                frontier,
            } => self.ack_body(now, flow, ack, frontier, sched),
        }
    }

    fn handle_rto_sweep(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        for f in 0..self.flows.len() {
            if self.flows[f].check_timeout(now) {
                sched.immediately(Event::TrySend(f as u32));
            }
        }
        sched.after(self.cfg.rto_sweep, Event::RtoSweep);
    }

    /// A fault-plan transition fired: open a window, close one, or run an
    /// in-window tick (IOTLB-storm flush). `code` packs
    /// `(spec_index << 2) | phase`.
    fn handle_fault(&mut self, now: SimTime, code: u32, sched: &mut Scheduler<Event>) {
        let idx = (code >> 2) as usize;
        if self.faults_suppressed && code & 3 == 0 {
            // Counterfactual replay: drop the opening edge entirely. The
            // window never begins, so no closing edge or storm tick is
            // scheduled; windows already open before suppression still
            // close normally through their pre-scheduled end events.
            return;
        }
        match code & 3 {
            0 => {
                // Window opens. The closing edge is scheduled now; at equal
                // timestamps it was inserted before any storm tick, so the
                // wheel dispatches it first and ticks see a closed window.
                let kind = self.faults.begin(idx);
                self.recovery.on_window_start(now.as_nanos());
                self.telemetry.on_fault_window(now.as_nanos());
                let duration = self.faults.spec(idx).duration;
                match kind {
                    FaultKind::IotlbStorm { .. } => {
                        sched.immediately(Event::Fault(code | 2));
                    }
                    FaultKind::CorePreempt { cores } => {
                        // Deschedule the first `cores` receiver threads for
                        // the window: push their busy horizon out to its end.
                        let horizon = now + duration;
                        for t in 0..(cores as usize).min(self.core_free_at.len()) {
                            if self.core_free_at[t] < horizon {
                                let stolen_from = self.core_free_at[t].max(now);
                                self.faults.counters.preempt_ns +=
                                    horizon.saturating_since(stolen_from).as_nanos();
                                self.core_free_at[t] = horizon;
                            }
                        }
                    }
                    FaultKind::MemThrottle { .. } => {
                        self.faults.counters.throttle_windows += 1;
                    }
                    _ => {}
                }
                self.refresh_fault_aggregates(now);
                sched.after(duration, Event::Fault(code | 1));
                if self.tracer.is_enabled() {
                    self.tracer.record(TraceEvent::value(
                        now.as_nanos(),
                        Stage::FaultStart,
                        idx as f64,
                    ));
                }
            }
            1 => {
                let kind = self.faults.end(idx);
                self.recovery.on_window_end(now.as_nanos());
                self.refresh_fault_aggregates(now);
                if matches!(kind, FaultKind::DescriptorStall) && !self.fault_refill_stalled {
                    self.drain_deferred_refills(sched);
                }
                if self.tracer.is_enabled() {
                    self.tracer.record(TraceEvent::value(
                        now.as_nanos(),
                        Stage::FaultEnd,
                        idx as f64,
                    ));
                }
            }
            _ => {
                // Storm tick: flush, then rearm while the window is open.
                if self.faults.is_open(idx) {
                    if self.iommu.is_enabled() {
                        self.iommu.invalidate_all();
                        self.faults.counters.iotlb_flushes += 1;
                    }
                    if let FaultKind::IotlbStorm { flush_period } = self.faults.spec(idx).kind {
                        let period = flush_period.max(SimDuration::from_nanos(1));
                        sched.after(period, Event::Fault(code));
                    }
                }
            }
        }
    }

    /// Recompute the cached hot-path fault aggregates after a window edge.
    fn refresh_fault_aggregates(&mut self, now: SimTime) {
        self.fault_link_down = self.faults.link_down();
        self.fault_nak_rate = self.faults.nak_rate();
        self.fault_refill_stalled = self.faults.refill_stalled();
        let throttle = self.faults.throttle_factor();
        if throttle != self.fault_throttle {
            // Re-rate the memory stage immediately rather than waiting for
            // the next mem tick; the tick will keep it fresh afterwards.
            self.fault_throttle = throttle;
            self.mem_pipe
                .set_rate(now, (self.last_nic_avail * throttle).max(1.0));
        }
    }

    /// Post every refill deferred during a descriptor-stall window.
    fn drain_deferred_refills(&mut self, sched: &mut Scheduler<Event>) {
        let mut posted = false;
        for t in 0..self.fault_pending_refills.len() {
            while self.fault_pending_refills[t] > 0 && self.nic.queues[t].ring.free_slots() > 0 {
                match self.pools[t].alloc() {
                    Some(b) => {
                        self.nic.queues[t].ring.post(b);
                        self.fault_pending_refills[t] -= 1;
                        posted = true;
                    }
                    None => break,
                }
            }
            // Whatever could not be posted (ring full / pool drained) is
            // owed nothing further: the normal per-packet refill path
            // keeps the ring fed from here on.
            self.fault_pending_refills[t] = 0;
        }
        if posted {
            self.kick_dma_launch(sched);
        }
    }

    fn handle_mem_tick(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let dt = now.saturating_since(self.last_tick).as_secs_f64();
        if dt > 0.0 {
            // Measured NIC traffic: payload writes + page-walk reads (64 B
            // lines). The *demand* registered with the controller is
            // anchored at the NIC's line-rate potential: a hardware DMA
            // engine keeps issuing at its credit-limited pace regardless of
            // recent goodput, and anchoring prevents a measured-demand
            // death spiral (delivered rate dips -> controller hands the
            // antagonist more -> rate dips further).
            // DDIO: the fraction of DMA writes (and of the application's
            // copy reads) that actually reach DRAM depends on whether the
            // buffer working set fits the LLC slice.
            let hot_ws: u64 = self.pools.iter().map(|p| p.hot_set_bytes()).sum();
            let ddio_write = self.cfg.ddio.write_traffic_factor(hot_ws);
            let ddio_leak = self.cfg.ddio.leak_fraction(hot_ws);
            self.ddio_leak = ddio_leak;
            let nic_rate =
                (self.window_payload as f64 * ddio_write + self.window_walks as f64 * 64.0) / dt;
            let app_rate =
                self.window_payload as f64 * self.cfg.app_copy_read_fraction * ddio_leak / dt;
            self.nic_demand.record(nic_rate);
            self.app_demand.record(app_rate);
            let nic_potential = (self.cfg.access_link_bps / 8.0).max(self.nic_demand.get());
            self.mem.set_demand(self.nic_agent, nic_potential);
            self.mem.set_demand(self.app_agent, self.app_demand.get());

            // The memory stage of the DMA pipeline drains at whatever the
            // bus leaves for the NIC after CPU-class agents take their
            // (weighted) shares: an idle bus gives DMA its full burst
            // bandwidth, a saturated one squeezes it toward its protected
            // share.
            let capacity = self.cfg.memsys.achievable_bytes_per_sec();
            let cpu_alloc =
                self.antagonist.achieved(&mut self.mem) + self.mem.allocation(self.app_agent);
            let nic_avail = (capacity - cpu_alloc).max(2e9);
            self.last_nic_avail = nic_avail;
            // An open throttle window multiplies the NIC's grant. The
            // guard keeps the zero-fault path free of any f64 op, so its
            // grants stay bit-identical to a build without the fault layer.
            let granted = if self.fault_throttle == 1.0 {
                nic_avail
            } else {
                nic_avail * self.fault_throttle
            };
            self.mem_pipe.set_rate(now, granted);
            // The latency-model inputs (demands, DDIO leak) just changed;
            // re-derive the cached per-DMA terms. Explicit because a
            // leak-only change does not bump the demand epoch.
            self.refresh_latency_cache();

            if self.metrics.armed {
                // Report *measured* traffic (Fig. 6 top panel), not the
                // anchored potential.
                let cpu_side =
                    self.antagonist.achieved(&mut self.mem) + self.mem.allocation(self.app_agent);
                self.metrics.mem_bw_sum += cpu_side + self.nic_demand.get();
                self.metrics.nic_bw_sum += granted;
                self.metrics.mem_bw_samples += 1;
                let since = now.saturating_since(self.metrics.started).as_nanos();
                self.metrics
                    .occupancy_samples
                    .push((since, self.nic.input.occupancy_bytes()));
            }
            if self.timeline.is_enabled() {
                let t = now.as_nanos();
                self.timeline.offer(
                    "nic.buffer_bytes",
                    t,
                    self.nic.input.occupancy_bytes() as f64,
                );
                self.timeline
                    .offer("nic.mem_bandwidth_bytes_per_sec", t, granted);
                self.timeline.offer(
                    "switch.backlog_us",
                    t,
                    self.switch.backlog_delay(now).as_micros_f64(),
                );
                self.timeline
                    .offer("pcie.credit_stalls", t, self.credits.stalls() as f64);
                let mean_cwnd =
                    self.flows.iter().map(|f| f.cwnd()).sum::<f64>() / self.flows.len() as f64;
                self.timeline.offer("cc.mean_cwnd", t, mean_cwnd);
            }
        }
        // Recovery goodput sampling rides the mem tick: the delivered-byte
        // delta since the last tick is attributed to the before / during /
        // after phase by the tracker's open-window state.
        if !self.cfg.faults.is_empty() && self.metrics.armed {
            let delivered = self.metrics.delivered_payload_bytes;
            let delta = delivered - self.last_delivered_bytes;
            self.last_delivered_bytes = delivered;
            self.recovery.sample(now.as_nanos(), delta);
        }
        self.window_payload = 0;
        self.window_walks = 0;
        self.last_tick = now;
        sched.after(self.cfg.mem_tick, Event::MemTick);
    }

    /// Telemetry sampling tick: read the datapath's gauges and lifetime
    /// counters, hand them to the sampler (which stores per-window
    /// deltas, runs the episode detector and streams to the sink), and
    /// re-arm. Every read is observational — the memory-system calls are
    /// pure memoization — so sampling cannot perturb the run.
    fn handle_telemetry_tick(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let min_ring_free = self
            .nic
            .queues
            .iter()
            .map(|q| q.ring.free_slots())
            .min()
            .unwrap_or(0);
        let tlb = self.iommu.iotlb_stats();
        let inputs = SignalInputs {
            buffer_occupancy_bytes: self.nic.input.occupancy_bytes(),
            buffer_capacity_bytes: self.nic.input.capacity_bytes(),
            min_ring_free,
            delivered_total: self.nic.stats.delivered_packets,
            drops_total: self.nic.stats.total_drops(),
            credit_stalls_total: self.credits.stalls(),
            iotlb_lookups_total: tlb.lookups,
            iotlb_misses_total: tlb.misses,
            walks_total: self.iommu.stats().walk_memory_accesses,
            mem_util: self.mem.utilization(),
            mem_latency_ns: self.mem.access_latency_ns(),
        };
        self.telemetry.sample(now.as_nanos(), inputs);
        sched.after(
            SimDuration::from_nanos(self.telemetry.interval_ns()),
            Event::TelemetryTick,
        );
    }
}

impl World for Testbed {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::TrySend(f) => self.handle_try_send(now, f, sched),
            Event::AtSwitch(p) => self.handle_at_switch(now, p, sched),
            Event::AtNic(p) => self.handle_at_nic(now, p, sched),
            Event::DmaLaunch => self.handle_dma_launch(now, sched),
            Event::DmaComplete(j) => self.handle_dma_complete(now, j, sched),
            Event::CpuDone(j) => self.handle_cpu_done(now, j, sched),
            Event::DmaChain(j) => self.handle_dma_chain(now, j, sched),
            Event::AckToSender {
                flow,
                ack,
                frontier,
            } => self.handle_ack(now, flow, ack, frontier, sched),
            Event::RtoSweep => self.handle_rto_sweep(now, sched),
            Event::MemTick => self.handle_mem_tick(now, sched),
            Event::Fault(code) => self.handle_fault(now, code, sched),
            Event::TelemetryTick => self.handle_telemetry_tick(now, sched),
            Event::RemoteArrival => self.handle_remote_arrival(now, sched),
        }
    }
}

/// A ready-to-run simulation: the engine plus its started world.
pub struct Simulation {
    engine: Engine<Testbed>,
}

hostcc_sim::snap_fields!(Simulation { engine });

/// Progress watchdog threshold: consecutive same-timestamp dispatches
/// before the engine gives up with [`RunOutcome::Stalled`]. The testbed's
/// legitimate zero-time bursts (DMA launch cascades, ACK fan-out) stay in
/// the hundreds even at full scale; a million same-instant events means
/// the clock has genuinely stopped advancing.
const STALL_LIMIT: u64 = 1_000_000;

impl Simulation {
    /// Build and start a testbed simulation. The event queue quantises
    /// timestamps to `cfg.resolution` at push, so coarse-time runs
    /// coalesce events onto shared wheel slots.
    pub fn new(cfg: TestbedConfig) -> Self {
        Self::from_testbed(Testbed::new(cfg))
    }

    /// Build and start a testbed simulation with tracing installed and
    /// engine wall-clock profiling enabled. The trace layer is purely
    /// observational: a traced run returns bit-identical [`RunMetrics`]
    /// to an untraced one.
    pub fn with_trace(cfg: TestbedConfig, trace: TraceConfig) -> Self {
        let mut testbed = Testbed::new(cfg);
        testbed.set_trace(trace);
        let mut sim = Simulation::from_testbed(testbed);
        sim.enable_profiling();
        sim
    }

    /// Build and start a simulation from an already-constructed testbed.
    /// The fleet builder needs this split: remote flows must be wired
    /// (`enable_fabric` + `add_remote_*`) *before* `start` schedules the
    /// initial send attempts.
    pub fn from_testbed(testbed: Testbed) -> Simulation {
        let mut sim = Simulation::unstarted(testbed);
        let Engine { world, sched, .. } = &mut sim.engine;
        world.start(sched);
        sim
    }

    // ---- checkpoint/restore ----
    //
    // A checkpoint is valid only at a slot boundary: `run_to` leaves the
    // clock exactly at its deadline with every event `<= deadline` already
    // dispatched, so the pending queue, the world and the clock are
    // mutually consistent and a restored run replays bit-identically.

    /// Stable fingerprint of a testbed configuration, written into every
    /// checkpoint so a restore against a different config fails typed
    /// instead of replaying garbage.
    pub fn config_fingerprint(cfg: &TestbedConfig) -> u64 {
        fnv1a_64(format!("{cfg:?}").as_bytes())
    }

    /// An unstarted simulation over `testbed` (built from the identical
    /// configuration and, for fleet hosts, the identical remote-flow
    /// wiring): the shell a checkpoint loads into through [`Snap`].
    /// Nothing is scheduled — the restored queue already holds the live
    /// timers, so `start` must not run.
    pub fn unstarted(testbed: Testbed) -> Simulation {
        let res = testbed.config().resolution;
        let mut engine = Engine::with_resolution(testbed, res);
        engine.stall_limit = Some(STALL_LIMIT);
        Simulation { engine }
    }

    /// Refuse (typed, not a panic) to checkpoint while the tracer or the
    /// timeline recorder is enabled: their in-memory buffers are
    /// diagnostics, not simulation state, and restoring without them
    /// would silently diverge from what the caller asked to record.
    pub fn ensure_checkpointable(&self) -> Result<(), SnapError> {
        let world = &self.engine.world;
        if world.tracer.is_enabled() || world.timeline.is_enabled() {
            return Err(SnapError::Unsupported("checkpoint with tracing enabled"));
        }
        Ok(())
    }

    /// Serialize the complete simulation — clock, pending events, world —
    /// into a self-validating envelope (header + checksum). Call only
    /// between [`run_to`](Self::run_to) slices. Refuses when
    /// [`ensure_checkpointable`](Self::ensure_checkpointable) does.
    pub fn save_checkpoint(&self) -> Result<Vec<u8>, SnapError> {
        self.ensure_checkpointable()?;
        let mut w = SnapWriter::new();
        w.u64(Self::config_fingerprint(self.engine.world.config()));
        self.save(&mut w);
        Ok(w.into_envelope())
    }

    /// Rebuild a simulation from a checkpoint envelope and the identical
    /// configuration the checkpointed run was built from. Any corruption,
    /// truncation, version mismatch or config mismatch is a typed
    /// [`SnapError`]. Debug builds also re-save the restored simulation
    /// and require the identical image.
    pub fn restore_checkpoint(cfg: TestbedConfig, bytes: &[u8]) -> Result<Simulation, SnapError> {
        let mut r = SnapReader::open(bytes)?;
        if r.u64()? != Self::config_fingerprint(&cfg) {
            return Err(SnapError::Corrupt("config fingerprint mismatch"));
        }
        let mut sim = Simulation::unstarted(Testbed::new(cfg));
        sim.load(&mut r)?;
        r.finish()?;
        check_resave(bytes, || sim.save_checkpoint().unwrap_or_default())?;
        Ok(sim)
    }

    /// Enable engine wall-clock dispatch profiling (events/sec) without
    /// installing any tracing. Profiling never perturbs the simulation.
    pub fn enable_profiling(&mut self) {
        self.engine.enable_profiling();
    }

    /// Direct access to the world (inspection in tests/harnesses).
    pub fn world(&self) -> &Testbed {
        &self.engine.world
    }

    /// Mutable access to the world (counter collection, trace control).
    pub fn world_mut(&mut self) -> &mut Testbed {
        &mut self.engine.world
    }

    /// Engine dispatch statistics (Some only after
    /// [`Self::enable_profiling`] / [`Simulation::with_trace`]).
    pub fn profile(&self) -> Option<DispatchProfile> {
        self.engine.profile()
    }

    /// Events dispatched by the engine over the simulation's lifetime.
    pub fn dispatched_total(&self) -> u64 {
        self.engine.sched.dispatched_total()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Advance the simulation by `d` without arming or snapshotting
    /// metrics. For harnesses that need a side-effect-free steady-state
    /// segment — e.g. the allocation-count bench, where armed metrics
    /// would push occupancy samples and pollute the allocator counters.
    pub fn advance(&mut self, d: SimDuration) {
        let t0 = self.engine.now();
        self.engine.run_until(t0 + d);
    }

    /// Run all events with `t <= deadline` (inclusive) and leave the
    /// clock at exactly `deadline` — the epoch-slice primitive the
    /// parallel engine drives. Repeated calls with non-decreasing
    /// deadlines replay exactly what one big `run_until` would have.
    pub fn run_to(&mut self, deadline: SimTime) -> RunOutcome {
        self.engine.run_until(deadline)
    }

    /// Timestamp of the earliest pending event (`None` when idle).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.engine.sched.peek_time()
    }

    /// Schedule `ev` at absolute time `t` (clamped to now, like all
    /// scheduling). The parallel engine injects `RemoteArrival`s here.
    pub fn schedule_at(&mut self, t: SimTime, ev: Event) {
        self.engine.sched.at(t, ev);
    }

    /// Run `warmup` of simulated time to reach steady state, then measure
    /// for `measure` and return the metrics — or a typed error when the
    /// progress watchdog detects a stalled clock. This is the panic-free
    /// entry point `experiment::run` builds on.
    pub fn try_run(
        &mut self,
        warmup: SimDuration,
        measure: SimDuration,
    ) -> Result<RunMetrics, RunError> {
        let t0 = self.engine.now();
        let warm = self.engine.run_until(t0 + warmup);
        self.check_outcome(warm)?;
        let t1 = self.engine.now();
        self.engine.world.arm_metrics(t1);
        let meas = self.engine.run_until(t1 + measure);
        self.check_outcome(meas)?;
        let t2 = self.engine.now();
        Ok(self.engine.world.snapshot(t2))
    }

    fn check_outcome(&mut self, outcome: RunOutcome) -> Result<(), RunError> {
        match outcome {
            RunOutcome::Stalled { at } => {
                let pending = self.engine.sched.pending();
                // Fire the flight recorder (the samples leading into the
                // stall) and carry the final signals on the error itself,
                // so a tripped watchdog is diagnosable without re-running.
                self.engine.world.telemetry.on_stall(at.as_nanos());
                Err(RunError::Stalled {
                    at,
                    pending,
                    host: None,
                    shard: None,
                    telemetry: self.engine.world.telemetry.last_sample().map(Box::new),
                })
            }
            _ => Ok(()),
        }
    }

    /// Run and panic on a watchdog stall (the convenient form for tests
    /// and harnesses that construct configs known to make progress).
    pub fn run(&mut self, warmup: SimDuration, measure: SimDuration) -> RunMetrics {
        self.try_run(warmup, measure)
            .expect("simulation run failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TestbedConfig {
        TestbedConfig {
            senders: 4,
            receiver_threads: 2,
            ..TestbedConfig::default()
        }
    }

    #[test]
    fn simulation_moves_data() {
        let mut sim = Simulation::new(small_cfg());
        let m = sim.run(SimDuration::from_millis(2), SimDuration::from_millis(5));
        assert!(m.delivered_packets > 100, "packets {}", m.delivered_packets);
        assert!(
            m.app_throughput_gbps() > 1.0,
            "tp {}",
            m.app_throughput_gbps()
        );
        assert!(m.drops_fabric == 0 || m.drops_fabric < m.delivered_packets / 100);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(small_cfg());
            let m = sim.run(SimDuration::from_millis(1), SimDuration::from_millis(3));
            (
                m.delivered_packets,
                m.delivered_payload_bytes,
                m.host_drops(),
                m.iotlb_misses,
            )
        };
        assert_eq!(run(), run(), "same seed must give identical results");
    }

    #[test]
    fn two_receiver_cores_are_cpu_bound() {
        // With 2 cores at 2.85us/pkt the ceiling is ~2*0.35M pkts/s
        // = ~23 Gbps; the CPU (not the link) must be the bottleneck.
        let mut sim = Simulation::new(TestbedConfig {
            senders: 8,
            receiver_threads: 2,
            ..TestbedConfig::default()
        });
        let m = sim.run(SimDuration::from_millis(10), SimDuration::from_millis(20));
        let tp = m.app_throughput_gbps();
        assert!(
            (14.0..26.0).contains(&tp),
            "2 cores should deliver ~20-23 Gbps, got {tp}"
        );
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        // Uninterrupted run.
        let mut base = Simulation::new(small_cfg());
        let m0 = base.run(SimDuration::from_millis(1), SimDuration::from_millis(2));

        // Same run, checkpointed mid-measurement and restored.
        let mut sim = Simulation::new(small_cfg());
        let t0 = sim.now();
        sim.run_to(t0 + SimDuration::from_millis(1));
        let t1 = sim.now();
        sim.world_mut().arm_metrics(t1);
        sim.run_to(t1 + SimDuration::from_millis(1));
        let bytes = sim.save_checkpoint().unwrap();
        drop(sim);
        let mut back = Simulation::restore_checkpoint(small_cfg(), &bytes).unwrap();
        assert_eq!(back.now(), t1 + SimDuration::from_millis(1));
        back.run_to(t1 + SimDuration::from_millis(2));
        let t2 = back.now();
        let m1 = back.world_mut().snapshot(t2);

        assert_eq!(m0.delivered_packets, m1.delivered_packets);
        assert_eq!(m0.delivered_payload_bytes, m1.delivered_payload_bytes);
        assert_eq!(m0.host_drops(), m1.host_drops());
        assert_eq!(m0.iotlb_misses, m1.iotlb_misses);
        assert_eq!(m0.retransmits, m1.retransmits);
        assert_eq!(m0.host_delay.p99(), m1.host_delay.p99());
        assert_eq!(m0.rtt.p50(), m1.rtt.p50());
        assert_eq!(m0.occupancy_samples, m1.occupancy_samples);
        assert_eq!(m0.mean_cwnd, m1.mean_cwnd);
    }

    #[test]
    fn checkpoint_refused_with_tracing() {
        let mut cfg = small_cfg();
        cfg.senders = 2;
        let sim = Simulation::with_trace(cfg, TraceConfig::enabled(4096));
        assert!(matches!(
            sim.save_checkpoint(),
            Err(hostcc_sim::SnapError::Unsupported(_))
        ));
    }

    #[test]
    fn corrupt_checkpoint_is_typed_error() {
        let mut sim = Simulation::new(small_cfg());
        let t0 = sim.now();
        sim.run_to(t0 + SimDuration::from_millis(1));
        let mut bytes = sim.save_checkpoint().unwrap();
        // Flip a payload byte: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(Simulation::restore_checkpoint(small_cfg(), &bytes).is_err());
        bytes[mid] ^= 0x40;
        // Truncation: typed error, not a panic.
        let cut = &bytes[..bytes.len() - 7];
        assert!(Simulation::restore_checkpoint(small_cfg(), cut).is_err());
        // Config mismatch: typed error.
        let other = TestbedConfig {
            senders: 5,
            receiver_threads: 2,
            ..TestbedConfig::default()
        };
        assert!(matches!(
            Simulation::restore_checkpoint(other, &bytes),
            Err(hostcc_sim::SnapError::Corrupt(
                "config fingerprint mismatch"
            ))
        ));
        // Pristine envelope still restores.
        assert!(Simulation::restore_checkpoint(small_cfg(), &bytes).is_ok());
    }

    #[test]
    fn iommu_off_beats_iommu_on_at_many_cores() {
        let mk = |enabled: bool| {
            let mut cfg = TestbedConfig {
                receiver_threads: 14,
                ..TestbedConfig::default()
            };
            cfg.iommu.enabled = enabled;
            let mut sim = Simulation::new(cfg);
            sim.run(SimDuration::from_millis(10), SimDuration::from_millis(20))
        };
        let off = mk(false);
        let on = mk(true);
        assert!(
            on.iotlb_misses_per_packet() > 0.5,
            "misses/pkt {}",
            on.iotlb_misses_per_packet()
        );
        assert!(off.iotlb_misses == 0);
        assert!(
            off.app_throughput_gbps() > on.app_throughput_gbps(),
            "off {} should beat on {}",
            off.app_throughput_gbps(),
            on.app_throughput_gbps()
        );
    }
}

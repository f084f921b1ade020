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

mod demand;
mod dma_path;
mod fault_path;
mod receiver;
mod senders;

use crate::config::TestbedConfig;
use crate::error::RunError;
use crate::metrics::{MetricsCollector, RunMetrics};
use demand::DemandWindow;
use dma_path::{DmaPath, Launcher};
use fault_path::FaultPath;
use hostcc_fabric::{
    EnqueueOutcome, FlowId, GenSlab, Packet, PacketRef, PacketStore, SlabRef, SwitchPort, WireMsg,
};
use hostcc_faults::{FaultKind, FaultState};
use hostcc_mem::{Iova, PageSize};
use hostcc_nic::Nic;
use hostcc_sim::{
    check_resave, decode, fnv1a_64, DispatchProfile, Engine, Envelope, RunOutcome, Scheduler,
    SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter, World,
};
use hostcc_telemetry::Telemetry;
use hostcc_trace::{CounterRegistry, Stage, TimelineRecorder, TraceConfig, TraceEvent, Tracer};
use receiver::{Ctrl, Receiver};
use senders::Senders;

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
/// NIC-to-ACK lifecycle. The per-packet PCIe credit cost is a run
/// constant of the PCIe/IOMMU/memory path, so the job does not repeat it.
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

/// The complete simulated testbed (implements [`World`]).
///
/// The datapath is split into stages that each own their state, in the
/// paper's pipeline order: the senders with the fleet's fabric port, the
/// PCIe/IOMMU/memory path (plus its DMA launcher), the receiver stack,
/// the memory-demand window and the fault path (DESIGN.md, "Testbed
/// stages"). The switch, the packet and DMA slabs and the NIC are shared
/// by several stages and stay here, next to the observation sinks. The
/// event handlers are the seams between stages.
pub struct Testbed {
    cfg: TestbedConfig,
    senders: Senders,
    switch: SwitchPort,
    /// Every live packet, from `TrySend` until its ACK is consumed at the
    /// sender (or it drops). Events and queues carry `PacketRef` handles.
    store: PacketStore,
    /// DMA jobs in flight between admission and `CpuDone`.
    dma: GenSlab<DmaJob>,
    nic: Nic,
    path: DmaPath,
    receiver: Receiver,
    demand: DemandWindow,
    launcher: Launcher,
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
    /// Flow `(retransmits, timeouts)` totals when metrics were armed.
    armed_totals: (u64, u64),
    /// Open-window bookkeeping + fault counters (empty-plan: all idle).
    pub faults: FaultState,
    fault_path: FaultPath,
}

// The checkpoint image: every piece of evolving state, stage by stage in
// this order (nested stage lists write no framing, so this is also the
// byte layout). Configuration and the tracing buffers are skipped: a
// restore loads into a testbed freshly built from the identical config
// (and, in a fleet, the same remote-flow wiring), so shape-fixed
// containers must match it.
hostcc_sim::snap_fields!(Testbed {
    senders, switch, store, dma, nic, path, receiver, demand, launcher, metrics, counters,
    telemetry, armed_totals, faults, fault_path,
} skip { cfg, tracer, timeline } check { Testbed::check_restored });

impl Testbed {
    /// Build the testbed from a configuration. Registers all memory
    /// regions, pre-posts descriptor rings and creates every flow.
    pub fn new(cfg: TestbedConfig) -> Self {
        let demand = DemandWindow::new();
        let mut path = DmaPath::new(&cfg, demand.ddio_leak());
        let mut nic = Nic::new(cfg.nic.clone());
        let receiver = Receiver::new(&cfg, path.page_table_mut(), &mut nic);
        let n_flows = (cfg.senders * cfg.receiver_threads) as usize;
        Testbed {
            senders: Senders::new(&cfg),
            switch: SwitchPort::new(
                cfg.access_link_bps,
                cfg.hop_propagation,
                cfg.switch_buffer_bytes,
                cfg.ecn_threshold_bytes,
            ),
            // Slab working sets: packets in flight are bounded by the
            // flows' aggregate windows plus queued buffers; DMA jobs by
            // the credit window times threads. Both slabs grow to the real
            // peak and then recycle; these pre-sizes skip early doublings.
            store: PacketStore::with_capacity(1024.max(n_flows * 16)),
            dma: GenSlab::with_capacity(256),
            nic,
            path,
            receiver,
            demand,
            launcher: Launcher::new(&cfg),
            metrics: MetricsCollector::new(),
            tracer: Tracer::disabled(),
            counters: CounterRegistry::new(),
            timeline: TimelineRecorder::disabled(),
            telemetry: Telemetry::new(cfg.telemetry),
            armed_totals: (0, 0),
            faults: FaultState::new(&cfg.faults),
            fault_path: FaultPath::new(&cfg),
            cfg,
        }
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
        self.senders.start(sched);
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

    // ---- fleet wiring (all calls happen before `start`) ----

    /// Attach this testbed to the inter-host fabric as `host_id`, with
    /// the given minimum crossing latency (the parallel engine's
    /// lookahead). Must precede any `add_remote_*` call.
    pub fn enable_fabric(&mut self, host_id: u32, latency: SimDuration) {
        self.senders.enable_fabric(host_id, latency);
    }

    /// Flow index the next `add_remote_*` call will allocate. The fleet
    /// builder reads this on the *sender* host before wiring the receiver
    /// side, so the receiver knows the return address up front.
    pub fn next_remote_flow(&self) -> u32 {
        self.senders.next_remote_flow()
    }

    /// Whether this testbed can ever emit a fabric envelope: it is
    /// attached to the fabric *and* has at least one remote flow wired.
    /// The fleet layer uses this to withdraw send-free hosts from the
    /// parallel engine's epoch bound (super-epoch batching) — the answer
    /// is fixed once `start` runs, so it is a sound promise.
    pub fn coupled(&self) -> bool {
        self.senders.coupled()
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
        self.senders
            .add_remote_receiver(&self.cfg, src_host, src_flow, thread)
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
        self.senders
            .add_remote_sender(&self.cfg, dst_host, dst_flow_id, initial_frontier)
    }

    /// Move every envelope emitted since the last drain into `out`
    /// (parallel-engine send phase). No-op outside a fleet.
    pub fn take_outbound(&mut self, out: &mut Vec<Envelope<WireMsg>>) {
        self.senders.take_outbound(out);
    }

    /// Queue an inbound fabric message; the caller schedules the matching
    /// [`Event::RemoteArrival`] at the envelope's fire time.
    pub fn push_inbound(&mut self, msg: WireMsg) {
        self.senders.push_inbound(msg);
    }

    /// Suppress fault windows that have not yet opened (campaign bisect's
    /// counterfactual replay: "what would this run have done without the
    /// fault?"). Windows already open keep their scheduled closing edge.
    /// Transient: the flag is never serialized, so a checkpoint saved
    /// after suppression restores with faults active again.
    pub fn suppress_faults(&mut self) {
        self.fault_path.suppress();
    }

    // ---- observation ----

    /// Begin measurement (discard warm-up counts). Also baselines the
    /// counter registry so `since_baseline` reports the measurement
    /// interval, mirroring the headline metrics.
    pub fn arm_metrics(&mut self, now: SimTime) {
        self.metrics.arm(now);
        self.nic.input.reset_peak();
        let flows = self.senders.stats();
        self.armed_totals = (flows.retransmits, flows.timeouts);
        if !self.cfg.faults.is_empty() {
            // Recovery goodput is measured over the same interval as the
            // headline metrics.
            self.fault_path.arm(now, &self.faults);
        }
        self.collect_counters();
        self.counters.mark_baseline();
    }

    /// Snapshot metrics at `now`.
    pub fn snapshot(&mut self, now: SimTime) -> RunMetrics {
        let mut m =
            self.metrics
                .snapshot(now, self.nic.input.peak_bytes(), self.senders.mean_cwnd());
        let flows = self.senders.stats();
        m.retransmits = flows.retransmits - self.armed_totals.0;
        m.timeouts = flows.timeouts - self.armed_totals.1;
        if !self.cfg.faults.is_empty() {
            m.faults = Some(self.fault_path.summary(&self.faults));
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
        self.path.collect_counters(&mut self.counters);
        self.counters.collect(&self.senders.stats());
        // Fault counters only exist in the registry when a plan is present:
        // a zero-fault run's counter export must stay byte-identical to a
        // build without the fault layer.
        if !self.cfg.faults.is_empty() {
            self.counters.collect(&self.faults.counters);
            self.fault_path.collect_counters(&mut self.counters);
        }
    }

    /// Per-flow progress: (cumulative bytes ACKed at the sender, packets
    /// delivered in order at the receiver). Chaos tests diff two readings
    /// to prove no flow is permanently stalled after a fault window.
    pub fn flow_progress(&self) -> Vec<(u64, u64)> {
        self.senders.progress()
    }

    /// After a restore: the per-thread vectors of every stage must match
    /// the receiver stack's thread count, and the path's latency caches
    /// are re-derived from the restored memory state.
    fn check_restored(&mut self) -> Result<(), SnapError> {
        let threads = self.receiver.threads();
        if self.launcher.threads() != threads {
            return Err(SnapError::Corrupt("unfused inflight count mismatch"));
        }
        if self.fault_path.threads() != threads {
            return Err(SnapError::Corrupt("pending refill count mismatch"));
        }
        self.path
            .refresh_latency_cache(&self.cfg, self.demand.ddio_leak());
        Ok(())
    }

    // ---- event handlers ----

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
        if self.fault_path.link_down() {
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
            self.launcher.kick(sched);
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

    /// Admit queued packets into the DMA pipeline while credits last.
    fn handle_dma_launch(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.launcher.launching();
        self.path
            .refresh_if_stale(&self.cfg, self.demand.ddio_leak());
        while !self.nic.input.is_empty() {
            if !self.path.credits_available() {
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
            self.path.admit_write();

            // Steps 3-5: translate the descriptor fetch, payload write and
            // completion write; all contribute IOTLB pressure. Ring
            // accesses land on the hot pages of their structures.
            let desc_iova = self.receiver.next_ctrl_iova(thread, Ctrl::Ring);
            let cq_iova = self.receiver.next_ctrl_iova(thread, Ctrl::Cq);
            self.nic.queues[thread].cq.push();
            let cost = self.path.translate(
                [
                    (desc_iova, self.cfg.nic.desc_bytes, PageSize::Size4K),
                    (desc.buffer, payload, self.cfg.data_page),
                    (cq_iova, self.cfg.nic.cqe_bytes, PageSize::Size4K),
                ],
                &mut self.metrics,
                &mut self.demand,
            );
            // Step 6: the write through PCIe and the memory bus.
            let (mut pcie_ns, mem_ns, iommu_ns) =
                self.path
                    .write(now, payload, &cost, self.demand.ddio_leak(), &self.cfg);
            pcie_ns += self.fault_path.nak_delay();
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
            self.launcher.schedule(
                job,
                thread,
                done,
                &mut self.receiver,
                self.cfg.resolution,
                sched,
            );
        }
    }

    /// A DMA write retired: its credits return (kicking the launcher) and
    /// its payload joins the memory-demand window. Returns the job's
    /// receiver thread.
    fn retire_dma(&mut self, job: DmaRef, sched: &mut Scheduler<Event>) -> usize {
        self.path.release_write();
        self.launcher.kick(sched);
        let j = self.dma.get(job);
        self.demand
            .add_payload(self.store.get(j.pkt).payload_bytes as u64);
        j.thread as usize
    }

    fn handle_dma_complete(&mut self, now: SimTime, job: DmaRef, sched: &mut Scheduler<Event>) {
        let thread = self.retire_dma(job, sched);
        self.launcher.retire(thread);
        // Step 7: a dedicated receiver core processes the packet.
        let done = self.receiver.run_core(thread, now);
        sched.at(done, Event::CpuDone(job));
    }

    /// Fused DMA chain: the DMA retired at `now` and the receiver core —
    /// reserved for this packet at launch — finishes one per-packet cost
    /// later. The CPU-done handler runs with that reserved completion
    /// instant as its logical timestamp.
    fn handle_dma_chain(&mut self, now: SimTime, job: DmaRef, sched: &mut Scheduler<Event>) {
        self.retire_dma(job, sched);
        self.handle_cpu_done(now + self.receiver.per_pkt_cost(), job, sched);
    }

    /// Receiver-core completion at logical time `now`: its own `CpuDone`
    /// event on the unfused path, or inline from a fused chain — where
    /// the engine clock still reads the DMA-retire instant and `now` is
    /// the core's reserved finish time, strictly in the future.
    /// Everything time-stamped here (stage decomposition, telemetry, the
    /// ACK's departure) uses `now`, so both paths agree on when
    /// processing finished.
    fn handle_cpu_done(&mut self, now: SimTime, job: DmaRef, sched: &mut Scheduler<Event>) {
        // The packet's host lifecycle ends here: both slab entries retire
        // (free returns the final value by copy), and only the ACK —
        // allocated below — survives into the return path.
        let job = self.dma.free(job);
        let pkt = self.store.free(job.pkt);
        let t = job.thread as usize;

        let (f, ack_seq, fresh) = self.senders.deliver(&pkt);
        if fresh {
            self.nic.stats.delivered_packets += 1;
            self.nic.stats.delivered_payload_bytes += pkt.payload_bytes as u64;
            if self.metrics.armed {
                self.metrics.delivered_packets += 1;
                self.metrics.delivered_payload_bytes += pkt.payload_bytes as u64;
            }
        }

        self.path.unmap(job.buffer, &self.cfg);
        // Free the buffer and replenish the descriptor ring. During a
        // descriptor-stall window the refill is deferred instead: the ring
        // drains, packets drop descriptor-starved, and the backlog posts
        // when the window closes.
        let defer = self.fault_path.defer_refill(t, &mut self.faults);
        self.receiver.recycle(t, job.buffer, defer, &mut self.nic);

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
            for (at, stage, ns) in [
                (job.nic_arrival.as_nanos(), Stage::BufferWait, buffer_ns),
                (t0, Stage::PcieTransfer, job.pcie_ns),
                (t0 + job.pcie_ns, Stage::IommuTranslate, job.iommu_ns),
                (
                    t0 + job.pcie_ns + job.iommu_ns,
                    Stage::MemoryGrant,
                    job.mem_ns,
                ),
                (dma_done.as_nanos(), Stage::CpuProcess, cpu_ns),
            ] {
                self.tracer
                    .record(TraceEvent::span(at, stage, ns, flow, thread, seq));
            }
        }

        // ACK: the NIC DMA-reads the ACK from the thread's TX/ACK pool,
        // which cycles through its pages (one more IOTLB access per packet
        // over a multi-page working set).
        let ack_iova = self.receiver.next_ctrl_iova(t, Ctrl::Ack);
        let ack_bytes = self.cfg.wire.ack_wire_bytes as u64;
        self.path.translate(
            [(ack_iova, ack_bytes, PageSize::Size4K)],
            &mut self.metrics,
            &mut self.demand,
        );
        let mut ack = self.cfg.wire.ack_packet(&pkt, ack_seq, host_delay);
        // Echo the freshest host-congestion signal: the NIC input-buffer
        // occupancy at ACK-generation time (hardware telemetry a
        // host-aware protocol could read; §4's new congestion signal).
        ack.nic_buffer_frac =
            self.nic.input.occupancy_bytes() as f64 / self.nic.input.capacity_bytes() as f64;
        self.senders
            .send_ack(now, f, ack, &self.cfg, &mut self.store, sched);
    }

    /// ACK consumption at the sender. Local ACKs leave the packet store
    /// on dispatch; cross-host ones arrive by value.
    fn handle_ack(
        &mut self,
        now: SimTime,
        f: u32,
        ack: Packet,
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
        self.senders.on_ack(now, f, &ack, frontier, sched);
    }

    /// A cross-host message fires. Data joins the local datapath at the
    /// incast switch, exactly where a local sender's packet enters; ACKs
    /// take the shared consumption path without a store round-trip.
    fn handle_remote_arrival(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        match self.senders.pop_inbound() {
            WireMsg::Data(pkt) => {
                let pref = self.store.alloc(pkt);
                self.handle_at_switch(now, pref, sched);
            }
            WireMsg::Ack {
                flow,
                ack,
                frontier,
            } => self.handle_ack(now, flow, ack, frontier, sched),
        }
    }

    /// A fault-plan transition fired: open a window, close one, or run an
    /// in-window tick (IOTLB-storm flush). `code` packs
    /// `(spec_index << 2) | phase`.
    fn handle_fault(&mut self, now: SimTime, code: u32, sched: &mut Scheduler<Event>) {
        let idx = (code >> 2) as usize;
        if self.fault_path.suppressed() && code & 3 == 0 {
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
                self.telemetry.on_fault_window(now.as_nanos());
                let duration = self.faults.spec(idx).duration;
                match kind {
                    FaultKind::IotlbStorm { .. } => {
                        sched.immediately(Event::Fault(code | 2));
                    }
                    FaultKind::CorePreempt { cores } => {
                        // Deschedule the first `cores` receiver threads for
                        // the window: push their busy horizon out to its end.
                        self.faults.counters.preempt_ns +=
                            self.receiver.preempt(cores, now, now + duration);
                    }
                    FaultKind::MemThrottle { .. } => {
                        self.faults.counters.throttle_windows += 1;
                    }
                    _ => {}
                }
                self.fault_path
                    .edge(now, true, &self.faults, &mut self.path);
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
                self.fault_path
                    .edge(now, false, &self.faults, &mut self.path);
                if matches!(kind, FaultKind::DescriptorStall)
                    && !self.fault_path.refill_stalled()
                    && self
                        .fault_path
                        .drain_deferred_refills(&mut self.receiver, &mut self.nic)
                {
                    self.launcher.kick(sched);
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
                    if self.path.flush_iotlb() {
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

    /// Memory tick: close the demand window, re-grant the NIC's share of
    /// the memory bus, refresh the path's latency terms and sample.
    fn handle_mem_tick(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let dt = self.demand.elapsed(now);
        if dt > 0.0 {
            let hot_ws = self.receiver.hot_set_bytes();
            let (nic, app) = self.demand.measure(dt, hot_ws, &self.cfg);
            let nic_avail = self.path.grant_memory(nic, app, &self.cfg);
            let granted = self.fault_path.grant(nic_avail);
            self.path.set_memory_rate(now, granted);
            // The latency-model inputs (demands, DDIO leak) just changed;
            // re-derive the cached per-DMA terms. Explicit because a
            // leak-only change does not bump the demand epoch.
            self.path
                .refresh_latency_cache(&self.cfg, self.demand.ddio_leak());

            if self.metrics.armed {
                // Report *measured* traffic (Fig. 6 top panel), not the
                // anchored potential.
                self.metrics.mem_bw_sum += self.path.cpu_bandwidth() + self.demand.nic_demand();
                self.metrics.nic_bw_sum += granted;
                self.metrics.mem_bw_samples += 1;
                let since = now.saturating_since(self.metrics.started).as_nanos();
                self.metrics
                    .occupancy_samples
                    .push((since, self.nic.input.occupancy_bytes()));
            }
            if self.timeline.is_enabled() {
                for (series, value) in [
                    ("nic.buffer_bytes", self.nic.input.occupancy_bytes() as f64),
                    ("nic.mem_bandwidth_bytes_per_sec", granted),
                    (
                        "switch.backlog_us",
                        self.switch.backlog_delay(now).as_micros_f64(),
                    ),
                    ("pcie.credit_stalls", self.path.credit_stalls() as f64),
                    ("cc.mean_cwnd", self.senders.mean_cwnd()),
                ] {
                    self.timeline.offer(series, now.as_nanos(), value);
                }
            }
        }
        // Recovery goodput sampling rides the mem tick.
        if !self.cfg.faults.is_empty() && self.metrics.armed {
            self.fault_path
                .sample_recovery(now, self.metrics.delivered_payload_bytes);
        }
        self.demand.restart(now);
        sched.after(self.cfg.mem_tick, Event::MemTick);
    }

    /// Telemetry sampling tick: hand the datapath's gauges and lifetime
    /// counters to the sampler (which stores per-window deltas, runs the
    /// episode detector and streams to the sink), and re-arm.
    fn handle_telemetry_tick(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let inputs = self.path.signals(&self.nic);
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
            Event::TrySend(f) => {
                self.senders
                    .try_send(now, f, &self.cfg, &mut self.store, &mut self.metrics, sched)
            }
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
            } => {
                // The ACK is consumed at the sender; its slab entry retires.
                let ack = self.store.free(ack);
                self.handle_ack(now, flow, ack, frontier, sched);
            }
            Event::RtoSweep => {
                self.senders.rto_sweep(now, sched);
                sched.after(self.cfg.rto_sweep, Event::RtoSweep);
            }
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

//! Senders stage: sender flows and their access links, the receiver-side
//! flow state and RPC read channels, and — in a fleet — the inter-host
//! fabric port with the remote flow slots wired through it.

use super::Event;
use crate::cc::CongestionControl;
use crate::config::{CcKind, TestbedConfig};
use crate::dctcp::Dctcp;
use crate::fixed::FixedWindow;
use crate::flow::{FlowStats, ReceiverFlow, SendBlocked, SenderFlow};
use crate::host_aware::HostAware;
use crate::interhost::WireMsg;
use crate::link::Link;
use crate::metrics::MetricsCollector;
use crate::packet::{FlowId, Packet};
use crate::rpc::{RpcConfig, RpcReadChannel};
use crate::store::PacketStore;
use crate::swift::{Swift, SwiftConfig};
use hostcc_sim::{Envelope, Scheduler, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Build one flow's congestion controller, drawing the target-dispersion
/// scale from `rng` (shared by local flows and fleet sender slots, so
/// remote flows get the same CC diversity and the draw sequence stays
/// fixed).
fn build_cc(cfg: &TestbedConfig, rng: &mut SimRng) -> Box<dyn CongestionControl> {
    let cwnd = cfg.flow.initial_cwnd;
    let mut disperse = |sc: &mut SwiftConfig| {
        let d = cfg.target_dispersion.clamp(0.0, 0.9);
        let scale = 1.0 - d + 2.0 * d * rng.next_f64();
        sc.fabric_base_target = sc.fabric_base_target.mul_f64(scale);
        sc.fs_range = sc.fs_range.mul_f64(scale);
    };
    match &cfg.cc {
        CcKind::Swift(sc) => {
            let mut sc = sc.clone();
            disperse(&mut sc);
            Box::new(Swift::new(sc, cwnd))
        }
        CcKind::HostAware(hc) => {
            let mut hc = hc.clone();
            disperse(&mut hc.swift);
            Box::new(HostAware::new(hc, cwnd))
        }
        CcKind::Dctcp(dc) => Box::new(Dctcp::new(dc.clone(), cwnd)),
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
/// from `rng`.
fn build_sender_link(cfg: &TestbedConfig, rng: &mut SimRng) -> Link {
    let spread = cfg.propagation_spread.clamp(0.0, 0.95);
    let factor = 1.0 - spread + 2.0 * spread * rng.next_f64();
    Link::new(cfg.sender_link_bps, cfg.hop_propagation.mul_f64(factor))
}

/// Role of a virtual flow slot appended by fleet wiring. Slot `k`
/// (flow index `senders * receiver_threads + k`) owns virtual sender id
/// `senders + k`, so the per-sender vectors stay uniformly indexed.
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
/// branch there.
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
    inbox: VecDeque<WireMsg>,
}

// Identity and latency are topology; the sequence counter and the staged
// messages evolve.
hostcc_sim::snap_fields!(FabricPort { wire_seq, outbox, inbox } skip { host_id, latency });

/// The senders stage. Flow index `f` addresses the parallel per-flow
/// vectors: local flows are `sender * threads + thread`, fleet slots
/// follow from [`base_flows`](Self::base_flows) on.
pub(crate) struct Senders {
    /// The workload RNG: per-connection draws at build and wiring, ACK
    /// return-path jitter at run time.
    rng: SimRng,
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
    /// Local senders and receiver threads: the flow grid's shape.
    senders: u32,
    threads: u32,
}

// Flow identities, remote roles and the grid shape are topology: a
// restore loads into a testbed built (and, in a fleet, wired) the same.
hostcc_sim::snap_fields!(Senders {
    rng, flows, sender_links, recv_flows, rpc, fabric,
} skip { flow_ids, remote, senders, threads });

impl Senders {
    /// One flow per (sender, receiver thread), each with its sampled read
    /// size and CC, then one access link per sender — in that draw order.
    pub(crate) fn new(cfg: &TestbedConfig) -> Senders {
        let mut rng = SimRng::new(cfg.seed);
        let n_flows = (cfg.senders * cfg.receiver_threads) as usize;
        let mut flows = Vec::with_capacity(n_flows);
        let mut flow_ids = Vec::with_capacity(n_flows);
        let mut recv_flows = Vec::with_capacity(n_flows);
        let mut rpc = Vec::with_capacity(n_flows);
        for sender in 0..cfg.senders {
            for thread in 0..cfg.receiver_threads {
                let ch = RpcReadChannel::new(sample_rpc_cfg(cfg, &mut rng));
                let mut f = SenderFlow::new(cfg.flow.clone(), build_cc(cfg, &mut rng));
                f.set_data_frontier(ch.data_frontier());
                flows.push(f);
                flow_ids.push(FlowId { sender, thread });
                recv_flows.push(ReceiverFlow::new());
                rpc.push(ch);
            }
        }
        let sender_links = (0..cfg.senders)
            .map(|_| build_sender_link(cfg, &mut rng))
            .collect();
        Senders {
            rng,
            flows,
            flow_ids,
            sender_links,
            recv_flows,
            rpc,
            remote: Vec::new(),
            fabric: None,
            senders: cfg.senders,
            threads: cfg.receiver_threads,
        }
    }

    /// Schedule every transmitting flow's first send attempt, slightly
    /// desynchronised.
    pub(crate) fn start(&self, sched: &mut Scheduler<Event>) {
        for f in 0..self.flows.len() {
            // Fleet receiver slots hold no transmitting flow.
            if self.is_remote_receiver(f) {
                continue;
            }
            let jitter = SimDuration::from_nanos((f as u64 * 193) % 20_000);
            sched.after(jitter, Event::TrySend(f as u32));
        }
    }

    /// Number of local (sender, thread) flows; remote slots start here.
    #[inline]
    fn base_flows(&self) -> usize {
        (self.senders * self.threads) as usize
    }

    /// The fleet role of flow `f`, `None` for a local flow.
    #[inline]
    fn remote_entry(&self, f: usize) -> Option<RemoteEntry> {
        f.checked_sub(self.base_flows()).map(|k| self.remote[k])
    }

    /// Whether flow `f` is a fleet-wiring receiver slot (a placeholder
    /// sender that must never be started or counted as transmitting).
    #[inline]
    fn is_remote_receiver(&self, f: usize) -> bool {
        matches!(self.remote_entry(f), Some(RemoteEntry::Receiver { .. }))
    }

    fn flow_index(&self, id: FlowId) -> usize {
        if id.sender >= self.senders {
            // Virtual sender from fleet wiring: slot k = sender - senders,
            // one flow per slot, appended after the local grid.
            self.base_flows() + (id.sender - self.senders) as usize
        } else {
            (id.sender * self.threads + id.thread) as usize
        }
    }

    // ---- fleet wiring (all calls happen before `start`) ----

    pub(crate) fn enable_fabric(&mut self, host_id: u32, latency: SimDuration) {
        assert!(
            latency > SimDuration::ZERO,
            "inter-host latency must be positive (it is the lookahead)"
        );
        self.fabric = Some(FabricPort {
            host_id,
            latency,
            wire_seq: 0,
            outbox: Vec::new(),
            inbox: VecDeque::new(),
        });
    }

    pub(crate) fn next_remote_flow(&self) -> u32 {
        self.flows.len() as u32
    }

    pub(crate) fn coupled(&self) -> bool {
        self.fabric.is_some() && !self.remote.is_empty()
    }

    /// Append a fleet slot: its flow id plus every per-flow vector entry.
    fn push_slot(
        &mut self,
        cfg: &TestbedConfig,
        role: RemoteEntry,
        thread: u32,
        flow: SenderFlow,
        rpc: RpcReadChannel,
    ) -> (u32, FlowId) {
        assert!(
            self.fabric.is_some(),
            "enable_fabric before wiring remote flows"
        );
        let f = self.flows.len() as u32;
        let id = FlowId {
            sender: self.senders + self.remote.len() as u32,
            thread,
        };
        self.flows.push(flow);
        self.flow_ids.push(id);
        self.recv_flows.push(ReceiverFlow::new());
        self.rpc.push(rpc);
        self.sender_links
            .push(build_sender_link(cfg, &mut self.rng));
        self.remote.push(role);
        (f, id)
    }

    pub(crate) fn add_remote_receiver(
        &mut self,
        cfg: &TestbedConfig,
        src_host: u32,
        src_flow: u32,
        thread: u32,
    ) -> (u32, FlowId, u64) {
        // Same per-connection draws as local flows (read-size mix, link
        // spread), from the host's own RNG: the wiring is a fixed part of
        // the fleet topology, so the draw sequence is independent of
        // shard count.
        let ch = RpcReadChannel::new(sample_rpc_cfg(cfg, &mut self.rng));
        let frontier = ch.data_frontier();
        // The slot's sender side never transmits (its TrySend is never
        // scheduled and no ACK ever addresses it); the placeholder just
        // keeps the flow vectors parallel.
        let placeholder = SenderFlow::new(cfg.flow.clone(), Box::new(FixedWindow::new(1.0)));
        let (f, id) = self.push_slot(
            cfg,
            RemoteEntry::Receiver { src_host, src_flow },
            thread % self.threads.max(1),
            placeholder,
            ch,
        );
        (f, id, frontier)
    }

    pub(crate) fn add_remote_sender(
        &mut self,
        cfg: &TestbedConfig,
        dst_host: u32,
        dst_flow_id: FlowId,
        initial_frontier: u64,
    ) -> u32 {
        let mut flow = SenderFlow::new(cfg.flow.clone(), build_cc(cfg, &mut self.rng));
        flow.set_data_frontier(initial_frontier);
        // The RPC channel is unused on the sender host (data is consumed
        // remotely); it keeps the vectors parallel.
        let role = RemoteEntry::Sender {
            dst_host,
            dst_flow_id,
        };
        let rpc = RpcReadChannel::new(cfg.rpc);
        self.push_slot(cfg, role, dst_flow_id.thread, flow, rpc).0
    }

    pub(crate) fn take_outbound(&mut self, out: &mut Vec<Envelope<WireMsg>>) {
        if let Some(port) = self.fabric.as_mut() {
            out.append(&mut port.outbox);
        }
    }

    pub(crate) fn push_inbound(&mut self, msg: WireMsg) {
        self.fabric
            .as_mut()
            .expect("inbound message without fabric")
            .inbox
            .push_back(msg);
    }

    /// The inbound message a `RemoteArrival` fires for (injection order
    /// matches event order — see [`Event::RemoteArrival`]).
    pub(crate) fn pop_inbound(&mut self) -> WireMsg {
        self.fabric
            .as_mut()
            .expect("RemoteArrival without fabric")
            .inbox
            .pop_front()
            .expect("RemoteArrival without queued message")
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

    // ---- datapath ----

    /// Flow `f` attempts to transmit. A sent packet serialises through
    /// its access link toward the incast switch (entering the packet
    /// store) or, for a cross-host flow, toward the fabric; the next
    /// attempt is chained at the link's free time.
    pub(crate) fn try_send(
        &mut self,
        now: SimTime,
        f: u32,
        cfg: &TestbedConfig,
        store: &mut PacketStore,
        metrics: &mut MetricsCollector,
        sched: &mut Scheduler<Event>,
    ) {
        // Bursty workloads: outside the active window, hold transmissions
        // until the next burst begins (all of a host's flows share the
        // pattern, as co-located application phases do).
        if cfg.duty_cycle < 1.0 {
            let period = cfg.duty_period.as_nanos().max(1);
            let active = (period as f64 * cfg.duty_cycle) as u64;
            let phase = now.as_nanos() % period;
            if phase >= active {
                let next_burst = now + SimDuration::from_nanos(period - phase);
                sched.at(next_burst, Event::TrySend(f));
                return;
            }
        }
        let seq = match self.flows[f as usize].try_send(now) {
            Ok(seq) => seq,
            Err(SendBlocked::PacedUntil(t)) => return sched.at(t.max(now), Event::TrySend(f)),
            // Woken by the next ACK / frontier advance.
            Err(SendBlocked::WindowLimited | SendBlocked::DataLimited) => return,
        };
        let id = self.flow_ids[f as usize];
        // A cross-host packet is stamped with the destination-side flow
        // id. It still serialises through this slot's access link (so
        // pacing and link contention are modelled), then crosses the
        // fabric and joins the destination's datapath at its switch.
        let remote = match self.remote_entry(f as usize) {
            None => None,
            Some(RemoteEntry::Sender {
                dst_host,
                dst_flow_id,
            }) => Some((dst_host, dst_flow_id)),
            Some(RemoteEntry::Receiver { .. }) => unreachable!("receiver slots never transmit"),
        };
        let pkt = cfg
            .wire
            .data_packet(remote.map_or(id, |(_, dst)| dst), seq, now);
        if metrics.armed {
            metrics.data_packets_sent += 1;
        }
        let link = &mut self.sender_links[id.sender as usize];
        let arrive = link.transmit(now, &pkt);
        let next = link.free_at().max(now);
        match remote {
            Some((dst_host, _)) => self.queue_remote(arrive, dst_host, WireMsg::Data(pkt)),
            // The packet enters the store here and is referenced by
            // handle for the rest of its life.
            None => sched.at(arrive, Event::AtSwitch(store.alloc(pkt))),
        }
        sched.at(next, Event::TrySend(f));
    }

    /// Hand a processed data packet to its receiver flow. Returns the
    /// flow index, the cumulative ACK sequence and whether the packet was
    /// new. Completed reads issue new ones (closed-loop RPC).
    pub(crate) fn deliver(&mut self, pkt: &Packet) -> (usize, u64, bool) {
        let f = self.flow_index(pkt.flow);
        let (ack_seq, fresh) = self.recv_flows[f].on_data_detailed(pkt.seq);
        let in_order = self.recv_flows[f].delivered_packets();
        let prev = self.rpc[f].delivered_packets();
        if in_order > prev {
            self.rpc[f].on_delivered(in_order - prev);
        }
        (f, ack_seq, fresh)
    }

    /// Send flow `f`'s ACK back from the receiver, which finished at
    /// `done_at`, with the RPC frontier piggybacked. The return path
    /// (receiver uplink + switch + sender downlink) is uncontended:
    /// propagation + a small fixed processing cost + jitter (engine
    /// scheduling noise, ACK coalescing variance). A cross-host ACK
    /// takes the same path plus the fabric crossing.
    pub(crate) fn send_ack(
        &mut self,
        done_at: SimTime,
        f: usize,
        ack: Packet,
        cfg: &TestbedConfig,
        store: &mut PacketStore,
        sched: &mut Scheduler<Event>,
    ) {
        let frontier = self.rpc[f].data_frontier();
        let jitter = SimDuration::from_nanos(self.rng.next_below(cfg.ack_jitter.as_nanos().max(1)));
        let arrive = done_at + cfg.hop_propagation * 2 + SimDuration::from_micros(1) + jitter;
        match self.remote_entry(f) {
            None => sched.at(
                arrive,
                Event::AckToSender {
                    flow: f as u32,
                    ack: store.alloc(ack),
                    frontier,
                },
            ),
            Some(RemoteEntry::Receiver { src_host, src_flow }) => self.queue_remote(
                arrive,
                src_host,
                WireMsg::Ack {
                    flow: src_flow,
                    ack,
                    frontier,
                },
            ),
            Some(RemoteEntry::Sender { .. }) => unreachable!("sender slots never receive data"),
        }
    }

    /// Flow `f` consumes an ACK: CC update, frontier advance, and an
    /// immediate send attempt.
    pub(crate) fn on_ack(
        &mut self,
        now: SimTime,
        f: u32,
        ack: &Packet,
        frontier: u64,
        sched: &mut Scheduler<Event>,
    ) {
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

    /// Retransmission-timer sweep: every timed-out flow retries now.
    pub(crate) fn rto_sweep(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        for f in 0..self.flows.len() {
            if self.flows[f].check_timeout(now) {
                sched.immediately(Event::TrySend(f as u32));
            }
        }
    }

    // ---- observation ----

    /// Mean congestion window over the transmitting flows. Fleet receiver
    /// slots hold a placeholder window, not a real one, and are left out.
    pub(crate) fn mean_cwnd(&self) -> f64 {
        let (mut sum, mut n) = (0.0f64, 0u64);
        for (f, flow) in self.flows.iter().enumerate() {
            if !self.is_remote_receiver(f) {
                sum += flow.cwnd();
                n += 1;
            }
        }
        sum / n as f64
    }

    /// Lifetime counters summed over every flow.
    pub(crate) fn stats(&self) -> FlowStats {
        let mut agg = FlowStats::default();
        for f in &self.flows {
            agg.absorb(&f.stats());
        }
        agg
    }

    pub(crate) fn progress(&self) -> Vec<(u64, u64)> {
        self.flows
            .iter()
            .zip(&self.recv_flows)
            .map(|(s, r)| (s.cum_acked(), r.delivered_packets()))
            .collect()
    }
}

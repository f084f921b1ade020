//! Wire packet format.
//!
//! One concrete packet type is shared by the fabric, the NIC and the
//! transport so the simulator stays monomorphic and easy to reason about.
//! The congestion-control fields mirror what Swift actually carries:
//! timestamps for RTT measurement and the receiver-side delay echo that
//! lets the sender decompose *fabric* delay from *endpoint (host)* delay.

use hostcc_sim::{SimDuration, SimTime};

/// Identifies a flow: one connection between a sender machine and one
/// receiver thread (the paper's workload opens one connection per
/// (receiver-thread, sender) pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId {
    /// Sender machine index.
    pub sender: u32,
    /// Receiver thread (core) index the connection is pinned to.
    pub thread: u32,
}

hostcc_sim::snap_fields!(FlowId { sender, thread } blank { FlowId::default() });

/// Packet payload kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacketKind {
    /// A data (MTU-sized) segment travelling sender → receiver.
    #[default]
    Data,
    /// An acknowledgement travelling receiver → sender.
    Ack,
}

impl hostcc_sim::Snap for PacketKind {
    fn save(&self, w: &mut hostcc_sim::SnapWriter) {
        w.u8(*self as u8);
    }

    fn load(&mut self, r: &mut hostcc_sim::SnapReader<'_>) -> Result<(), hostcc_sim::SnapError> {
        *self = match r.u8()? {
            0 => PacketKind::Data,
            1 => PacketKind::Ack,
            _ => return Err(hostcc_sim::SnapError::Corrupt("packet kind out of range")),
        };
        Ok(())
    }

    fn blank() -> Option<Self> {
        Some(PacketKind::Data)
    }
}

/// A packet on the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Sequence number (data) or cumulative ack number (ack).
    pub seq: u64,
    /// Payload bytes carried (0 for pure ACKs).
    pub payload_bytes: u32,
    /// Total on-wire size including all headers and framing.
    pub wire_bytes: u32,
    /// Data or ACK.
    pub kind: PacketKind,
    /// When the *original data packet* left the sender. Data packets carry
    /// their own transmit time; ACKs echo the data packet's time so the
    /// sender can compute an RTT without per-packet state.
    pub sent_at: SimTime,
    /// Receiver-side host delay echoed on ACKs: time from arrival at the
    /// NIC input buffer until the receiver stack finished processing the
    /// packet. Swift subtracts this "endpoint" component from the measured
    /// RTT to obtain the fabric component, and compares it against the
    /// 100 µs host target delay.
    pub host_delay_echo: SimDuration,
    /// ECN congestion-experienced mark (set by switch queues past their
    /// marking threshold; used by the DCTCP-style baseline, ignored by
    /// Swift).
    pub ecn_ce: bool,
    /// NIC input-buffer occupancy fraction echoed on ACKs (0.0–1.0): the
    /// "outside the network" congestion signal §4 of the paper argues
    /// future protocols need. Always available in the ACK; controllers
    /// that predate the idea (Swift, DCTCP) ignore it.
    pub nic_buffer_frac: f64,
}

hostcc_sim::snap_fields!(Packet {
    flow, seq, payload_bytes, wire_bytes, kind, sent_at, host_delay_echo, ecn_ce, nic_buffer_frac,
} blank { Packet::default() });

/// Header/framing overhead model for the access network.
///
/// With 4 KiB MTUs the paper reports a maximum achievable application
/// throughput of ~92 Gbps on the 100 Gbps link "due to protocol header
/// overheads" — i.e. headers + framing consume ~8% of the wire. We charge a
/// fixed per-packet overhead calibrated to that figure (Ethernet + IP +
/// transport + SNAP RPC framing + preamble/IFG).
#[derive(Debug, Clone, Copy)]
pub struct WireFormat {
    /// MTU-sized payload carried by a full data packet, bytes.
    pub mtu_payload: u32,
    /// Per-data-packet header + framing overhead, bytes.
    pub data_overhead: u32,
    /// On-wire size of a pure ACK, bytes.
    pub ack_wire_bytes: u32,
}

impl Default for WireFormat {
    fn default() -> Self {
        WireFormat {
            mtu_payload: 4096,
            // 4096 / (4096 + 356) = 0.920 -> 92 Gbps of app goodput at
            // 100 Gbps line rate, matching the paper's ceiling.
            data_overhead: 356,
            ack_wire_bytes: 84,
        }
    }
}

impl WireFormat {
    /// On-wire bytes of a data packet carrying `payload` bytes.
    pub fn data_wire_bytes(&self, payload: u32) -> u32 {
        payload + self.data_overhead
    }

    /// Application goodput fraction at full-MTU streaming.
    pub fn goodput_efficiency(&self) -> f64 {
        self.mtu_payload as f64 / self.data_wire_bytes(self.mtu_payload) as f64
    }

    /// Build a full-MTU data packet.
    pub fn data_packet(&self, flow: FlowId, seq: u64, sent_at: SimTime) -> Packet {
        Packet {
            flow,
            seq,
            payload_bytes: self.mtu_payload,
            wire_bytes: self.data_wire_bytes(self.mtu_payload),
            kind: PacketKind::Data,
            sent_at,
            host_delay_echo: SimDuration::ZERO,
            ecn_ce: false,
            nic_buffer_frac: 0.0,
        }
    }

    /// Build an ACK for a received data packet.
    ///
    /// `data` is the packet being acknowledged; its `sent_at` and ECN mark
    /// are echoed, and `host_delay` reports the receiver-side delay.
    pub fn ack_packet(&self, data: &Packet, ack_seq: u64, host_delay: SimDuration) -> Packet {
        Packet {
            flow: data.flow,
            seq: ack_seq,
            payload_bytes: 0,
            wire_bytes: self.ack_wire_bytes,
            kind: PacketKind::Ack,
            sent_at: data.sent_at,
            host_delay_echo: host_delay,
            ecn_ce: data.ecn_ce,
            nic_buffer_frac: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_efficiency_matches_paper_ceiling() {
        let wf = WireFormat::default();
        let eff = wf.goodput_efficiency();
        // 100 Gbps * eff ~= 92 Gbps.
        assert!(
            (0.915..0.925).contains(&eff),
            "efficiency {eff} should give ~92 Gbps app ceiling"
        );
    }

    #[test]
    fn data_packet_fields() {
        let wf = WireFormat::default();
        let flow = FlowId {
            sender: 3,
            thread: 1,
        };
        let t = SimTime::from_micros(7);
        let p = wf.data_packet(flow, 42, t);
        assert_eq!(p.kind, PacketKind::Data);
        assert_eq!(p.payload_bytes, 4096);
        assert_eq!(p.wire_bytes, 4096 + 356);
        assert_eq!(p.seq, 42);
        assert_eq!(p.sent_at, t);
        assert!(!p.ecn_ce);
    }

    #[test]
    fn ack_echoes_timestamp_delay_and_ecn() {
        let wf = WireFormat::default();
        let flow = FlowId {
            sender: 0,
            thread: 0,
        };
        let t = SimTime::from_micros(3);
        let mut data = wf.data_packet(flow, 9, t);
        data.ecn_ce = true;
        let ack = wf.ack_packet(&data, 10, SimDuration::from_micros(120));
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.sent_at, t, "ACK echoes the data transmit time");
        assert_eq!(ack.host_delay_echo, SimDuration::from_micros(120));
        assert!(ack.ecn_ce, "ECN mark must be reflected");
        assert_eq!(ack.payload_bytes, 0);
        assert_eq!(ack.wire_bytes, 84);
        assert_eq!(ack.seq, 10);
    }

    #[test]
    fn occupancy_echo_defaults_to_zero() {
        let wf = WireFormat::default();
        let flow = FlowId {
            sender: 0,
            thread: 0,
        };
        let data = wf.data_packet(flow, 0, SimTime::ZERO);
        assert_eq!(data.nic_buffer_frac, 0.0);
        let ack = wf.ack_packet(&data, 1, SimDuration::ZERO);
        assert_eq!(ack.nic_buffer_frac, 0.0);
    }
}

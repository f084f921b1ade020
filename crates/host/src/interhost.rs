//! Inter-host fabric messages.
//!
//! When a fleet of `Testbed` hosts is coupled through the parallel
//! engine, packets that cross a host boundary travel as self-contained
//! [`WireMsg`] values inside `hostcc_sim::Envelope`s instead of as
//! `PacketRef`s into a host-local store ([`Packet`](crate::packet::Packet) is
//! `Copy`, so the whole header rides along). The inter-host link is
//! modelled as a fixed minimum latency — the parallel engine's
//! lookahead — added on top of the sender's local serialisation and
//! propagation; contention on the *destination* host's access link is
//! modelled for real, because inbound data is injected at the
//! destination's switch port and traverses its full NIC/DMA/CPU
//! datapath.

use crate::packet::Packet;

/// A message crossing an inter-host fabric link.
#[derive(Debug, Clone, Copy)]
pub enum WireMsg {
    /// A data packet arriving at the destination host's switch. `pkt.flow`
    /// already names the *destination-side* flow (the virtual-sender slot
    /// allocated by `add_remote_receiver`), so the receive path needs no
    /// translation.
    Data(Packet),
    /// An ACK returning to the sending host.
    Ack {
        /// Sender-side flow index the ACK belongs to.
        flow: u32,
        /// The ACK packet (echoes `sent_at`, host-delay and ECN state).
        ack: Packet,
        /// Receiver-side RPC data frontier, piggybacked like local ACKs.
        frontier: u64,
    },
}

impl hostcc_sim::Snap for WireMsg {
    fn save(&self, w: &mut hostcc_sim::SnapWriter) {
        match self {
            WireMsg::Data(pkt) => {
                w.u8(0);
                pkt.save(w);
            }
            WireMsg::Ack {
                flow,
                ack,
                frontier,
            } => {
                w.u8(1);
                flow.save(w);
                ack.save(w);
                frontier.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut hostcc_sim::SnapReader<'_>) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::decode;
        *self = match r.u8()? {
            0 => WireMsg::Data(decode(r)?),
            1 => WireMsg::Ack {
                flow: decode(r)?,
                ack: decode(r)?,
                frontier: decode(r)?,
            },
            _ => {
                return Err(hostcc_sim::SnapError::Corrupt(
                    "wire message tag out of range",
                ))
            }
        };
        Ok(())
    }

    fn blank() -> Option<Self> {
        Some(WireMsg::Data(Packet::default()))
    }
}

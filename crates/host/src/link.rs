//! Links and output-queued switch ports.
//!
//! The fabric in the paper's workload is a 40-to-1 incast into the
//! receiver's 100 Gbps access link. We model the contended element — the
//! switch egress port feeding that link — as an output queue with a finite
//! byte budget and optional ECN marking, and every other hop as pure
//! serialisation + propagation (the fabric itself is not the bottleneck in
//! any of the paper's experiments; the host is).

use crate::packet::Packet;
use hostcc_sim::{SerialLink, SimDuration, SimTime};

/// A point-to-point link: serialisation at a fixed rate plus propagation.
#[derive(Debug)]
pub(crate) struct Link {
    serial: SerialLink,
    propagation: SimDuration,
    delivered_bytes: u64,
    delivered_packets: u64,
}

hostcc_sim::snap_fields!(Link {
    serial,
    propagation,
    delivered_bytes,
    delivered_packets
});

impl Link {
    /// `bits_per_sec` line rate, `propagation` one-way latency.
    pub(crate) fn new(bits_per_sec: f64, propagation: SimDuration) -> Self {
        Link {
            serial: SerialLink::new(bits_per_sec / 8.0),
            propagation,
            delivered_bytes: 0,
            delivered_packets: 0,
        }
    }

    /// Transmit a packet entering the link at `now`; returns its arrival
    /// time at the far end.
    pub(crate) fn transmit(&mut self, now: SimTime, pkt: &Packet) -> SimTime {
        self.delivered_bytes += pkt.wire_bytes as u64;
        self.delivered_packets += 1;
        self.serial.transmit(now, pkt.wire_bytes as u64) + self.propagation
    }

    /// Line rate in bits/sec.
    #[cfg(test)]
    pub(crate) fn bits_per_sec(&self) -> f64 {
        self.serial.bytes_per_sec() * 8.0
    }

    /// Time the transmitter becomes idle.
    pub(crate) fn free_at(&self) -> SimTime {
        self.serial.free_at()
    }

    /// (bytes, packets) delivered over the lifetime.
    #[cfg(test)]
    pub(crate) fn delivered(&self) -> (u64, u64) {
        (self.delivered_bytes, self.delivered_packets)
    }
}

/// Outcome of offering a packet to a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueOutcome {
    /// Accepted; will arrive at the attached host at this time. The packet
    /// may have been ECN-marked (check the returned packet).
    DeliverAt(SimTime),
    /// Tail-dropped: the output queue byte budget was exceeded.
    Dropped,
}

/// An output-queued switch egress port with tail-drop and ECN marking.
#[derive(Debug)]
pub(crate) struct SwitchPort {
    link: SerialLink,
    propagation: SimDuration,
    buffer_bytes: u64,
    ecn_threshold_bytes: u64,
    queued_bytes: u64,
    /// (time, bytes) of queued packets, used to age out departures. Every
    /// entry accounts for at least a minimum-size (64 B) Ethernet frame of
    /// `queued_bytes`, which is capped at `buffer_bytes`, so the ring's
    /// length is bounded by `buffer_bytes / 64` regardless of run length.
    /// The ring grows to its high-water mark, then is allocation-free.
    departures: std::collections::VecDeque<(SimTime, u64)>,
    drops: u64,
    marks: u64,
    forwarded: u64,
}

// The departure ring is loaded in place into the prebuilt port's ring,
// which grows to its high-water mark, then is allocation-free.
hostcc_sim::snap_fields!(SwitchPort {
    link, propagation, buffer_bytes, ecn_threshold_bytes, queued_bytes, departures, drops, marks,
    forwarded,
} check { SwitchPort::check_restored });

impl SwitchPort {
    /// A port draining at `bits_per_sec` with `buffer_bytes` of queue and
    /// ECN marking past `ecn_threshold_bytes` (0 disables marking; use
    /// `u64::MAX` threshold to never mark while keeping ECN plumbing).
    pub(crate) fn new(
        bits_per_sec: f64,
        propagation: SimDuration,
        buffer_bytes: u64,
        ecn_threshold_bytes: u64,
    ) -> Self {
        SwitchPort {
            link: SerialLink::new(bits_per_sec / 8.0),
            propagation,
            buffer_bytes,
            ecn_threshold_bytes,
            queued_bytes: 0,
            departures: std::collections::VecDeque::new(),
            drops: 0,
            marks: 0,
            forwarded: 0,
        }
    }

    /// Drop packets whose serialisation finished before `now` from the
    /// occupancy accounting.
    fn age(&mut self, now: SimTime) {
        while let Some(&(t, bytes)) = self.departures.front() {
            if t <= now {
                self.queued_bytes -= bytes;
                self.departures.pop_front();
            } else {
                break;
            }
        }
    }

    /// Offer `pkt` to the port at `now`. On acceptance the packet's ECN
    /// mark may be set in place and its delivery time is returned.
    pub(crate) fn enqueue(&mut self, now: SimTime, pkt: &mut Packet) -> EnqueueOutcome {
        self.age(now);
        let bytes = pkt.wire_bytes as u64;
        if self.queued_bytes + bytes > self.buffer_bytes {
            self.drops += 1;
            return EnqueueOutcome::Dropped;
        }
        if self.ecn_threshold_bytes > 0 && self.queued_bytes >= self.ecn_threshold_bytes {
            pkt.ecn_ce = true;
            self.marks += 1;
        }
        self.queued_bytes += bytes;
        let done = self.link.transmit(now, bytes);
        self.departures.push_back((done, bytes));
        self.forwarded += 1;
        EnqueueOutcome::DeliverAt(done + self.propagation)
    }

    /// Bytes currently queued (after ageing to `now`).
    #[cfg(test)]
    pub(crate) fn occupancy(&mut self, now: SimTime) -> u64 {
        self.age(now);
        self.queued_bytes
    }

    /// Queueing + serialisation delay a packet arriving now would see.
    pub(crate) fn backlog_delay(&self, now: SimTime) -> SimDuration {
        self.link.backlog_delay(now)
    }

    /// Packets tail-dropped.
    #[cfg(test)]
    pub(crate) fn drops(&self) -> u64 {
        self.drops
    }

    /// Packets ECN-marked.
    #[cfg(test)]
    pub(crate) fn marks(&self) -> u64 {
        self.marks
    }

    /// Packets forwarded.
    #[cfg(test)]
    pub(crate) fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Revalidate the occupancy invariant: queued bytes == sum of pending
    /// departures (in time order), within the buffer budget.
    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        let mut last = SimTime::ZERO;
        let mut pending = 0u64;
        for &(t, bytes) in &self.departures {
            if t < last {
                return Err(SnapError::Corrupt("departure ring out of order"));
            }
            last = t;
            pending = pending
                .checked_add(bytes)
                .ok_or(SnapError::Corrupt("departure bytes overflow"))?;
        }
        if pending != self.queued_bytes {
            return Err(SnapError::Corrupt("switch occupancy mismatch"));
        }
        if self.queued_bytes > self.buffer_bytes {
            return Err(SnapError::Corrupt("switch occupancy exceeds buffer"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, WireFormat};

    fn pkt() -> Packet {
        WireFormat::default().data_packet(
            FlowId {
                sender: 0,
                thread: 0,
            },
            0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn link_adds_serialisation_and_propagation() {
        // 100 Gbps: 4452 B = 356.16 ns (ceil 357); + 1 us propagation.
        let mut l = Link::new(100e9, SimDuration::from_micros(1));
        let arrive = l.transmit(SimTime::ZERO, &pkt());
        let ser_ns = (4452.0_f64 * 8.0 / 100e9 * 1e9).ceil() as u64;
        assert_eq!(arrive.as_nanos(), ser_ns + 1000);
        assert_eq!(l.delivered(), (4452, 1));
    }

    #[test]
    fn back_to_back_packets_queue_on_link() {
        let mut l = Link::new(100e9, SimDuration::ZERO);
        let a = l.transmit(SimTime::ZERO, &pkt());
        let b = l.transmit(SimTime::ZERO, &pkt());
        assert!(b > a, "second packet serialises after the first");
        assert_eq!(b.as_nanos(), 2 * a.as_nanos());
    }

    #[test]
    fn switch_port_tail_drops_when_full() {
        // Buffer fits exactly two data packets.
        let mut p = SwitchPort::new(100e9, SimDuration::ZERO, 9000, 0);
        let o1 = p.enqueue(SimTime::ZERO, &mut pkt());
        let o2 = p.enqueue(SimTime::ZERO, &mut pkt());
        let o3 = p.enqueue(SimTime::ZERO, &mut pkt());
        assert!(matches!(o1, EnqueueOutcome::DeliverAt(_)));
        assert!(matches!(o2, EnqueueOutcome::DeliverAt(_)));
        assert_eq!(o3, EnqueueOutcome::Dropped);
        assert_eq!(p.drops(), 1);
        assert_eq!(p.forwarded(), 2);
    }

    #[test]
    fn switch_port_drains_over_time() {
        let mut p = SwitchPort::new(100e9, SimDuration::ZERO, 9000, 0);
        p.enqueue(SimTime::ZERO, &mut pkt());
        p.enqueue(SimTime::ZERO, &mut pkt());
        assert_eq!(p.occupancy(SimTime::ZERO), 2 * 4452);
        // After both serialise (~713 ns), the queue is empty and new
        // packets are accepted again.
        let later = SimTime::from_micros(1);
        assert_eq!(p.occupancy(later), 0);
        let o = p.enqueue(later, &mut pkt());
        assert!(matches!(o, EnqueueOutcome::DeliverAt(_)));
    }

    #[test]
    fn ecn_marks_past_threshold() {
        let mut p = SwitchPort::new(100e9, SimDuration::ZERO, 100_000, 5000);
        let mut first = pkt();
        p.enqueue(SimTime::ZERO, &mut first);
        assert!(!first.ecn_ce, "queue below threshold");
        let mut second = pkt();
        p.enqueue(SimTime::ZERO, &mut second);
        assert!(!second.ecn_ce, "4452 < 5000 still below");
        let mut third = pkt();
        p.enqueue(SimTime::ZERO, &mut third);
        assert!(third.ecn_ce, "8904 >= 5000: mark");
        assert_eq!(p.marks(), 1);
    }

    #[test]
    fn zero_threshold_disables_ecn() {
        let mut p = SwitchPort::new(100e9, SimDuration::ZERO, 1 << 20, 0);
        for _ in 0..50 {
            let mut q = pkt();
            p.enqueue(SimTime::ZERO, &mut q);
            assert!(!q.ecn_ce);
        }
        assert_eq!(p.marks(), 0);
    }

    #[test]
    fn departure_ring_grows_to_high_water_mark_then_holds() {
        /// Minimum Ethernet frame size; no packet on the wire is smaller.
        const MIN_WIRE_BYTES: u64 = 64;
        let buffer = 1 << 20;
        let mut p = SwitchPort::new(100e9, SimDuration::ZERO, buffer, 0);
        assert_eq!(p.departures.capacity(), 0, "ring starts empty");
        // Worst-case occupancy: minimum-size frames filling the buffer.
        let fill = |p: &mut SwitchPort, now: SimTime| {
            let mut frame = pkt();
            frame.wire_bytes = MIN_WIRE_BYTES as u32;
            while matches!(p.enqueue(now, &mut frame), EnqueueOutcome::DeliverAt(_)) {}
        };
        fill(&mut p, SimTime::ZERO);
        let worst = (buffer / MIN_WIRE_BYTES) as usize;
        assert_eq!(p.departures.len(), worst);
        let cap = p.departures.capacity();
        // Every later round drains the ring and refills it to the same
        // occupancy; the ring must not reallocate.
        for round in 1..=50u64 {
            fill(&mut p, SimTime::from_micros(100 * round));
            assert_eq!(p.departures.len(), worst);
            assert_eq!(p.departures.capacity(), cap, "ring reallocated");
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::packet::{FlowId, WireFormat};

    fn pkt() -> Packet {
        WireFormat::default().data_packet(
            FlowId {
                sender: 0,
                thread: 0,
            },
            0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn switch_ages_out_across_long_idle_gaps() {
        let mut p = SwitchPort::new(100e9, SimDuration::ZERO, 9000, 0);
        p.enqueue(SimTime::ZERO, &mut pkt());
        p.enqueue(SimTime::ZERO, &mut pkt());
        // Far in the future everything has drained; a burst fits again.
        let later = SimTime::from_secs(1);
        assert_eq!(p.occupancy(later), 0);
        let o1 = p.enqueue(later, &mut pkt());
        let o2 = p.enqueue(later, &mut pkt());
        assert!(matches!(o1, EnqueueOutcome::DeliverAt(_)));
        assert!(matches!(o2, EnqueueOutcome::DeliverAt(_)));
        assert_eq!(p.forwarded(), 4);
        assert_eq!(p.drops(), 0);
    }

    #[test]
    fn switch_delivery_preserves_fifo_order() {
        let mut p = SwitchPort::new(100e9, SimDuration::from_micros(1), 1 << 20, 0);
        let mut last = SimTime::ZERO;
        for _ in 0..32 {
            match p.enqueue(SimTime::ZERO, &mut pkt()) {
                EnqueueOutcome::DeliverAt(t) => {
                    assert!(t > last, "deliveries must be strictly ordered");
                    last = t;
                }
                EnqueueOutcome::Dropped => panic!("buffer should fit 32 packets"),
            }
        }
    }

    #[test]
    fn link_counts_deliveries() {
        let mut l = Link::new(100e9, SimDuration::ZERO);
        for _ in 0..5 {
            l.transmit(SimTime::ZERO, &pkt());
        }
        let (bytes, pkts) = l.delivered();
        assert_eq!(pkts, 5);
        assert_eq!(bytes, 5 * 4452);
        assert!((l.bits_per_sec() - 100e9).abs() < 1.0);
    }

    #[test]
    fn backlog_delay_reflects_queued_serialisation() {
        let mut p = SwitchPort::new(10e9, SimDuration::ZERO, 1 << 20, 0);
        for _ in 0..10 {
            p.enqueue(SimTime::ZERO, &mut pkt());
        }
        // 10 packets x 4452 B at 10 Gbps = ~35.6 us of backlog.
        let d = p.backlog_delay(SimTime::ZERO).as_micros_f64();
        assert!((34.0..38.0).contains(&d), "backlog {d} us");
    }
}

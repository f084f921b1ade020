//! The NIC input buffer.
//!
//! A small on-NIC SRAM (≈1–2 MiB on commodity 100 Gbps NICs) where every
//! arriving packet waits for its DMA to the host. This queue is where host
//! congestion becomes visible: when the NIC-to-memory path slows down
//! (IOTLB walks, memory-bus contention, exhausted PCIe credits) the buffer
//! fills within tens of microseconds and packets tail-drop. The paper's key
//! arithmetic: a 1 MiB buffer drains in < 90 µs whenever the NIC can move
//! ≥ 88.8 Gbps to the host, so a congestion controller watching for a
//! 100 µs host-delay target never sees the queue before it overflows.
//!
//! The queue stores [`PacketRef`] handles, not packets: the packet bytes
//! live in the shared `PacketStore` slab and only an 8-byte handle (plus
//! the wire size needed for byte accounting and the arrival timestamp)
//! transits the buffer. On a tail-drop the caller still owns the handle
//! and is responsible for freeing the slab entry.

use crate::store::PacketRef;
use hostcc_sim::SimTime;
use std::collections::VecDeque;

/// A packet waiting in the input buffer: a slab handle plus the two
/// fields the buffer itself needs (byte accounting, host-delay clock).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedPacket {
    /// Handle to the packet in the `PacketStore`.
    pub(crate) pkt: PacketRef,
    /// Wire size of the packet, for occupancy accounting.
    pub(crate) wire_bytes: u32,
    /// When it arrived at the NIC (starts the host-delay clock).
    pub(crate) arrived: SimTime,
}

hostcc_sim::snap_fields!(QueuedPacket { pkt, wire_bytes, arrived } blank {
    QueuedPacket { pkt: PacketRef::from_parts(0, 0), wire_bytes: 0, arrived: SimTime::ZERO }
});

/// Byte-bounded tail-drop FIFO.
#[derive(Debug)]
pub(crate) struct InputBuffer {
    capacity_bytes: u64,
    queued_bytes: u64,
    queue: VecDeque<QueuedPacket>,
    drops: u64,
    dropped_bytes: u64,
    enqueued: u64,
    peak_bytes: u64,
}

hostcc_sim::snap_fields!(InputBuffer {
    capacity_bytes, queued_bytes, queue, drops, dropped_bytes, enqueued, peak_bytes,
} check { InputBuffer::check_restored });

impl InputBuffer {
    /// A buffer holding at most `capacity_bytes` of packet data.
    pub(crate) fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "zero-capacity buffer");
        // The byte budget bounds the queue's length, so the queue grows
        // to its high-water mark, then is allocation-free.
        InputBuffer {
            capacity_bytes,
            queued_bytes: 0,
            queue: VecDeque::new(),
            drops: 0,
            dropped_bytes: 0,
            enqueued: 0,
            peak_bytes: 0,
        }
    }

    /// Capacity in bytes.
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Offer an arriving packet of `wire_bytes`. Returns `false` if it was
    /// tail-dropped — the caller keeps ownership of the handle and must
    /// free the slab entry.
    pub(crate) fn enqueue(&mut self, now: SimTime, pkt: PacketRef, wire_bytes: u32) -> bool {
        let bytes = wire_bytes as u64;
        if self.queued_bytes + bytes > self.capacity_bytes {
            self.drops += 1;
            self.dropped_bytes += bytes;
            return false;
        }
        self.queued_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.queued_bytes);
        self.enqueued += 1;
        self.queue.push_back(QueuedPacket {
            pkt,
            wire_bytes,
            arrived: now,
        });
        true
    }

    /// Take the packet at the head of the queue (next to DMA).
    pub(crate) fn dequeue(&mut self) -> Option<QueuedPacket> {
        let qp = self.queue.pop_front()?;
        self.queued_bytes -= qp.wire_bytes as u64;
        Some(qp)
    }

    /// Bytes currently queued.
    pub(crate) fn occupancy_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets currently queued.
    #[cfg(test)]
    pub(crate) fn occupancy_packets(&self) -> usize {
        self.queue.len()
    }

    /// Whether the buffer holds no packets.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Highest occupancy observed, bytes.
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Restart peak tracking from the current occupancy (warm-up discard).
    pub(crate) fn reset_peak(&mut self) {
        self.peak_bytes = self.queued_bytes;
    }

    /// Packets tail-dropped so far.
    #[cfg(test)]
    pub(crate) fn drops(&self) -> u64 {
        self.drops
    }

    /// Bytes tail-dropped so far.
    #[cfg(test)]
    pub(crate) fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Packets accepted so far.
    pub(crate) fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Time to drain the current occupancy at `bytes_per_sec` — the
    /// buffer-vs-target-delay arithmetic from §3.1.
    #[cfg(test)]
    pub(crate) fn drain_time(&self, bytes_per_sec: f64) -> hostcc_sim::SimDuration {
        hostcc_sim::SimDuration::for_bytes(self.queued_bytes, bytes_per_sec)
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if self.capacity_bytes == 0 {
            return Err(SnapError::Corrupt("zero-capacity input buffer"));
        }
        let mut sum = 0u64;
        for qp in &self.queue {
            sum = sum
                .checked_add(qp.wire_bytes as u64)
                .ok_or(SnapError::Corrupt("input-buffer bytes overflow"))?;
        }
        if sum != self.queued_bytes || self.queued_bytes > self.capacity_bytes {
            return Err(SnapError::Corrupt("input-buffer occupancy mismatch"));
        }
        if self.peak_bytes < self.queued_bytes {
            return Err(SnapError::Corrupt("input-buffer peak below occupancy"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet, WireFormat};
    use crate::store::PacketStore;

    fn pkt(seq: u64) -> Packet {
        WireFormat::default().data_packet(
            FlowId {
                sender: 0,
                thread: 0,
            },
            seq,
            SimTime::ZERO,
        )
    }

    fn put(store: &mut PacketStore, b: &mut InputBuffer, now: SimTime, seq: u64) -> bool {
        let p = pkt(seq);
        let wire = p.wire_bytes;
        let r = store.alloc(p);
        let ok = b.enqueue(now, r, wire);
        if !ok {
            store.free(r);
        }
        ok
    }

    #[test]
    fn fifo_order_and_occupancy() {
        let mut store = PacketStore::new();
        let mut b = InputBuffer::new(1 << 20);
        assert!(put(&mut store, &mut b, SimTime::ZERO, 1));
        assert!(put(&mut store, &mut b, SimTime::ZERO, 2));
        assert_eq!(b.occupancy_packets(), 2);
        assert_eq!(b.occupancy_bytes(), 2 * 4452);
        assert_eq!(store.get(b.dequeue().unwrap().pkt).seq, 1);
        assert_eq!(store.get(b.dequeue().unwrap().pkt).seq, 2);
        assert!(b.dequeue().is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn tail_drop_when_full() {
        // Capacity for exactly 2 packets.
        let mut store = PacketStore::new();
        let mut b = InputBuffer::new(9000);
        assert!(put(&mut store, &mut b, SimTime::ZERO, 0));
        assert!(put(&mut store, &mut b, SimTime::ZERO, 1));
        assert!(!put(&mut store, &mut b, SimTime::ZERO, 2));
        assert_eq!(b.drops(), 1);
        assert_eq!(b.dropped_bytes(), 4452);
        assert_eq!(b.enqueued(), 2);
        assert_eq!(store.live(), 2, "dropped packet's slab entry was freed");
        // Draining one admits one more.
        store.free(b.dequeue().unwrap().pkt);
        assert!(put(&mut store, &mut b, SimTime::ZERO, 3));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut store = PacketStore::new();
        let mut b = InputBuffer::new(1 << 20);
        put(&mut store, &mut b, SimTime::ZERO, 0);
        put(&mut store, &mut b, SimTime::ZERO, 1);
        b.dequeue();
        b.dequeue();
        assert_eq!(b.peak_bytes(), 2 * 4452);
        assert_eq!(b.occupancy_bytes(), 0);
    }

    #[test]
    fn drain_time_matches_paper_arithmetic() {
        // A full 1 MiB buffer at 88.8 Gbps wire rate drains in ~94 us; the
        // paper rounds to "less than 90 us of queueing when the NIC moves
        // >= 88.8 Gbps" (they use 1 MB = 1e6 bytes: 1e6*8/88.8e9 = 90.1 us).
        let mut store = PacketStore::new();
        let mut b = InputBuffer::new(1_000_000);
        // Fill with ~1 MB of packets.
        let mut n = 0;
        while put(&mut store, &mut b, SimTime::ZERO, n) {
            n += 1;
        }
        assert!(n > 200);
        let t = b.drain_time(88.8e9 / 8.0);
        let us = t.as_micros_f64();
        assert!((85.0..91.0).contains(&us), "drain {us} us should be ~90");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::packet::{FlowId, Packet, WireFormat};
    use crate::store::PacketStore;

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
    fn dropped_bytes_accumulate() {
        let mut store = PacketStore::new();
        let mut b = InputBuffer::new(4452);
        let first = store.alloc(pkt());
        assert!(b.enqueue(SimTime::ZERO, first, 4452));
        for _ in 0..3 {
            let r = store.alloc(pkt());
            assert!(!b.enqueue(SimTime::ZERO, r, 4452));
            store.free(r);
        }
        assert_eq!(b.drops(), 3);
        assert_eq!(b.dropped_bytes(), 3 * 4452);
    }

    #[test]
    fn reset_peak_restarts_from_current_occupancy() {
        let mut store = PacketStore::new();
        let mut b = InputBuffer::new(1 << 20);
        for _ in 0..10 {
            b.enqueue(SimTime::ZERO, store.alloc(pkt()), 4452);
        }
        for _ in 0..8 {
            store.free(b.dequeue().unwrap().pkt);
        }
        b.reset_peak();
        assert_eq!(b.peak_bytes(), 2 * 4452, "peak restarts at current level");
        b.enqueue(SimTime::ZERO, store.alloc(pkt()), 4452);
        assert_eq!(b.peak_bytes(), 3 * 4452);
    }

    #[test]
    fn exact_fit_is_accepted() {
        // Capacity exactly one wire packet: boundary must admit it.
        let mut store = PacketStore::new();
        let mut b = InputBuffer::new(4452);
        assert!(b.enqueue(SimTime::ZERO, store.alloc(pkt()), 4452));
        assert_eq!(b.occupancy_bytes(), 4452);
        let r = store.alloc(pkt());
        assert!(!b.enqueue(SimTime::ZERO, r, 4452));
    }

    #[test]
    fn queue_grows_to_high_water_mark_then_holds() {
        const MIN_FRAME: u32 = 64;
        let capacity = 2 << 20;
        let mut b = InputBuffer::new(capacity);
        assert_eq!(b.queue.capacity(), 0, "queue starts empty");
        // Worst-case occupancy: minimum-size frames filling the buffer.
        let fill = |b: &mut InputBuffer| {
            while b.enqueue(SimTime::ZERO, PacketRef::from_parts(0, 0), MIN_FRAME) {}
        };
        fill(&mut b);
        let worst = (capacity / MIN_FRAME as u64) as usize;
        assert_eq!(b.occupancy_packets(), worst);
        let cap = b.queue.capacity();
        for _ in 0..50 {
            while b.dequeue().is_some() {}
            fill(&mut b);
            assert_eq!(b.occupancy_packets(), worst);
            assert_eq!(b.queue.capacity(), cap, "queue reallocated");
        }
    }
}

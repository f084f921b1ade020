//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by timestamp; events with equal timestamps pop in
//! insertion (FIFO) order so the simulation is fully deterministic — a plain
//! `BinaryHeap` over `(time, payload)` would break ties arbitrarily.
//!
//! Two implementations share the [`Queue`] interface:
//!
//! * [`TimingWheel`](crate::TimingWheel) — the default ([`EventQueue`] is an
//!   alias for it): a timing wheel with an overflow heap, tuned for the
//!   near-future-dominated schedules a packet-level simulator produces;
//! * [`BinaryHeapQueue`] — the classic `(time, seq)` binary heap, kept as
//!   the reference implementation for equivalence testing.
//!
//! Both are bit-for-bit deterministic: for any interleaving of pushes and
//! pops, they return the same events in the same order.

use crate::time::{Resolution, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The interface the engine requires of an event queue: a deterministic
/// min-priority queue over `(SimTime, E)` with FIFO ordering for equal
/// timestamps.
pub trait Queue<E> {
    /// An empty queue at exact (1 ns) resolution.
    fn new() -> Self
    where
        Self: Sized,
    {
        Self::with_resolution(Resolution::EXACT)
    }

    /// An empty queue that quantises event timestamps *up* to the given
    /// resolution grid at push time. [`Resolution::EXACT`] must behave
    /// identically to [`new`](Queue::new).
    fn with_resolution(res: Resolution) -> Self;

    /// Schedule `event` to fire at `time`.
    fn push(&mut self, time: SimTime, event: E);

    /// Remove and return the earliest event, if any.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Drain *every* event sharing the earliest timestamp into `buf`
    /// (appended in exactly the order repeated [`pop`](Queue::pop) calls
    /// would return them) and return that timestamp. `buf` is reused by
    /// the caller across calls — implementations must only append, never
    /// allocate fresh storage.
    ///
    /// The default just loops `pop` while the next timestamp matches;
    /// implementations with a cheaper bulk path (the timing wheel's
    /// slot-FIFO drain list) override it.
    fn pop_slot(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        let t = self.peek_time()?;
        while let Some((_, ev)) = self.pop() {
            buf.push(ev);
            if self.peek_time() != Some(t) {
                break;
            }
        }
        Some(t)
    }

    /// Timestamp of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled over the queue's lifetime.
    fn scheduled_total(&self) -> u64;

    /// Total number of events dispatched over the queue's lifetime.
    fn dispatched_total(&self) -> u64;
}

#[derive(Clone)]
pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap and we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events backed by a
/// binary heap with an insertion-sequence tie-break.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Timestamps are rounded up to this grid at push time (identity at
    /// the default exact resolution), mirroring the timing wheel.
    res: Resolution,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// An empty queue at exact (1 ns) resolution.
    pub fn new() -> Self {
        Self::with_resolution(Resolution::EXACT)
    }

    /// An empty queue quantising timestamps up to `res`.
    pub fn with_resolution(res: Resolution) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            res,
            next_seq: 0,
            popped: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.heap.reserve(cap);
        q
    }
}

/// Same image as the timing wheel: pending events in dispatch order.
impl<E: Clone + crate::Snap> crate::Snap for BinaryHeapQueue<E> {
    fn save(&self, w: &mut crate::SnapWriter) {
        w.u32(self.res.shift());
        w.u64(self.next_seq);
        w.u64(self.popped);
        w.usize(self.heap.len());
        // Drain a clone so serialization is in exact dispatch order.
        let mut drain = self.heap.clone();
        while let Some(e) = drain.pop() {
            crate::Snap::save(&e.time, w);
            e.event.save(w);
        }
    }

    fn load(&mut self, r: &mut crate::SnapReader<'_>) -> Result<(), crate::SnapError> {
        use crate::SnapError;
        let res = u64::checked_shl(1, r.u32()?)
            .and_then(Resolution::from_nanos)
            .ok_or(SnapError::Corrupt("bad queue resolution"))?;
        let next_seq = r.u64()?;
        let popped = r.u64()?;
        let n = r.len(9)?;
        if (n as u64) > next_seq {
            return Err(SnapError::Corrupt("more pending events than scheduled"));
        }
        let mut q = BinaryHeapQueue::with_resolution(res);
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let t: SimTime = crate::decode(r)?;
            if t < last {
                return Err(SnapError::Corrupt("queue events out of order"));
            }
            last = t;
            Queue::push(&mut q, t, crate::decode(r)?);
        }
        q.next_seq = next_seq;
        q.popped = popped;
        *self = q;
        Ok(())
    }
}

impl<E> Queue<E> for BinaryHeapQueue<E> {
    fn with_resolution(res: Resolution) -> Self {
        BinaryHeapQueue::with_resolution(res)
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = self.res.ceil_time(time);
        self.heap.push(Entry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        self.popped += 1;
        Some((e.time, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    fn dispatched_total(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::wheel::TimingWheel;

    fn impls<E>() -> (BinaryHeapQueue<E>, TimingWheel<E>) {
        (BinaryHeapQueue::new(), TimingWheel::new())
    }

    fn pops_in_time_order<Q: Queue<&'static str>>(mut q: Q) {
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    fn equal_times_pop_fifo<Q: Queue<i32>>(mut q: Q) {
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    fn interleaved_push_pop_stays_ordered<Q: Queue<i32>>(mut q: Q) {
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_nanos(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    fn counters_track_lifetime_totals<Q: Queue<()>>(mut q: Q) {
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.dispatched_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    fn peek_time_matches_next_pop<Q: Queue<()>>(mut q: Q) {
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(42), ());
        q.push(SimTime::from_nanos(17), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(17)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(17));
    }

    #[test]
    fn both_impls_pop_in_time_order() {
        let (h, w) = impls();
        pops_in_time_order(h);
        pops_in_time_order(w);
    }

    #[test]
    fn both_impls_pop_equal_times_fifo() {
        let (h, w) = impls();
        equal_times_pop_fifo(h);
        equal_times_pop_fifo(w);
    }

    #[test]
    fn both_impls_stay_ordered_under_interleaving() {
        let (h, w) = impls();
        interleaved_push_pop_stays_ordered(h);
        interleaved_push_pop_stays_ordered(w);
    }

    #[test]
    fn both_impls_track_lifetime_totals() {
        let (h, w) = impls();
        counters_track_lifetime_totals(h);
        counters_track_lifetime_totals(w);
    }

    #[test]
    fn both_impls_peek_next_pop() {
        let (h, w) = impls();
        peek_time_matches_next_pop(h);
        peek_time_matches_next_pop(w);
    }

    fn pop_slot_drains_exactly_one_timestamp<Q: Queue<i32>>(mut q: Q) {
        let mut buf = Vec::new();
        assert_eq!(q.pop_slot(&mut buf), None);
        let t5 = SimTime::from_nanos(5);
        let t9 = SimTime::from_nanos(9);
        q.push(t9, 100);
        for i in 0..10 {
            q.push(t5, i);
        }
        assert_eq!(q.pop_slot(&mut buf), Some(t5));
        assert_eq!(buf, (0..10).collect::<Vec<_>>());
        assert_eq!(q.peek_time(), Some(t9));
        // The buffer is append-only: prior contents survive.
        assert_eq!(q.pop_slot(&mut buf), Some(t9));
        assert_eq!(buf.len(), 11);
        assert_eq!(*buf.last().unwrap(), 100);
        assert!(q.is_empty());
        assert_eq!(q.dispatched_total(), 11);
    }

    #[test]
    fn both_impls_pop_slot_one_timestamp() {
        let (h, w) = impls();
        pop_slot_drains_exactly_one_timestamp(h);
        pop_slot_drains_exactly_one_timestamp(w);
    }

    /// Randomised differential test: any interleaving of pushes and pops
    /// must produce identical sequences from both implementations.
    #[test]
    fn heap_and_wheel_agree_on_random_workloads() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(0xE0E0_1234);
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut now = 0u64;
        let mut cluster = 0u64;
        let mut id = 0u32;
        for _ in 0..200_000 {
            if rng.chance(0.55) || heap.is_empty() {
                // Mix of near-future (wheel) and far-future (overflow)
                // horizons, including exact ties at the current time and
                // repeated same-time clusters within one 16 ns bucket.
                let delay = match rng.next_below(11) {
                    0 => 0,
                    1..=6 => rng.next_below(2_000),
                    7 | 8 => rng.next_below(200_000),
                    9 => rng.next_below(20_000_000),
                    _ => {
                        if rng.chance(0.3) {
                            cluster = now + rng.next_below(16);
                        }
                        cluster.saturating_sub(now)
                    }
                };
                let t = SimTime::from_nanos(now + delay);
                heap.push(t, id);
                wheel.push(t, id);
                id += 1;
            } else {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "heap and wheel diverged");
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        assert_eq!(heap.peek_time(), wheel.peek_time());
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), wheel.pop());
        }
        assert_eq!(wheel.pop(), None);
        assert_eq!(heap.scheduled_total(), wheel.scheduled_total());
        assert_eq!(heap.dispatched_total(), wheel.dispatched_total());
    }

    /// Randomised differential test for the bulk path: draining the wheel
    /// slot by slot via `pop_slot` must yield exactly the `(time, event)`
    /// sequence that repeated `pop` calls produce, under the same mixed
    /// near/far/tied-horizon workload as the heap/wheel test above.
    #[test]
    fn per_event_and_slot_drain_agree_on_random_workloads() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(0xBA7C_5EED);
        let mut per_event: TimingWheel<u32> = TimingWheel::new();
        let mut slot_drain: TimingWheel<u32> = TimingWheel::new();
        let mut buf: Vec<u32> = Vec::new();
        let mut now = 0u64;
        let mut cluster = 0u64;
        let mut id = 0u32;
        for _ in 0..200_000 {
            if rng.chance(0.55) || per_event.is_empty() {
                let delay = match rng.next_below(11) {
                    0 => 0,
                    1..=6 => rng.next_below(2_000),
                    7 | 8 => rng.next_below(200_000),
                    9 => rng.next_below(20_000_000),
                    _ => {
                        if rng.chance(0.3) {
                            cluster = now + rng.next_below(16);
                        }
                        cluster.saturating_sub(now)
                    }
                };
                let t = SimTime::from_nanos(now + delay);
                per_event.push(t, id);
                slot_drain.push(t, id);
                id += 1;
            } else {
                buf.clear();
                let t = slot_drain.pop_slot(&mut buf).expect("queue is non-empty");
                for (i, &v) in buf.iter().enumerate() {
                    assert_eq!(
                        per_event.pop(),
                        Some((t, v)),
                        "slot drain diverged at batch index {i}"
                    );
                }
                now = t.as_nanos();
            }
        }
        assert_eq!(per_event.peek_time(), slot_drain.peek_time());
        loop {
            buf.clear();
            let Some(t) = slot_drain.pop_slot(&mut buf) else {
                break;
            };
            for &v in &buf {
                assert_eq!(per_event.pop(), Some((t, v)));
            }
        }
        assert_eq!(per_event.pop(), None);
        assert_eq!(per_event.scheduled_total(), slot_drain.scheduled_total());
        assert_eq!(per_event.dispatched_total(), slot_drain.dispatched_total());
    }

    /// Randomised three-way differential test for coarse resolution: the
    /// 64 ns wheel, the 64 ns heap, and an exact 1 ns wheel fed
    /// pre-quantised timestamps must produce identical `(time, event)`
    /// sequences — same dispatch counts, FIFO/seq order preserved within
    /// each quantised slot — across all three tiers (near ring, far ring,
    /// overflow heap).
    #[test]
    fn coarse_wheel_heap_and_prequantised_exact_wheel_agree() {
        use crate::rng::SimRng;
        use crate::time::Resolution;
        let res = Resolution::from_nanos(64).unwrap();
        let mut rng = SimRng::new(0xC0A2_5E64);
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::with_resolution(res);
        let mut coarse: TimingWheel<u32> = TimingWheel::with_resolution(res);
        let mut exact: TimingWheel<u32> = TimingWheel::new();
        let mut buf: Vec<u32> = Vec::new();
        let mut now = 0u64;
        let mut id = 0u32;
        for _ in 0..200_000 {
            if rng.chance(0.55) || heap.is_empty() {
                let delay = match rng.next_below(10) {
                    0 => 0,
                    1..=5 => rng.next_below(2_000),
                    6 | 7 => rng.next_below(200_000),
                    8 => rng.next_below(20_000_000),
                    _ => rng.next_below(200_000_000), // overflow-heap tier
                };
                let t = SimTime::from_nanos(now + delay);
                heap.push(t, id);
                coarse.push(t, id);
                // The exact wheel is the semantic reference: quantising
                // at push time must equal quantising before the push.
                exact.push(res.ceil_time(t), id);
                id += 1;
            } else {
                buf.clear();
                let t = coarse.pop_slot(&mut buf).expect("queue is non-empty");
                assert_eq!(t.as_nanos() % 64, 0, "coarse pops land on the grid");
                for &v in &buf {
                    assert_eq!(heap.pop(), Some((t, v)), "coarse wheel vs heap diverged");
                    assert_eq!(
                        exact.pop(),
                        Some((t, v)),
                        "coarse wheel vs pre-quantised exact wheel diverged"
                    );
                }
                now = t.as_nanos();
            }
        }
        assert_eq!(coarse.peek_time(), heap.peek_time());
        assert_eq!(coarse.peek_time(), exact.peek_time());
        loop {
            buf.clear();
            let Some(t) = coarse.pop_slot(&mut buf) else {
                break;
            };
            for &v in &buf {
                assert_eq!(heap.pop(), Some((t, v)));
                assert_eq!(exact.pop(), Some((t, v)));
            }
        }
        assert_eq!(heap.pop(), None);
        assert_eq!(coarse.scheduled_total(), heap.scheduled_total());
        assert_eq!(coarse.dispatched_total(), heap.dispatched_total());
        assert_eq!(coarse.dispatched_total(), exact.dispatched_total());
    }
}

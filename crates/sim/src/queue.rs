//! The reference event queue: the classic `(time, seq)` binary heap.
//!
//! Events are ordered by timestamp; events with equal timestamps pop in
//! insertion (FIFO) order so the simulation is fully deterministic — a plain
//! `BinaryHeap` over `(time, payload)` would break ties arbitrarily.
//!
//! The engine runs on the [`TimingWheel`](crate::TimingWheel); this heap
//! is built only for tests, as the oracle the wheel is checked against:
//! for any interleaving of pushes and pops, both return the same events in
//! the same order.

use crate::time::{Resolution, SimTime};
use crate::wheel::Entry;
use std::collections::BinaryHeap;

/// A deterministic min-priority queue of timestamped events backed by a
/// binary heap with an insertion-sequence tie-break.
pub(crate) struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Timestamps are rounded up to this grid at push time (identity at
    /// the default exact resolution), mirroring the timing wheel.
    res: Resolution,
    next_seq: u64,
    popped: u64,
}

impl<E> BinaryHeapQueue<E> {
    pub(crate) fn new() -> Self {
        Self::with_resolution(Resolution::EXACT)
    }

    pub(crate) fn with_resolution(res: Resolution) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            res,
            next_seq: 0,
            popped: 0,
        }
    }

    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = self.res.ceil_time(time);
        self.heap.push(Entry { time, seq, event });
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        self.popped += 1;
        Some((e.time, e.event))
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    pub(crate) fn dispatched_total(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wheel::TimingWheel;

    /// Run `$body` against a fresh queue `$q` of each implementation.
    macro_rules! for_both {
        ($ty:ty, |$q:ident| $body:block) => {{
            {
                let mut $q: BinaryHeapQueue<$ty> = BinaryHeapQueue::new();
                $body
            }
            {
                let mut $q: TimingWheel<$ty> = TimingWheel::new();
                $body
            }
        }};
    }

    #[test]
    fn both_impls_pop_in_time_order() {
        for_both!(&str, |q| {
            q.push(SimTime::from_nanos(30), "c");
            q.push(SimTime::from_nanos(10), "a");
            q.push(SimTime::from_nanos(20), "b");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn both_impls_pop_equal_times_fifo() {
        for_both!(i32, |q| {
            let t = SimTime::from_nanos(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        });
    }

    #[test]
    fn both_impls_stay_ordered_under_interleaving() {
        for_both!(i32, |q| {
            q.push(SimTime::from_nanos(10), 1);
            q.push(SimTime::from_nanos(5), 0);
            assert_eq!(q.pop().unwrap().1, 0);
            q.push(SimTime::from_nanos(7), 2);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 1);
        });
    }

    #[test]
    fn both_impls_track_lifetime_totals() {
        for_both!((), |q| {
            q.push(SimTime::ZERO, ());
            q.push(SimTime::ZERO, ());
            assert_eq!(q.scheduled_total(), 2);
            q.pop();
            assert_eq!(q.dispatched_total(), 1);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        });
    }

    #[test]
    fn both_impls_peek_next_pop() {
        for_both!((), |q| {
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_nanos(42), ());
            q.push(SimTime::from_nanos(17), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(17)));
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_nanos(17));
        });
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

    /// Randomised three-way differential test for coarse resolution: the
    /// 64 ns wheel, the 64 ns heap, and an exact 1 ns wheel fed
    /// pre-quantised timestamps must produce identical `(time, event)`
    /// sequences — same dispatch counts, FIFO/seq order preserved within
    /// each quantised slot — across all three tiers (near ring, far ring,
    /// overflow heap).
    #[test]
    fn coarse_wheel_heap_and_prequantised_exact_wheel_agree() {
        use crate::rng::SimRng;
        let res = Resolution::from_nanos(64).unwrap();
        let mut rng = SimRng::new(0xC0A2_5E64);
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::with_resolution(res);
        let mut coarse: TimingWheel<u32> = TimingWheel::with_resolution(res);
        let mut exact: TimingWheel<u32> = TimingWheel::new();
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
                let popped = coarse.pop();
                let (t, _) = popped.expect("queue is non-empty");
                assert_eq!(t.as_nanos() % 64, 0, "coarse pops land on the grid");
                assert_eq!(heap.pop(), popped, "coarse wheel vs heap diverged");
                assert_eq!(
                    exact.pop(),
                    popped,
                    "coarse wheel vs pre-quantised exact wheel diverged"
                );
                now = t.as_nanos();
            }
        }
        assert_eq!(coarse.peek_time(), heap.peek_time());
        assert_eq!(coarse.peek_time(), exact.peek_time());
        while let Some(popped) = coarse.pop() {
            assert_eq!(heap.pop(), Some(popped));
            assert_eq!(exact.pop(), Some(popped));
        }
        assert_eq!(heap.pop(), None);
        assert_eq!(coarse.scheduled_total(), heap.scheduled_total());
        assert_eq!(coarse.dispatched_total(), heap.dispatched_total());
        assert_eq!(coarse.dispatched_total(), exact.dispatched_total());
    }
}

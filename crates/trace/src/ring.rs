//! A fixed-capacity overwrite-oldest sample ring.
//!
//! For keep-the-last-N diagnostics (launch traces, recent-sample windows)
//! where the producer must never allocate or branch on fullness: one slot
//! array filled round-robin, overwriting the oldest entry once full.

/// Fixed-capacity ring that keeps the most recent `capacity` samples.
#[derive(Debug)]
pub struct SampleRing<T: Copy> {
    slots: Vec<T>,
    capacity: usize,
    /// Next slot to write (wraps); also the oldest sample once full.
    head: usize,
    pushed: u64,
}

impl<T: Copy> SampleRing<T> {
    /// A ring keeping the last `capacity` samples (capacity > 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity ring");
        SampleRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Record a sample, overwriting the oldest once the ring is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.slots.len() < self.capacity {
            self.slots.push(value);
        } else {
            self.slots[self.head] = value;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Samples currently held (`min(pushed, capacity)`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lifetime samples offered (including overwritten ones).
    #[cfg(test)]
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Drop all samples (capacity retained).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
    }
}

/// The image is the capacity, the retained samples oldest first, and the
/// lifetime push count; a restore refills the ring in place, which must
/// have been built with the same capacity.
impl<T: Copy + hostcc_sim::Snap> hostcc_sim::Snap for SampleRing<T> {
    fn save(&self, w: &mut hostcc_sim::SnapWriter) {
        w.usize(self.capacity);
        w.usize(self.len());
        for s in self.iter() {
            s.save(w);
        }
        w.u64(self.pushed);
    }

    fn load(&mut self, r: &mut hostcc_sim::SnapReader<'_>) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if r.usize()? != self.capacity {
            return Err(SnapError::Corrupt("sample ring capacity mismatch"));
        }
        let n = r.len(T::min_bytes())?;
        if n > self.capacity {
            return Err(SnapError::Corrupt("sample ring overfull"));
        }
        self.clear();
        for _ in 0..n {
            self.push(hostcc_sim::decode(r)?);
        }
        let pushed = r.u64()?;
        if pushed < n as u64 {
            return Err(SnapError::Corrupt("ring push count below length"));
        }
        self.pushed = pushed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_until_full() {
        let mut r = SampleRing::new(4);
        for i in 0..3 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn overwrites_oldest_once_full() {
        let mut r = SampleRing::new(4);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(r.pushed(), 10);
    }

    #[test]
    fn never_reallocates_past_capacity() {
        let mut r = SampleRing::new(8);
        let cap = r.slots.capacity();
        for i in 0..1000 {
            r.push(i);
        }
        assert_eq!(r.slots.capacity(), cap);
    }

    #[test]
    fn clear_resets_contents_only() {
        let mut r = SampleRing::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        r.clear();
        assert!(r.is_empty());
        r.push(9);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![9]);
        assert_eq!(r.pushed(), 4, "lifetime count survives clear");
    }

    #[test]
    fn exact_boundary_wrap() {
        let mut r = SampleRing::new(3);
        for i in 0..6 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![3, 4, 5]);
        r.push(6);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
    }
}

//! Generational slab storage for hot-path payloads.
//!
//! The dispatch loop moves ~10^7 events per second, and before this module
//! existed every one of them carried its payload (`Packet`, DMA job) *by
//! value* through the event queue — ~100+ bytes copied into the wheel's
//! node arena, through the NIC input buffer and back out. A slab turns
//! each of those copies into an 8-byte handle: payloads are written once
//! at allocation and every queue in the datapath shuttles `SlabRef`s
//! instead.
//!
//! The slab is *generational*: each slot carries a generation counter that
//! advances on every allocate and every free (odd = live, even = free), and
//! a handle embeds the generation it was minted with. A stale handle — one
//! whose slot has since been freed or recycled — can therefore be detected
//! instead of silently reading another packet's bytes. Lookups check the
//! generation in debug builds; `free` checks it in every build profile,
//! because a double-free would push the same slot index onto the free list
//! twice and alias two live packets (the one failure mode that corrupts
//! the simulation rather than crashing it).
//!
//! Allocation behaviour: the slab grows (amortised `Vec` growth) only
//! until the peak live population is reached; after that every
//! alloc/free pair recycles a slot and touches the heap zero times. This
//! is what makes the steady-state dispatch loop allocation-free.

use crate::packet::Packet;
use std::marker::PhantomData;

/// A handle into a [`GenSlab`]: slot index plus the generation the slot
/// had when the value was allocated. 8 bytes, `Copy`, and typed by the
/// stored value so a packet handle cannot be mistaken for (say) a DMA-job
/// handle.
pub struct SlabRef<T> {
    idx: u32,
    gen: u32,
    _marker: PhantomData<fn() -> T>,
}

hostcc_sim::snap_fields!(impl[T] SlabRef<T> { idx, gen } skip { _marker } blank { SlabRef::from_parts(0, 0) });

// Manual impls: derive would needlessly bound them on `T`.
impl<T> Clone for SlabRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlabRef<T> {}
impl<T> PartialEq for SlabRef<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx && self.gen == other.gen
    }
}
impl<T> Eq for SlabRef<T> {}
impl<T> std::hash::Hash for SlabRef<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.idx.hash(state);
        self.gen.hash(state);
    }
}
impl<T> std::fmt::Debug for SlabRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlabRef({}v{})", self.idx, self.gen)
    }
}

impl<T> SlabRef<T> {
    /// Slot index (diagnostics; does not identify a value across reuse).
    #[cfg(test)]
    pub(crate) fn index(&self) -> u32 {
        self.idx
    }

    /// Generation the handle was minted with (odd for live handles).
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u32 {
        self.gen
    }

    /// Reassemble a handle from its `(index, generation)` parts.
    ///
    /// Exists for checkpoint restore, where handles embedded in serialized
    /// events must be rebuilt verbatim. A handle fabricated with the wrong
    /// parts is caught exactly like any stale handle: `free` panics on a
    /// generation mismatch, `is_live` reports false.
    pub(crate) fn from_parts(idx: u32, gen: u32) -> Self {
        SlabRef {
            idx,
            gen,
            _marker: PhantomData,
        }
    }
}

#[derive(Debug)]
struct Slot<T> {
    /// Odd while the slot is live, even while it is free. Advances on
    /// every transition, so a handle is valid iff `handle.gen == slot.gen`.
    gen: u32,
    value: T,
}

hostcc_sim::snap_fields!(impl[T: hostcc_sim::Snap] Slot<T> { gen, value } blank { Slot { gen: 0, value: T::blank()? } });

/// A generational slab: stable `u32`-indexed storage with O(1)
/// allocate/free, slot recycling through a free list, and stale-handle
/// detection. Values must be `Copy` so freed slots need no destructor and
/// `free` can return the final value by copy.
#[derive(Debug)]
pub(crate) struct GenSlab<T: Copy> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: u32,
    peak_live: u32,
    allocs: u64,
    frees: u64,
}

// Every slot is in the image (generation plus value, free slots included
// so recycled generations survive), then the free list in LIFO order and
// the lifetime counters. Restored handles resolve to the same values and
// the free list recycles in the same order.
hostcc_sim::snap_fields!(impl[T: Copy + hostcc_sim::Snap] GenSlab<T> {
    slots, free, live, peak_live, allocs, frees,
} check { GenSlab::check_restored });

impl<T: Copy> Default for GenSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> GenSlab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty slab with room for `cap` live values before any heap
    /// growth.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        GenSlab {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
            peak_live: 0,
            allocs: 0,
            frees: 0,
        }
    }

    /// Store `value`, returning its handle.
    pub(crate) fn alloc(&mut self, value: T) -> SlabRef<T> {
        self.allocs += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        let (idx, gen) = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.gen.is_multiple_of(2), "free-list slot marked live");
                slot.gen = slot.gen.wrapping_add(1);
                slot.value = value;
                (idx, slot.gen)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("slab full");
                self.slots.push(Slot { gen: 1, value });
                (idx, 1)
            }
        };
        SlabRef {
            idx,
            gen,
            _marker: PhantomData,
        }
    }

    /// Release the value behind `r`, returning it. Panics on a stale or
    /// double-freed handle *in every build profile*: a double-free would
    /// put the slot on the free list twice and silently alias two live
    /// values, which is the one corruption a simulation cannot detect
    /// downstream.
    pub(crate) fn free(&mut self, r: SlabRef<T>) -> T {
        let slot = &mut self.slots[r.idx as usize];
        assert!(
            slot.gen == r.gen,
            "stale or double free: slot {} is at generation {}, handle has {}",
            r.idx,
            slot.gen,
            r.gen
        );
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        self.frees += 1;
        slot.value
    }

    /// Read access. Debug builds panic on a stale handle; release builds
    /// only bounds-check the index (the hot path dereferences twice per
    /// event, and the lifecycle discipline is enforced by `free` plus the
    /// debug-build property tests).
    #[inline]
    pub(crate) fn get(&self, r: SlabRef<T>) -> &T {
        let slot = &self.slots[r.idx as usize];
        debug_assert!(
            slot.gen == r.gen,
            "stale handle: slot {} is at generation {}, handle has {}",
            r.idx,
            slot.gen,
            r.gen
        );
        &slot.value
    }

    /// Mutable access; same staleness contract as [`get`](Self::get).
    #[inline]
    pub(crate) fn get_mut(&mut self, r: SlabRef<T>) -> &mut T {
        let slot = &mut self.slots[r.idx as usize];
        debug_assert!(
            slot.gen == r.gen,
            "stale handle: slot {} is at generation {}, handle has {}",
            r.idx,
            slot.gen,
            r.gen
        );
        &mut slot.value
    }

    /// Whether `r` still refers to a live value.
    #[cfg(test)]
    pub(crate) fn is_live(&self, r: SlabRef<T>) -> bool {
        self.slots
            .get(r.idx as usize)
            .is_some_and(|s| s.gen == r.gen)
    }

    /// Values currently live.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live as usize
    }

    /// Highest live population ever reached (the slab's working-set size).
    #[cfg(test)]
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live as usize
    }

    /// Slots ever created (live + recyclable).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Lifetime (allocations, frees).
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.allocs, self.frees)
    }

    /// Revalidate a restored slab: the odd-live/even-free generation
    /// invariant, a complete duplicate-free free list, and the lifetime
    /// counters.
    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        let mut on_free_list = vec![false; self.slots.len()];
        for &idx in &self.free {
            let seen = on_free_list
                .get_mut(idx as usize)
                .ok_or(SnapError::Corrupt("free-list index out of range"))?;
            if *seen {
                return Err(SnapError::Corrupt("duplicate free-list index"));
            }
            *seen = true;
            if !self.slots[idx as usize].gen.is_multiple_of(2) {
                return Err(SnapError::Corrupt("free-list slot marked live"));
            }
        }
        let live_slots = self.slots.iter().filter(|s| s.gen % 2 == 1).count();
        if live_slots != self.live as usize {
            return Err(SnapError::Corrupt("slab live count mismatch"));
        }
        // Every non-live slot must be recyclable, or alloc would grow the
        // slab forever past the restored working set.
        if self.slots.len() - live_slots != self.free.len() {
            return Err(SnapError::Corrupt("slab free-list incomplete"));
        }
        if self.live > self.peak_live || self.allocs.wrapping_sub(self.frees) != self.live as u64 {
            return Err(SnapError::Corrupt("slab lifetime counters inconsistent"));
        }
        Ok(())
    }
}

/// The packet store: every packet in the simulation lives here from
/// `TrySend` until its lifecycle ends (ACK consumed at the sender, or a
/// drop), and every queue in between carries only [`PacketRef`]s.
pub(crate) type PacketStore = GenSlab<Packet>;

/// Handle to a packet in the [`PacketStore`].
pub(crate) type PacketRef = SlabRef<Packet>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, WireFormat};
    use hostcc_sim::{SimRng, SimTime};

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

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut s = PacketStore::new();
        let a = s.alloc(pkt(7));
        let b = s.alloc(pkt(9));
        assert_eq!(s.get(a).seq, 7);
        assert_eq!(s.get(b).seq, 9);
        assert_eq!(s.live(), 2);
        let freed = s.free(a);
        assert_eq!(freed.seq, 7);
        assert_eq!(s.live(), 1);
        assert_eq!(s.get(b).seq, 9, "freeing a must not disturb b");
        assert_eq!(s.stats(), (2, 1));
    }

    #[test]
    fn slots_recycle_with_new_generations() {
        let mut s = PacketStore::new();
        let a = s.alloc(pkt(1));
        let idx = a.index();
        s.free(a);
        let b = s.alloc(pkt(2));
        assert_eq!(b.index(), idx, "freed slot is recycled");
        assert_ne!(
            b.generation(),
            a.generation(),
            "recycled slot has a new generation"
        );
        assert!(!s.is_live(a));
        assert!(s.is_live(b));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = PacketStore::new();
        let r = s.alloc(pkt(0));
        s.get_mut(r).ecn_ce = true;
        assert!(s.get(r).ecn_ce);
    }

    #[test]
    fn steady_state_is_growth_free() {
        let mut s = PacketStore::new();
        // Reach a working set of 32 live packets.
        let mut live: Vec<PacketRef> = (0..32).map(|i| s.alloc(pkt(i))).collect();
        let cap = s.capacity();
        // Churn well past the working set: capacity must not move.
        for i in 0..10_000u64 {
            let r = live.swap_remove((i % 31) as usize);
            s.free(r);
            live.push(s.alloc(pkt(i)));
        }
        assert_eq!(s.capacity(), cap, "steady-state churn must not grow");
        assert_eq!(s.peak_live(), 32);
    }

    /// Seeded property test: across 100k alloc/free cycles with a
    /// randomly churning live set, the store never hands out a handle
    /// that aliases a live one, frees return exactly the stored value,
    /// and every live handle stays readable.
    #[test]
    fn property_no_aliasing_across_100k_cycles() {
        let mut rng = SimRng::new(0x5AB5_1AB5);
        let mut s = PacketStore::new();
        let mut live: Vec<(PacketRef, u64)> = Vec::new();
        let mut next_seq = 0u64;
        for _ in 0..100_000 {
            if live.len() < 8 || (live.len() < 256 && rng.chance(0.55)) {
                let r = s.alloc(pkt(next_seq));
                // A fresh handle must not alias any live handle: distinct
                // as a (index, generation) pair, and distinct by index
                // alone (two live values must never share a slot).
                for (l, _) in &live {
                    assert_ne!(*l, r, "handle aliases a live handle");
                    assert_ne!(l.index(), r.index(), "slot aliases a live slot");
                }
                live.push((r, next_seq));
                next_seq += 1;
            } else {
                let pick = rng.next_below(live.len() as u64) as usize;
                let (r, expect) = live.swap_remove(pick);
                assert_eq!(s.free(r).seq, expect, "freed value corrupted");
                assert!(!s.is_live(r), "freed handle still live");
            }
            // Every live handle still reads back its own packet.
            if !live.is_empty() {
                let probe = rng.next_below(live.len() as u64) as usize;
                let (r, expect) = live[probe];
                assert_eq!(s.get(r).seq, expect);
            }
        }
        assert_eq!(s.live(), live.len());
        let (allocs, frees) = s.stats();
        assert_eq!(allocs - frees, live.len() as u64);
        assert!(
            s.capacity() <= 256,
            "capacity {} exceeded the live-set bound",
            s.capacity()
        );
    }

    #[test]
    #[should_panic(expected = "stale or double free")]
    fn double_free_is_caught_in_all_profiles() {
        let mut s = PacketStore::new();
        let r = s.alloc(pkt(0));
        s.free(r);
        s.free(r);
    }

    #[test]
    #[should_panic(expected = "stale or double free")]
    fn free_of_recycled_slot_is_caught() {
        let mut s = PacketStore::new();
        let a = s.alloc(pkt(0));
        s.free(a);
        let _b = s.alloc(pkt(1)); // recycles the slot under a new generation
        s.free(a); // stale: generation mismatch
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale handle")]
    fn debug_get_catches_use_after_free() {
        let mut s = PacketStore::new();
        let r = s.alloc(pkt(3));
        s.free(r);
        let _ = s.get(r);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale handle")]
    fn debug_get_mut_catches_recycled_slot() {
        let mut s = PacketStore::new();
        let a = s.alloc(pkt(3));
        s.free(a);
        let _b = s.alloc(pkt(4));
        let _ = s.get_mut(a);
    }
}

//! The I/O Translation Lookaside Buffer (IOTLB).
//!
//! A small cache of completed IOVA→PA translations inside the IOMMU. The
//! paper's testbed has 128 entries per IOMMU; once the pinned working set
//! (threads × pages per region + control-structure pages) exceeds this,
//! misses-per-packet climb and the host interconnect becomes the bottleneck
//! (Fig. 3, right panel).
//!
//! Organisation is configurable: `ways == entries` gives a fully-associative
//! cache, smaller `ways` a set-associative one. Replacement is true LRU
//! within a set, defined by per-entry stamps. Lookup and victim choice are
//! O(1) whatever the associativity: a hash index maps each cached tag to
//! its slot, and each set keeps its slots on a recency list whose head is
//! the victim. Both are derived from the stamps and rebuilt on restore.

use crate::addr::PageSize;
use hostcc_sim::SnapError;

/// A translation-cache tag: the page this entry covers.
///
/// Entries are tagged by page base *and* page size: a 2 MiB mapping and
/// a 4 KiB mapping occupy one entry each regardless of span, which is
/// exactly why hugepages relieve IOTLB pressure (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IotlbTag {
    /// Page number (IOVA >> page shift).
    pub page_number: u64,
    /// Size of the cached leaf mapping.
    pub page_size: PageSize,
}

/// Sentinel for an empty/invalidated slot. Unreachable as a packed tag:
/// the page-size field only takes values 0–2, so bits 52–53 are never
/// both set.
pub(crate) const INVALID_KEY: u64 = u64::MAX;

/// Bits 0–51 of a packed key: the page number.
const PN_MASK: u64 = (1 << 52) - 1;

/// Pack a tag into one u64, so that a tag compare is one word compare
/// and the hash index hashes one word.
///
/// Layout: bits 0–51 page number, 52–53 page size, 54–63 zero. The
/// page number is structurally bounded (an IOVA is 64 bits, so
/// `iova >> 12 < 2^52`). Distinct tags pack to distinct keys, so key
/// equality *is* tag equality.
#[inline]
pub(crate) fn pack_tag(tag: IotlbTag) -> u64 {
    debug_assert!(tag.page_number < 1 << 52, "page number exceeds 52 bits");
    let size = match tag.page_size {
        PageSize::Size4K => 0u64,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    tag.page_number | (size << 52)
}

/// The set a page maps to among `sets` (a power of two).
#[inline]
pub(crate) fn set_index(pn: u64, sets: usize) -> usize {
    // Mix the page number so that large-stride access patterns spread
    // across sets; xor-fold high bits into the index.
    let h = pn ^ (pn >> 13) ^ (pn >> 29);
    (h as usize) & (sets - 1)
}

/// Cumulative IOTLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IotlbStats {
    /// Total lookups.
    pub(crate) lookups: u64,
    /// Lookups served from the cache.
    pub(crate) hits: u64,
    /// Lookups requiring a page walk.
    pub misses: u64,
    /// Valid entries evicted to make room.
    pub(crate) evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub(crate) invalidations: u64,
}

hostcc_sim::snap_fields!(IotlbStats {
    lookups,
    hits,
    misses,
    evictions,
    invalidations
});

impl IotlbStats {
    /// Miss ratio over all lookups (0 when idle).
    #[cfg(test)]
    pub(crate) fn miss_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }
}

/// An empty index bucket.
const NO_SLOT: u32 = u32::MAX;

/// Set-associative, LRU-replacement translation cache.
///
/// The state is two parallel arrays, packed tag keys and LRU stamps,
/// plus the clock and statistics. A stamp of 0 means the slot is empty
/// (live stamps start at 1, since the clock pre-increments); the LRU
/// victim of a set is its lowest-index empty slot, else its slot with
/// the smallest stamp.
///
/// Two derived structures make both lookups and victim choice O(1), so
/// the 128-way fully-associative testbed geometry costs what an 8-way
/// one does:
///
/// * `index`, an open-addressing hash table (linear probing,
///   multiply-shift hash, at most half full) from packed key to slot.
///   A key lives in at most one slot, so one probe sequence answers a
///   lookup. Removal shifts later entries of the probe run back, so no
///   tombstones accumulate.
/// * Per-set recency lists, circular and doubly linked through `next`
///   and `prev`, in `(stamp, slot)` order: empty slots first in slot
///   order, then live slots from least to most recently used. Node
///   `entries + s` is set `s`'s sentinel, so the list head — the victim
///   — is `next[entries + s]`. A hit or fill stamps the slot with the
///   newest clock and moves it to the tail.
///
/// Only `keys`, `stamps`, `clock` and `stats` are checkpointed; the
/// derived parts are rebuilt from them on restore and after bulk
/// invalidation.
#[derive(Debug)]
pub struct Iotlb {
    ways: usize,
    sets: usize,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: IotlbStats,
    /// Hash bucket → slot (`NO_SLOT` when empty); a power-of-two length.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the multiply-shift hash keeps the top
    /// bits of the product.
    index_shift: u32,
    /// Recency-list links over slots `0..entries` and set sentinels
    /// `entries..entries + sets`.
    next: Vec<u32>,
    prev: Vec<u32>,
}

// Geometry is configuration: the restored arrays must match the prebuilt
// cache's ways x sets. The index and recency lists are derived state,
// rebuilt by the check.
hostcc_sim::snap_fields!(Iotlb { keys, stamps, clock, stats }
    skip { ways, sets, index, index_shift, next, prev }
    check { Iotlb::check_restored });

impl Iotlb {
    /// A cache with `entries` total entries and `ways` entries per set.
    ///
    /// `entries` must be a multiple of `ways`, and the number of sets a
    /// power of two (for mask indexing). `Iotlb::new(128, 128)` is a
    /// 128-entry fully-associative cache, the geometry of the paper's
    /// testbed model; `Iotlb::new(128, 8)` is 16 sets of 8 ways.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "empty IOTLB");
        assert!(
            entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            entries + sets < NO_SLOT as usize,
            "IOTLB too large for 32-bit slot links"
        );
        let buckets = (2 * entries).next_power_of_two();
        let mut t = Iotlb {
            ways,
            sets,
            keys: vec![INVALID_KEY; entries],
            stamps: vec![0u64; entries],
            clock: 0,
            stats: IotlbStats::default(),
            index: vec![NO_SLOT; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
            next: vec![0; entries + sets],
            prev: vec![0; entries + sets],
        };
        t.rebuild().expect("an empty cache has no duplicate keys");
        t
    }

    /// Total entry count.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Entries per set.
    #[cfg(test)]
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_of(&self, tag: IotlbTag) -> usize {
        set_index(tag.page_number, self.sets)
    }

    /// The set a packed key belongs to.
    #[inline]
    fn set_of_key(&self, key: u64) -> usize {
        set_index(key & PN_MASK, self.sets)
    }

    /// The recency-list sentinel of `set`.
    #[inline]
    fn sentinel(&self, set: usize) -> usize {
        self.keys.len() + set
    }

    /// Look up a translation; inserts it on miss (the walk result is cached).
    ///
    /// Returns `true` on hit, `false` on miss.
    pub fn access(&mut self, tag: IotlbTag) -> bool {
        let key = pack_tag(tag);
        let set = self.set_of(tag);
        self.access_slot(key, set)
    }

    /// Look up `count` consecutive pages of one region in a single call:
    /// page numbers `first_pn .. first_pn + count`, all sharing
    /// `page_size`. Returns a bitmask of *misses* — bit `i` set means
    /// page `first_pn + i` missed (and was filled, exactly as
    /// [`access`](Iotlb::access) would have). State and statistics after
    /// this call are identical to `count` sequential `access` calls in
    /// ascending page order.
    ///
    /// The win over the scalar loop is hoisting: the size bits are packed
    /// once, and the per-page tag is a single add. `count` must be
    /// at most 64 so the mask fits one word (DMA ranges in the testbed
    /// touch a handful of pages).
    pub(crate) fn access_run(&mut self, page_size: PageSize, first_pn: u64, count: u32) -> u64 {
        assert!(count <= 64, "run of {count} pages exceeds the 64-bit mask");
        let high = pack_tag(IotlbTag {
            page_number: 0,
            page_size,
        });
        debug_assert!(
            first_pn + count as u64 <= 1 << 52,
            "page number exceeds 52 bits"
        );
        let mut missed = 0u64;
        for i in 0..count {
            let pn = first_pn + i as u64;
            let set = set_index(pn, self.sets);
            if !self.access_slot(high | pn, set) {
                missed |= 1u64 << i;
            }
        }
        missed
    }

    /// The per-slot body shared by [`access`](Iotlb::access) and
    /// [`access_run`](Iotlb::access_run): recency bump on a hit, LRU fill
    /// on a miss.
    #[inline]
    fn access_slot(&mut self, key: u64, set: usize) -> bool {
        self.clock += 1;
        self.stats.lookups += 1;
        let sentinel = self.sentinel(set);
        let mut empty = match self.find(key) {
            Ok(bucket) => {
                let slot = self.index[bucket] as usize;
                self.stamps[slot] = self.clock;
                self.move_to_tail(slot, sentinel);
                self.stats.hits += 1;
                return true;
            }
            Err(empty) => empty,
        };

        // Miss: fill the list head, which is the victim the stamp order
        // defines (lowest-index empty slot, else least recently used).
        self.stats.misses += 1;
        let victim = self.next[sentinel] as usize;
        let old = self.keys[victim];
        if old != INVALID_KEY {
            self.stats.evictions += 1;
            let bucket = self.find(old).expect("a live key is indexed");
            // The removal leaves one new empty bucket; if it lies on the
            // new key's probe path, it ends that path.
            let hole = self.index_remove(bucket);
            let mask = self.index.len() - 1;
            let home = self.home(key);
            if hole.wrapping_sub(home) & mask < empty.wrapping_sub(home) & mask {
                empty = hole;
            }
        }
        self.keys[victim] = key;
        self.stamps[victim] = self.clock;
        self.index[empty] = victim as u32;
        self.move_to_tail(victim, sentinel);
        false
    }

    /// The home bucket of `key`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The bucket holding `key` (`Ok`), or the empty bucket that ends its
    /// probe sequence (`Err`).
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut bucket = self.home(key);
        loop {
            let slot = self.index[bucket];
            if slot == NO_SLOT {
                return Err(bucket);
            }
            if self.keys[slot as usize] == key {
                return Ok(bucket);
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// Empty `hole` and shift later members of its probe run back so that
    /// every remaining key stays reachable from its home bucket. Returns
    /// the bucket left empty.
    fn index_remove(&mut self, mut hole: usize) -> usize {
        let mask = self.index.len() - 1;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & mask;
            let slot = self.index[probe];
            if slot == NO_SLOT {
                self.index[hole] = NO_SLOT;
                return hole;
            }
            // The entry may fill the hole unless its home lies cyclically
            // in (hole, probe].
            let home = self.home(self.keys[slot as usize]);
            if probe.wrapping_sub(home) & mask >= probe.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = probe;
            }
        }
    }

    /// Detach `node` from its recency list.
    #[inline]
    fn unlink(&mut self, node: usize) {
        let (p, n) = (self.prev[node], self.next[node]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
    }

    /// Link `node` into a recency list just before `at`.
    #[inline]
    fn link_before(&mut self, node: usize, at: usize) {
        let p = self.prev[at];
        self.prev[node] = p;
        self.next[node] = at as u32;
        self.next[p as usize] = node as u32;
        self.prev[at] = node as u32;
    }

    /// Make `slot` the most recently used of the set whose sentinel is
    /// `sentinel`.
    #[inline]
    fn move_to_tail(&mut self, slot: usize, sentinel: usize) {
        if self.prev[sentinel] as usize != slot {
            self.unlink(slot);
            self.link_before(slot, sentinel);
        }
    }

    /// Probe without inserting or updating recency (diagnostics only).
    #[cfg(test)]
    pub(crate) fn probe(&self, tag: IotlbTag) -> bool {
        self.find(pack_tag(tag)).is_ok()
    }

    /// Invalidate one translation (software unmap; strict-mode IOMMU).
    pub(crate) fn invalidate(&mut self, tag: IotlbTag) {
        let Ok(bucket) = self.find(pack_tag(tag)) else {
            return;
        };
        let slot = self.index[bucket] as usize;
        self.index_remove(bucket);
        self.keys[slot] = INVALID_KEY;
        self.stamps[slot] = 0;
        self.stats.invalidations += 1;
        // The slot rejoins the empty prefix of its list in slot order:
        // before the first live slot or higher-index empty slot.
        let sentinel = self.sentinel(self.set_of(tag));
        self.unlink(slot);
        let mut at = self.next[sentinel] as usize;
        while at != sentinel && self.stamps[at] == 0 && at < slot {
            at = self.next[at] as usize;
        }
        self.link_before(slot, at);
    }

    /// Invalidate everything (global flush), then rebuild the derived
    /// structures.
    pub(crate) fn invalidate_all(&mut self) {
        for (k, s) in self.keys.iter_mut().zip(self.stamps.iter_mut()) {
            if *k != INVALID_KEY {
                *k = INVALID_KEY;
                *s = 0;
                self.stats.invalidations += 1;
            }
        }
        self.rebuild()
            .expect("invalidation only removes keys, so they stay unique");
    }

    /// Number of currently-valid entries.
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != INVALID_KEY).count()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> IotlbStats {
        self.stats
    }

    /// Reset statistics (keep contents). Used to discard warm-up counts.
    pub fn reset_stats(&mut self) {
        self.stats = IotlbStats::default();
    }

    /// Rebuild the hash index and the recency lists from `keys` and
    /// `stamps`. Fails on a key held by two slots, which the index cannot
    /// represent.
    fn rebuild(&mut self) -> Result<(), SnapError> {
        let entries = self.keys.len();
        self.index.fill(NO_SLOT);
        for slot in 0..entries {
            let key = self.keys[slot];
            if key == INVALID_KEY {
                continue;
            }
            match self.find(key) {
                Ok(_) => return Err(SnapError::Corrupt("iotlb key cached twice")),
                Err(empty) => self.index[empty] = slot as u32,
            }
        }
        // Link each set's slots behind its sentinel in (stamp, slot)
        // order. The order is sorted in the set's own `prev` entries, the
        // `next` links are set from it, and `prev` is then rewritten by
        // walking them, so a bulk invalidation allocates nothing.
        for set in 0..self.sets {
            let (base, sentinel) = (set * self.ways, entries + set);
            let order = &mut self.prev[base..base + self.ways];
            for (i, slot) in order.iter_mut().enumerate() {
                *slot = (base + i) as u32;
            }
            let stamps = &self.stamps;
            order.sort_unstable_by_key(|&slot| (stamps[slot as usize], slot));
            let mut last = sentinel;
            for i in base..base + self.ways {
                let slot = self.prev[i];
                self.next[last] = slot;
                last = slot as usize;
            }
            self.next[last] = sentinel as u32;
            let mut node = sentinel;
            loop {
                let next = self.next[node] as usize;
                self.prev[next] = node as u32;
                if next == sentinel {
                    break;
                }
                node = next;
            }
        }
        Ok(())
    }

    /// Reject restored images the derived structures cannot represent,
    /// then rebuild them.
    fn check_restored(&mut self) -> Result<(), SnapError> {
        let entries = self.ways * self.sets;
        if self.keys.len() != entries || self.stamps.len() != entries {
            return Err(SnapError::Corrupt("iotlb geometry mismatch"));
        }
        for (slot, (&key, &stamp)) in self.keys.iter().zip(&self.stamps).enumerate() {
            if stamp > self.clock {
                return Err(SnapError::Corrupt("iotlb stamp beyond clock"));
            }
            if key == INVALID_KEY {
                if stamp != 0 {
                    return Err(SnapError::Corrupt("iotlb empty slot with a stamp"));
                }
                continue;
            }
            if stamp == 0 {
                return Err(SnapError::Corrupt("iotlb live slot without a stamp"));
            }
            if self.set_of_key(key) != slot / self.ways {
                return Err(SnapError::Corrupt("iotlb key outside its set"));
            }
        }
        self.rebuild()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(pn: u64) -> IotlbTag {
        IotlbTag {
            page_number: pn,
            page_size: PageSize::Size2M,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut t = Iotlb::new(8, 8);
        assert!(!t.access(tag(1)));
        assert!(t.access(tag(1)));
        let s = t.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut t = Iotlb::new(128, 8);
        for pn in 0..128 {
            t.access(tag(pn));
        }
        t.reset_stats();
        // With uniform set hashing, 128 distinct pages may not fit all sets
        // perfectly, but a second pass over a small working set (64) must
        // hit entirely.
        let mut t = Iotlb::new(128, 8);
        for pn in 0..64 {
            t.access(tag(pn));
        }
        t.reset_stats();
        for pn in 0..64 {
            t.access(tag(pn));
        }
        assert_eq!(t.stats().miss_ratio(), 0.0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        // Cyclic sweep over 2x capacity with LRU = near-100% misses.
        let mut t = Iotlb::new(128, 8);
        for round in 0..4 {
            for pn in 0..256 {
                let hit = t.access(tag(pn));
                if round == 0 {
                    assert!(!hit, "cold pass cannot hit");
                }
            }
        }
        assert!(
            t.stats().miss_ratio() > 0.9,
            "cyclic overflow should thrash LRU, got {}",
            t.stats().miss_ratio()
        );
    }

    #[test]
    fn lru_keeps_hot_entry_under_pressure() {
        let mut t = Iotlb::new(4, 4); // one fully-associative set
        t.access(tag(0)); // hot
        for pn in 1..4 {
            t.access(tag(pn));
        }
        // Re-touch the hot entry, then bring in one more page: the victim
        // must be page 1 (LRU), not page 0.
        assert!(t.access(tag(0)));
        t.access(tag(99));
        assert!(t.probe(tag(0)), "hot entry should survive");
        assert!(!t.probe(tag(1)), "LRU entry should be evicted");
    }

    #[test]
    fn page_sizes_tag_separately() {
        let mut t = Iotlb::new(8, 8);
        let t2m = IotlbTag {
            page_number: 5,
            page_size: PageSize::Size2M,
        };
        let t4k = IotlbTag {
            page_number: 5,
            page_size: PageSize::Size4K,
        };
        t.access(t2m);
        assert!(!t.access(t4k), "same page number, different size: miss");
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn invalidate_forces_next_miss() {
        let mut t = Iotlb::new(8, 8);
        t.access(tag(7));
        t.invalidate(tag(7));
        assert!(!t.probe(tag(7)));
        assert!(!t.access(tag(7)));
        assert_eq!(t.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut t = Iotlb::new(16, 4);
        for pn in 0..10 {
            t.access(tag(pn));
        }
        t.invalidate_all();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats().invalidations, 10);
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut t = Iotlb::new(128, 128);
        for pn in 0..128 {
            t.access(tag(pn));
        }
        t.reset_stats();
        for pn in 0..128 {
            assert!(t.access(tag(pn)), "page {pn} should hit");
        }
        assert_eq!(t.stats().miss_ratio(), 0.0);
        assert_eq!(t.occupancy(), 128);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = Iotlb::new(100, 8);
    }

    #[test]
    fn access_run_matches_sequential_accesses() {
        // Drive two identically-configured caches through the same page
        // sequence — one via access_run, one via scalar access — and
        // demand identical miss masks, statistics and final contents.
        let mut batch = Iotlb::new(128, 8);
        let mut scalar = Iotlb::new(128, 8);
        let runs: &[(PageSize, u64, u32)] = &[
            (PageSize::Size4K, 100, 5),
            (PageSize::Size4K, 102, 5), // overlaps the previous run
            (PageSize::Size2M, 100, 3), // same pages, other size
            (PageSize::Size4K, 0, 64),  // max-width run
            (PageSize::Size4K, 100, 1),
            (PageSize::Size1G, 7, 2),
        ];
        for &(page_size, first_pn, count) in runs {
            let mask = batch.access_run(page_size, first_pn, count);
            let mut expect = 0u64;
            for i in 0..count {
                let hit = scalar.access(IotlbTag {
                    page_number: first_pn + i as u64,
                    page_size,
                });
                if !hit {
                    expect |= 1u64 << i;
                }
            }
            assert_eq!(mask, expect, "miss masks diverged");
        }
        let (b, s) = (batch.stats(), scalar.stats());
        assert_eq!(b.lookups, s.lookups);
        assert_eq!(b.hits, s.hits);
        assert_eq!(b.misses, s.misses);
        assert_eq!(b.evictions, s.evictions);
        assert_eq!(batch.occupancy(), scalar.occupancy());
        for &(page_size, first_pn, count) in runs {
            for i in 0..count {
                let tag = IotlbTag {
                    page_number: first_pn + i as u64,
                    page_size,
                };
                assert_eq!(batch.probe(tag), scalar.probe(tag), "contents diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "64-bit mask")]
    fn access_run_rejects_oversized_runs() {
        let mut t = Iotlb::new(128, 8);
        t.access_run(PageSize::Size4K, 0, 65);
    }

    /// Save `t` and restore the image into a fresh cache of its geometry.
    fn reload(t: &Iotlb) -> Result<Iotlb, SnapError> {
        use hostcc_sim::{Snap, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let mut fresh = Iotlb::new(t.capacity(), t.ways());
        fresh.load(&mut SnapReader::new(&w.into_payload()))?;
        Ok(fresh)
    }

    /// A 4-set cache holding pages 0..6, and the slot of page 0.
    fn filled() -> (Iotlb, usize) {
        let mut t = Iotlb::new(16, 4);
        for pn in 0..6 {
            t.access(tag(pn));
        }
        let slot = t.keys.iter().position(|&k| k == pack_tag(tag(0)));
        (t, slot.unwrap())
    }

    #[test]
    fn restore_resumes_where_the_image_left_off() {
        let (mut t, _) = filled();
        let mut r = reload(&t).unwrap();
        for pn in [3, 9, 0, 17, 1] {
            assert_eq!(r.access(tag(pn)), t.access(tag(pn)), "page {pn}");
        }
        assert_eq!(r.stats(), t.stats());
    }

    #[test]
    fn restore_rejects_a_key_cached_twice_in_a_set() {
        let (mut t, a) = filled();
        let set = a / 4 * 4..a / 4 * 4 + 4;
        let twin = set.into_iter().find(|&s| s != a).unwrap();
        t.keys[twin] = t.keys[a];
        t.stamps[twin] = t.clock;
        let err = reload(&t).err();
        assert_eq!(err, Some(SnapError::Corrupt("iotlb key cached twice")));
    }

    #[test]
    fn restore_rejects_a_key_outside_its_set() {
        let (mut t, a) = filled();
        let elsewhere = (a + 4) % 16;
        t.keys[elsewhere] = t.keys[a];
        t.stamps[elsewhere] = t.stamps[a];
        t.keys[a] = INVALID_KEY;
        t.stamps[a] = 0;
        let err = reload(&t).err();
        assert_eq!(err, Some(SnapError::Corrupt("iotlb key outside its set")));
    }

    #[test]
    fn restore_rejects_a_live_key_without_a_stamp() {
        let (mut t, a) = filled();
        t.stamps[a] = 0;
        let err = reload(&t).err();
        assert_eq!(
            err,
            Some(SnapError::Corrupt("iotlb live slot without a stamp"))
        );
    }

    #[test]
    fn restore_rejects_an_empty_slot_with_a_stamp() {
        let (mut t, _) = filled();
        let empty = t.keys.iter().position(|&k| k == INVALID_KEY).unwrap();
        t.stamps[empty] = 1;
        let err = reload(&t).err();
        assert_eq!(
            err,
            Some(SnapError::Corrupt("iotlb empty slot with a stamp"))
        );
    }

    #[test]
    fn eviction_counter_counts_only_valid_victims() {
        let mut t = Iotlb::new(2, 2);
        t.access(tag(1));
        t.access(tag(2)); // fills; no eviction yet
        assert_eq!(t.stats().evictions, 0);
        t.access(tag(3)); // evicts LRU (tag 1)
        assert_eq!(t.stats().evictions, 1);
    }
}

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
//! within a set, maintained with per-entry stamps (sets are small, so a
//! scan per access is cheap and the code stays obvious).

use hostcc_mem::PageSize;

/// A translation-cache tag: the page this entry covers.
///
/// Entries are tagged by protection domain, page base *and* page size: a
/// 2 MiB mapping and a 4 KiB mapping occupy one entry each regardless of
/// span, which is exactly why hugepages relieve IOTLB pressure (Fig. 4);
/// the domain tag keeps devices in different domains from aliasing each
/// other's translations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IotlbTag {
    /// Protection domain the translation belongs to.
    pub domain: u32,
    /// Page number (IOVA >> page shift).
    pub page_number: u64,
    /// Size of the cached leaf mapping.
    pub page_size: PageSize,
}

/// Sentinel for an empty/invalidated slot. Unreachable as a packed tag:
/// the page-size field only takes values 0–2, so bits 52–53 are never
/// both set.
const INVALID_KEY: u64 = u64::MAX;

/// Pack a tag into one u64 so a set's tags fit a single cache line and
/// the hit scan compares one word per way.
///
/// Layout: bits 0–51 page number, 52–53 page size, 54–63 domain. The
/// page number is structurally bounded (an IOVA is 64 bits, so
/// `iova >> 12 < 2^52`); the domain budget is asserted. Distinct tags
/// pack to distinct keys, so key equality *is* tag equality.
#[inline]
fn pack_tag(tag: IotlbTag) -> u64 {
    debug_assert!(tag.page_number < 1 << 52, "page number exceeds 52 bits");
    assert!(
        (tag.domain as u64) < 1 << 10,
        "domain id exceeds packing budget"
    );
    let size = match tag.page_size {
        PageSize::Size4K => 0u64,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    tag.page_number | (size << 52) | ((tag.domain as u64) << 54)
}

/// Cumulative IOTLB statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IotlbStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups requiring a page walk.
    pub misses: u64,
    /// Valid entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidations: u64,
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
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }
}

/// Set-associative, LRU-replacement translation cache.
///
/// Storage is two parallel arrays (packed tag keys and LRU stamps)
/// rather than an array of entry structs: the hit scan — the hottest
/// loop in the whole simulator, three lookups per DMA — then touches
/// one cache line of keys per 8-way set instead of four lines of
/// padded structs. A stamp of 0 means the slot is empty (live stamps
/// start at 1, since the clock pre-increments).
#[derive(Debug)]
pub struct Iotlb {
    ways: usize,
    sets: usize,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: IotlbStats,
}

// Geometry is configuration: the restored arrays must match the prebuilt
// cache's ways x sets.
hostcc_sim::snap_fields!(Iotlb { keys, stamps, clock, stats } skip { ways, sets }
    check { Iotlb::check_restored });

impl Iotlb {
    /// A cache with `entries` total entries and `ways` entries per set.
    ///
    /// `entries` must be a multiple of `ways`, and the number of sets a
    /// power of two (for mask indexing). `Iotlb::new(128, 128)` is a
    /// 128-entry fully-associative cache — the paper's testbed
    /// configuration is `Iotlb::new(128, 8)` unless stated otherwise.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "empty IOTLB");
        assert!(
            entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Iotlb {
            ways,
            sets,
            keys: vec![INVALID_KEY; entries],
            stamps: vec![0u64; entries],
            clock: 0,
            stats: IotlbStats::default(),
        }
    }

    /// Total entry count.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Entries per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_index(&self, page_number: u64, domain: u32) -> usize {
        // Mix the page number (and domain) so that large-stride access
        // patterns spread across sets; xor-fold high bits into the index.
        let pn = page_number ^ ((domain as u64) << 7);
        let h = pn ^ (pn >> 13) ^ (pn >> 29);
        (h as usize) & (self.sets - 1)
    }

    #[inline]
    fn set_of(&self, tag: IotlbTag) -> usize {
        self.set_index(tag.page_number, tag.domain)
    }

    /// Look up a translation; inserts it on miss (the walk result is cached).
    ///
    /// Returns `true` on hit, `false` on miss.
    pub fn access(&mut self, tag: IotlbTag) -> bool {
        let key = pack_tag(tag);
        let base = self.set_of(tag) * self.ways;
        self.access_slot(key, base)
    }

    /// Look up `count` consecutive pages of one region in a single call:
    /// page numbers `first_pn .. first_pn + count`, all sharing `domain`
    /// and `page_size`. Returns a bitmask of *misses* — bit `i` set means
    /// page `first_pn + i` missed (and was filled, exactly as
    /// [`access`](Iotlb::access) would have). State and statistics after
    /// this call are identical to `count` sequential `access` calls in
    /// ascending page order.
    ///
    /// The win over the scalar loop is hoisting: the size/domain bits are
    /// packed once, and the per-page tag is a single add. `count` must be
    /// at most 64 so the mask fits one word (DMA ranges in the testbed
    /// touch a handful of pages).
    pub fn access_run(
        &mut self,
        domain: u32,
        page_size: PageSize,
        first_pn: u64,
        count: u32,
    ) -> u64 {
        assert!(count <= 64, "run of {count} pages exceeds the 64-bit mask");
        let high = pack_tag(IotlbTag {
            domain,
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
            let base = self.set_index(pn, domain) * self.ways;
            if !self.access_slot(high | pn, base) {
                missed |= 1u64 << i;
            }
        }
        missed
    }

    /// The per-slot body shared by [`access`](Iotlb::access) and
    /// [`access_run`](Iotlb::access_run): recency bump, hit scan, LRU fill.
    #[inline]
    fn access_slot(&mut self, key: u64, base: usize) -> bool {
        self.clock += 1;
        self.stats.lookups += 1;
        let keys = &self.keys[base..base + self.ways];

        // Hit path: one packed compare per way over a contiguous line,
        // tracking the matching index branch-free (keys are unique within
        // a set, so at most one way matches). The branch-free scan
        // matters: the hit way is effectively random, so an early-exit
        // loop would mispredict on nearly every lookup. Index tracking
        // (not a bitmask) keeps this correct for fully-associative
        // geometries with more than 64 ways.
        let mut found = usize::MAX;
        for (i, k) in keys.iter().enumerate() {
            found = if *k == key { i } else { found };
        }
        if found != usize::MAX {
            self.stamps[base + found] = self.clock;
            self.stats.hits += 1;
            return true;
        }

        // Miss: fill (LRU victim within the set; empty slots carry stamp
        // 0 and therefore lose every comparison, and ties keep the first
        // index — both exactly as the entry-struct scan behaved).
        self.stats.misses += 1;
        let stamps = &self.stamps[base..base + self.ways];
        let mut victim = 0;
        let mut best = stamps[0];
        for (i, s) in stamps.iter().enumerate().skip(1) {
            let better = *s < best;
            victim = if better { i } else { victim };
            best = if better { *s } else { best };
        }
        if self.keys[base + victim] != INVALID_KEY {
            self.stats.evictions += 1;
        }
        self.keys[base + victim] = key;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Probe without inserting or updating recency (diagnostics only).
    pub fn probe(&self, tag: IotlbTag) -> bool {
        let key = pack_tag(tag);
        let base = self.set_of(tag) * self.ways;
        self.keys[base..base + self.ways].contains(&key)
    }

    /// Invalidate one translation (software unmap; strict-mode IOMMU).
    pub fn invalidate(&mut self, tag: IotlbTag) {
        let key = pack_tag(tag);
        let base = self.set_of(tag) * self.ways;
        for i in base..base + self.ways {
            if self.keys[i] == key {
                self.keys[i] = INVALID_KEY;
                self.stamps[i] = 0;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Invalidate everything (global flush).
    pub fn invalidate_all(&mut self) {
        for (k, s) in self.keys.iter_mut().zip(self.stamps.iter_mut()) {
            if *k != INVALID_KEY {
                *k = INVALID_KEY;
                *s = 0;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Invalidate every entry belonging to one protection domain.
    pub fn invalidate_domain(&mut self, domain: u32) {
        for (k, s) in self.keys.iter_mut().zip(self.stamps.iter_mut()) {
            if *k != INVALID_KEY && (*k >> 54) as u32 == domain {
                *k = INVALID_KEY;
                *s = 0;
                self.stats.invalidations += 1;
            }
        }
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

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        let entries = self.ways * self.sets;
        if self.keys.len() != entries || self.stamps.len() != entries {
            return Err(SnapError::Corrupt("iotlb geometry mismatch"));
        }
        if self.stamps.iter().any(|&s| s > self.clock) {
            return Err(SnapError::Corrupt("iotlb stamp beyond clock"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(pn: u64) -> IotlbTag {
        IotlbTag {
            domain: 0,
            page_number: pn,
            page_size: PageSize::Size2M,
        }
    }

    fn dtag(domain: u32, pn: u64) -> IotlbTag {
        IotlbTag {
            domain,
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
    fn domains_tag_separately_and_flush_selectively() {
        let mut t = Iotlb::new(16, 16);
        t.access(dtag(0, 5));
        assert!(!t.access(dtag(1, 5)), "same page, other domain: miss");
        assert_eq!(t.occupancy(), 2);
        t.invalidate_domain(0);
        assert!(!t.probe(dtag(0, 5)), "domain 0 flushed");
        assert!(t.probe(dtag(1, 5)), "domain 1 untouched");
    }

    #[test]
    fn page_sizes_tag_separately() {
        let mut t = Iotlb::new(8, 8);
        let t2m = IotlbTag {
            domain: 0,
            page_number: 5,
            page_size: PageSize::Size2M,
        };
        let t4k = IotlbTag {
            domain: 0,
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
        let runs: &[(u32, PageSize, u64, u32)] = &[
            (0, PageSize::Size4K, 100, 5),
            (0, PageSize::Size4K, 102, 5), // overlaps the previous run
            (1, PageSize::Size2M, 100, 3), // same pages, other domain/size
            (0, PageSize::Size4K, 0, 64),  // max-width run
            (0, PageSize::Size4K, 100, 1),
            (2, PageSize::Size1G, 7, 2),
        ];
        for &(domain, page_size, first_pn, count) in runs {
            let mask = batch.access_run(domain, page_size, first_pn, count);
            let mut expect = 0u64;
            for i in 0..count {
                let hit = scalar.access(IotlbTag {
                    domain,
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
        for &(domain, page_size, first_pn, count) in runs {
            for i in 0..count {
                let tag = IotlbTag {
                    domain,
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
        t.access_run(0, PageSize::Size4K, 0, 65);
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

//! The reference IOTLB: the per-set stamp scan.
//!
//! [`Iotlb`](crate::iotlb::Iotlb) finds hits through a hash index and victims
//! through per-set recency lists. This is the design it replaced, which
//! defines LRU directly: compare every key of the set on a lookup, and on
//! a miss fill the lowest-index empty slot, else the slot with the
//! smallest stamp. It is built only for tests, as the oracle the indexed
//! cache is checked against: for any sequence of operations both return
//! the same results, keep the same statistics and save the same
//! checkpoint image.

use crate::addr::PageSize;
use crate::iotlb::{pack_tag, set_index, IotlbStats, IotlbTag, INVALID_KEY};

/// A set-associative LRU cache that scans its set on every access.
pub(crate) struct ScanIotlb {
    ways: usize,
    sets: usize,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: IotlbStats,
}

// The same checkpointed fields, in the same order, as `Iotlb`.
hostcc_sim::snap_fields!(ScanIotlb { keys, stamps, clock, stats } skip { ways, sets });

impl ScanIotlb {
    pub(crate) fn new(entries: usize, ways: usize) -> Self {
        let sets = entries / ways;
        assert!(sets * ways == entries && sets.is_power_of_two());
        ScanIotlb {
            ways,
            sets,
            keys: vec![INVALID_KEY; entries],
            stamps: vec![0u64; entries],
            clock: 0,
            stats: IotlbStats::default(),
        }
    }

    fn base(&self, page_number: u64) -> usize {
        set_index(page_number, self.sets) * self.ways
    }

    pub(crate) fn access(&mut self, tag: IotlbTag) -> bool {
        let base = self.base(tag.page_number);
        self.access_slot(pack_tag(tag), base)
    }

    pub(crate) fn access_run(&mut self, page_size: PageSize, first_pn: u64, count: u32) -> u64 {
        let mut missed = 0u64;
        for i in 0..count {
            let page_number = first_pn + i as u64;
            let tag = IotlbTag {
                page_number,
                page_size,
            };
            if !self.access(tag) {
                missed |= 1u64 << i;
            }
        }
        missed
    }

    fn access_slot(&mut self, key: u64, base: usize) -> bool {
        self.clock += 1;
        self.stats.lookups += 1;
        let set = base..base + self.ways;
        if let Some(i) = self.keys[set.clone()].iter().position(|&k| k == key) {
            self.stamps[base + i] = self.clock;
            self.stats.hits += 1;
            return true;
        }
        // Miss: empty slots carry stamp 0 and so lose every comparison;
        // ties keep the first index.
        self.stats.misses += 1;
        let mut victim = base;
        for i in set {
            if self.stamps[i] < self.stamps[victim] {
                victim = i;
            }
        }
        if self.keys[victim] != INVALID_KEY {
            self.stats.evictions += 1;
        }
        self.keys[victim] = key;
        self.stamps[victim] = self.clock;
        false
    }

    pub(crate) fn invalidate(&mut self, tag: IotlbTag) {
        let key = pack_tag(tag);
        let base = self.base(tag.page_number);
        for i in base..base + self.ways {
            if self.keys[i] == key {
                self.keys[i] = INVALID_KEY;
                self.stamps[i] = 0;
                self.stats.invalidations += 1;
            }
        }
    }

    pub(crate) fn invalidate_all(&mut self) {
        for (k, s) in self.keys.iter_mut().zip(self.stamps.iter_mut()) {
            if *k != INVALID_KEY {
                *k = INVALID_KEY;
                *s = 0;
                self.stats.invalidations += 1;
            }
        }
    }

    pub(crate) fn stats(&self) -> IotlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iotlb::Iotlb;
    use hostcc_sim::{SimRng, Snap, SnapReader, SnapWriter};

    fn image(value: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        w.into_payload()
    }

    fn restore<T: Snap>(mut fresh: T, bytes: &[u8]) -> T {
        let mut r = SnapReader::new(bytes);
        fresh.load(&mut r).expect("a saved image restores");
        assert!(r.is_exhausted(), "restore left bytes unread");
        fresh
    }

    /// A tag drawn from a hot set that fits the cache (4 KiB pages), a
    /// warm range larger than it over all three page sizes, and rare far
    /// pages: hits, misses and evictions all occur.
    fn random_tag(rng: &mut SimRng, entries: u64) -> IotlbTag {
        let size = |rng: &mut SimRng| match rng.next_below(3) {
            0 => PageSize::Size4K,
            1 => PageSize::Size2M,
            _ => PageSize::Size1G,
        };
        let (page_number, page_size) = match rng.next_below(10) {
            0..=5 => (rng.next_below(entries / 2), PageSize::Size4K),
            6..=8 => (rng.next_below(2 * entries), size(rng)),
            _ => (rng.next_below(1 << 40), size(rng)),
        };
        IotlbTag {
            page_number,
            page_size,
        }
    }

    /// Drive the indexed cache and the scan oracle through one seeded
    /// random operation sequence, restoring both from a saved image every
    /// few thousand operations, and demand identical results throughout.
    fn differential(entries: usize, ways: usize, ops: usize, seed: u64) {
        let mut rng = SimRng::new(seed);
        let mut fast = Iotlb::new(entries, ways);
        let mut scan = ScanIotlb::new(entries, ways);
        let n = entries as u64;
        for op in 1..=ops {
            match rng.next_below(1_000) {
                0..=599 => {
                    let tag = random_tag(&mut rng, n);
                    assert_eq!(fast.access(tag), scan.access(tag), "access at op {op}");
                }
                600..=939 => {
                    let tag = random_tag(&mut rng, n);
                    let count = if rng.next_below(50) == 0 {
                        64
                    } else {
                        1 + rng.next_below(8) as u32
                    };
                    let (s, pn) = (tag.page_size, tag.page_number);
                    assert_eq!(
                        fast.access_run(s, pn, count),
                        scan.access_run(s, pn, count),
                        "access_run at op {op}"
                    );
                }
                940..=997 => {
                    let tag = random_tag(&mut rng, n);
                    fast.invalidate(tag);
                    scan.invalidate(tag);
                }
                _ => {
                    fast.invalidate_all();
                    scan.invalidate_all();
                }
            }
            assert_eq!(fast.stats(), scan.stats(), "stats at op {op}");
            if op % 3_000 == 0 || op == ops {
                let bytes = image(&fast);
                assert_eq!(bytes, image(&scan), "images at op {op}");
                fast = restore(Iotlb::new(entries, ways), &bytes);
                scan = restore(ScanIotlb::new(entries, ways), &bytes);
            }
        }
        // The sequence exercised every path it is meant to compare.
        let s = fast.stats();
        assert!(s.hits > s.lookups / 4 && s.misses > s.lookups / 4, "{s:?}");
        assert!(s.evictions > 0 && s.invalidations > 0, "{s:?}");
    }

    #[test]
    fn indexed_iotlb_matches_the_scan_at_8_ways() {
        differential(128, 8, 40_000, 1);
    }

    #[test]
    fn indexed_iotlb_matches_the_scan_fully_associative_128() {
        differential(128, 128, 40_000, 2);
    }

    #[test]
    fn indexed_iotlb_matches_the_scan_fully_associative_512() {
        differential(512, 512, 40_000, 3);
    }

    #[test]
    fn indexed_iotlb_matches_the_scan_at_4_ways() {
        differential(64, 4, 40_000, 4);
    }
}

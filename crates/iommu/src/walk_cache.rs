//! Page-walk cache (PWC).
//!
//! Real IOMMUs cache intermediate page-table entries so that an IOTLB miss
//! does not always cost a full multi-level walk — the paper notes a miss
//! "can trigger one or more memory accesses (depending on what page entry
//! level was already cached)". We model a PWC that caches the *path* down
//! to the page-directory level: a PWC hit leaves only the leaf level(s) to
//! fetch from memory.

/// LRU cache of intermediate walk paths, keyed by the covered region.
///
/// For a 4 KiB leaf the key is the 2 MiB-aligned region (the PD entry that
/// points at the PT); for a 2 MiB leaf it is the 1 GiB-aligned region (the
/// PDPT entry that points at the PD).
///
/// Storage is two parallel arrays scanned linearly. A PWC is tiny (tens
/// of entries, a few cache lines of keys) and it is consulted on *every*
/// IOTLB miss — in the paper's thrash regimes that is nearly every DMA —
/// so a flat scan beats hashing the key on each probe. LRU stamps are
/// unique (the clock advances per probe), so the eviction victim is
/// deterministic.
#[derive(Debug)]
pub struct WalkCache {
    capacity: usize,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

hostcc_sim::snap_fields!(WalkCache { keys, stamps, clock, hits, misses } skip { capacity }
    check { WalkCache::check_restored });

impl WalkCache {
    /// A PWC with `capacity` entries; capacity 0 disables the cache.
    pub fn new(capacity: usize) -> Self {
        WalkCache {
            capacity,
            keys: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether the cache is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Look up the walk path for `key`; inserts on miss. Returns hit/miss.
    pub fn access(&mut self, key: u64) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        self.clock += 1;
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            self.stamps[i] = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.keys.len() >= self.capacity {
            // Evict the least recently used key (unique minimum stamp).
            let mut victim = 0;
            for i in 1..self.stamps.len() {
                if self.stamps[i] < self.stamps[victim] {
                    victim = i;
                }
            }
            self.keys[victim] = key;
            self.stamps[victim] = self.clock;
        } else {
            self.keys.push(key);
            self.stamps.push(self.clock);
        }
        false
    }

    /// Drop all cached paths.
    pub fn invalidate_all(&mut self) {
        self.keys.clear();
        self.stamps.clear();
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Current number of cached paths.
    pub fn occupancy(&self) -> usize {
        self.keys.len()
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if self.keys.len() > self.capacity || self.stamps.len() != self.keys.len() {
            return Err(SnapError::Corrupt("walk cache overfull"));
        }
        if self.stamps.iter().any(|&s| s > self.clock) {
            return Err(SnapError::Corrupt("walk-cache stamp beyond clock"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = WalkCache::new(0);
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert_eq!(c.stats(), (0, 2));
        assert!(!c.is_enabled());
    }

    #[test]
    fn hit_after_fill() {
        let mut c = WalkCache::new(4);
        assert!(!c.access(10));
        assert!(c.access(10));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction() {
        let mut c = WalkCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU
        c.access(3); // evicts 2
        assert!(c.access(1), "1 was hot");
        assert!(!c.access(2), "2 was evicted");
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = WalkCache::new(4);
        c.access(1);
        c.invalidate_all();
        assert!(!c.access(1));
        assert_eq!(c.occupancy(), 1);
    }
}

//! The IOMMU device model: page table + IOTLB + page-walk cache, with
//! per-translation cost accounting.
//!
//! On every NIC-initiated DMA the root complex asks the IOMMU to translate
//! the I/O virtual address. The IOMMU returns the physical address plus a
//! *cost receipt*: how many IOTLB lookups were needed for the byte range,
//! how many missed, and how many page-table memory accesses the walks
//! performed. The caller (the root-complex pipeline in `hostcc-host`)
//! converts those memory accesses into latency using the memory-subsystem
//! model, so walk cost automatically inflates when the memory bus is
//! contended — the coupling at the heart of the paper.

use crate::addr::{Iova, PageSize, PhysAddr};
use crate::iotlb::{Iotlb, IotlbStats, IotlbTag};
use crate::page_table::{Fault, IoPageTable, MapError};
use crate::walk_cache::WalkCache;

/// IOMMU configuration.
#[derive(Debug, Clone)]
pub struct IommuConfig {
    /// Memory protection on/off. When off, DMA addresses pass through
    /// untranslated and at zero cost (the paper's "IOMMU OFF" baseline).
    pub enabled: bool,
    /// Total IOTLB entries (paper testbed: 128 per IOMMU).
    pub iotlb_entries: usize,
    /// IOTLB associativity (entries per set).
    pub iotlb_ways: usize,
    /// Latency of an IOTLB hit, nanoseconds ("a few ns").
    pub(crate) iotlb_hit_ns: u64,
    /// Page-walk cache entries (0 disables the PWC).
    pub(crate) pwc_entries: usize,
}

impl Default for IommuConfig {
    fn default() -> Self {
        IommuConfig {
            enabled: true,
            iotlb_entries: 128,
            iotlb_ways: 8,
            iotlb_hit_ns: 2,
            pwc_entries: 32,
        }
    }
}

/// Cost receipt for translating one DMA byte range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationCost {
    /// IOTLB lookups performed (== pages touched by the range).
    pub(crate) iotlb_lookups: u32,
    /// Lookups that missed and required a walk.
    pub(crate) iotlb_misses: u32,
    /// Page-table memory accesses performed by the walks (after PWC).
    pub(crate) walk_memory_accesses: u32,
    /// Fixed IOTLB lookup latency to charge, nanoseconds.
    pub(crate) lookup_ns: u64,
}

impl TranslationCost {
    /// Accumulate another receipt (multiple DMAs of one packet).
    pub(crate) fn add(&mut self, other: TranslationCost) {
        self.iotlb_lookups += other.iotlb_lookups;
        self.iotlb_misses += other.iotlb_misses;
        self.walk_memory_accesses += other.walk_memory_accesses;
        self.lookup_ns += other.lookup_ns;
    }
}

/// Cumulative IOMMU statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IommuStats {
    /// Translation requests (DMA ranges).
    pub(crate) translations: u64,
    /// Translation faults (unmapped IOVA) — indicates a simulator bug or a
    /// deliberately-injected fault.
    pub(crate) faults: u64,
    /// Total page-table memory accesses performed.
    pub(crate) walk_memory_accesses: u64,
}

hostcc_sim::snap_fields!(IommuStats {
    translations,
    faults,
    walk_memory_accesses
});

/// The IOMMU: the NIC's protection domain (one I/O page table) with its
/// IOTLB and page-walk cache, as in the paper's testbed.
#[derive(Debug)]
pub struct Iommu {
    config: IommuConfig,
    table: IoPageTable,
    iotlb: Iotlb,
    pwc: WalkCache,
    stats: IommuStats,
}

hostcc_sim::snap_fields!(Iommu { iotlb, pwc, stats } skip { config, table });

impl Iommu {
    /// Build an IOMMU with the given configuration and an empty page table.
    pub fn new(config: IommuConfig) -> Self {
        let iotlb = Iotlb::new(config.iotlb_entries, config.iotlb_ways);
        let pwc = WalkCache::new(config.pwc_entries);
        Iommu {
            config,
            table: IoPageTable::new(),
            iotlb,
            pwc,
            stats: IommuStats::default(),
        }
    }

    /// Whether memory protection is enabled.
    pub(crate) fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Install a mapping range (driver registration path; "loose mode"
    /// keeps these alive for the lifetime of the run).
    pub fn map_range(
        &mut self,
        iova: Iova,
        pa: PhysAddr,
        len: u64,
        size: PageSize,
    ) -> Result<u64, MapError> {
        self.table.map_range(iova, pa, len, size)
    }

    /// Mutable access to the page table (registration helpers).
    pub(crate) fn page_table_mut(&mut self) -> &mut IoPageTable {
        &mut self.table
    }

    /// Number of leaf mappings currently installed.
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.table.mapped_pages()
    }

    /// Translate the DMA byte range `[iova, iova+len)` whose mapping page
    /// size the caller already knows, returning its cost receipt.
    ///
    /// Performs one IOTLB lookup per page the range touches; every miss
    /// walks the page table, with the page-walk cache trimming the upper
    /// levels. With the IOMMU disabled the translation is free.
    ///
    /// The hot datapath translates the same statically-registered regions
    /// on every packet; the physical address is never consumed (the
    /// simulator models latency, not data movement) and the page size is a
    /// run constant per region. This path therefore skips a
    /// learn-the-page-size table descent on every call and touches the
    /// page table only when a page actually missed the IOTLB. On a mapped
    /// range the receipt, the IOTLB/PWC state and every statistic come
    /// out identical to a full translation that walks the table first
    /// (the unit tests keep that reference); `debug_assert` cross-checks
    /// the page-size hint against the installed mapping.
    ///
    /// Divergence on *unmapped* ranges: the IOTLB is probed (and filled)
    /// before the fault surfaces, where the scalar path faults first. The
    /// testbed treats translation faults as fatal configuration errors,
    /// so the divergence is unobservable in any completed run.
    pub fn translate_range_cost(
        &mut self,
        iova: Iova,
        len: u64,
        page_size: PageSize,
    ) -> Result<TranslationCost, Fault> {
        if !self.config.enabled {
            return Ok(TranslationCost::default());
        }
        self.stats.translations += 1;
        debug_assert!(
            self.table
                .translate(iova)
                .map(|t| t.page_size == page_size)
                .unwrap_or(true),
            "page-size hint disagrees with the installed mapping"
        );

        let first_pn = iova.page_number(page_size);
        let last_pn = if len == 0 {
            first_pn
        } else {
            iova.add(len - 1).page_number(page_size)
        };
        let count = (last_pn - first_pn + 1) as u32;
        let mut cost = TranslationCost {
            iotlb_lookups: count,
            iotlb_misses: 0,
            walk_memory_accesses: 0,
            lookup_ns: self.config.iotlb_hit_ns * count as u64,
        };
        let mut missed = self.iotlb.access_run(page_size, first_pn, count);
        if missed != 0 {
            // A page actually needs a walk: validate the mapping (this is
            // where an unmapped range faults) and charge the PWC-trimmed
            // walk for each missing page in ascending order.
            self.table.translate(iova).inspect_err(|_| {
                self.stats.faults += 1;
            })?;
            cost.iotlb_misses = missed.count_ones();
            let full_walk = page_size.walk_levels();
            while missed != 0 {
                let pn = first_pn + missed.trailing_zeros() as u64;
                missed &= missed - 1;
                // PWC caches the path down to the directory level:
                //  - 4 KiB leaf: key = 2 MiB region; hit -> 1 access (PT leaf),
                //    miss -> 4 accesses (PML4, PDPT, PD, PT).
                //  - 2 MiB leaf: key = 1 GiB region; hit -> 1 access (PD leaf),
                //    miss -> 3 accesses (PML4, PDPT, PD).
                let pwc_key = match page_size {
                    PageSize::Size4K => (pn << 12) >> 21,
                    PageSize::Size2M => ((pn << 21) >> 30) | (1 << 62),
                    PageSize::Size1G => (pn << 30) >> 39 | (1 << 63),
                };
                cost.walk_memory_accesses += if self.pwc.access(pwc_key) {
                    1
                } else {
                    full_walk
                };
            }
            self.stats.walk_memory_accesses += cost.walk_memory_accesses as u64;
        }
        Ok(cost)
    }

    /// Invalidate the cached translation for one page (strict-mode
    /// unmap).
    pub(crate) fn invalidate_page(&mut self, iova: Iova, size: PageSize) {
        self.iotlb.invalidate(IotlbTag {
            page_number: iova.page_number(size),
            page_size: size,
        });
    }

    /// Domain-wide invalidation of IOTLB and PWC.
    pub(crate) fn invalidate_all(&mut self) {
        self.iotlb.invalidate_all();
        self.pwc.invalidate_all();
    }

    /// IOTLB statistics.
    pub(crate) fn iotlb_stats(&self) -> IotlbStats {
        self.iotlb.stats()
    }

    /// IOMMU statistics.
    pub(crate) fn stats(&self) -> IommuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::pages_touched;

    /// A successful DMA translation.
    #[derive(Debug, Clone, Copy)]
    struct DmaTranslation {
        /// Physical address of the first byte.
        pa: PhysAddr,
        /// Cost receipt for the whole range.
        cost: TranslationCost,
    }

    impl Iommu {
        /// The reference translation: resolve the first page to learn
        /// the mapping size, then look up and walk page by page. With the
        /// IOMMU disabled this is an identity translation at zero cost.
        fn translate_range(&mut self, iova: Iova, len: u64) -> Result<DmaTranslation, Fault> {
            if !self.config.enabled {
                return Ok(DmaTranslation {
                    pa: PhysAddr(iova.as_u64()),
                    cost: TranslationCost::default(),
                });
            }
            self.stats.translations += 1;

            // Resolve the first page to learn the mapping size; regions are
            // registered with a uniform page size, so the rest of the range
            // shares it.
            let first = self.table.translate(iova).inspect_err(|_| {
                self.stats.faults += 1;
            })?;
            let page_size = first.page_size;

            let mut cost = TranslationCost::default();
            for pn in pages_touched(iova, len, page_size) {
                cost.iotlb_lookups += 1;
                cost.lookup_ns += self.config.iotlb_hit_ns;
                let tag = IotlbTag {
                    page_number: pn,
                    page_size,
                };
                if self.iotlb.access(tag) {
                    continue;
                }
                cost.iotlb_misses += 1;
                let full_walk = page_size.walk_levels();
                let pwc_key = match page_size {
                    PageSize::Size4K => (pn << 12) >> 21, // 2 MiB region
                    PageSize::Size2M => ((pn << 21) >> 30) | (1 << 62), // 1 GiB region
                    PageSize::Size1G => (pn << 30) >> 39 | (1 << 63),
                };
                let accesses = if self.pwc.access(pwc_key) {
                    1
                } else {
                    full_walk
                };
                cost.walk_memory_accesses += accesses;
            }
            self.stats.walk_memory_accesses += cost.walk_memory_accesses as u64;
            Ok(DmaTranslation { pa: first.pa, cost })
        }
    }

    fn mapped_iommu(enabled: bool, region_bytes: u64, size: PageSize) -> Iommu {
        let mut io = Iommu::new(IommuConfig {
            enabled,
            ..IommuConfig::default()
        });
        io.map_range(Iova(0x100_0000), PhysAddr(0x8000_0000), region_bytes, size)
            .unwrap();
        io
    }

    #[test]
    fn disabled_iommu_is_identity_and_free() {
        let mut io = mapped_iommu(false, 4 << 20, PageSize::Size2M);
        let t = io.translate_range(Iova(0xdead_b000), 4096).unwrap();
        assert_eq!(t.pa, PhysAddr(0xdead_b000));
        assert_eq!(t.cost, TranslationCost::default());
        assert_eq!(io.stats().translations, 0);
    }

    #[test]
    fn enabled_iommu_translates_and_charges() {
        let mut io = mapped_iommu(true, 4 << 20, PageSize::Size2M);
        let t = io.translate_range(Iova(0x100_0000 + 0x1234), 4096).unwrap();
        assert_eq!(t.pa, PhysAddr(0x8000_0000 + 0x1234));
        assert_eq!(t.cost.iotlb_lookups, 1);
        assert_eq!(t.cost.iotlb_misses, 1, "cold cache");
        assert!(t.cost.walk_memory_accesses >= 1);
        // Second access to the same page: hit, no walk.
        let t2 = io.translate_range(Iova(0x100_0000 + 0x5678), 4096).unwrap();
        assert_eq!(t2.cost.iotlb_misses, 0);
        assert_eq!(t2.cost.walk_memory_accesses, 0);
    }

    #[test]
    fn unmapped_address_faults() {
        let mut io = mapped_iommu(true, 4 << 20, PageSize::Size2M);
        assert!(io.translate_range(Iova(0x10), 64).is_err());
        assert_eq!(io.stats().faults, 1);
    }

    #[test]
    fn range_straddling_4k_pages_costs_two_lookups() {
        let mut io = mapped_iommu(true, 4 << 20, PageSize::Size4K);
        // 4096 bytes starting mid-page touch two 4K pages.
        let t = io.translate_range(Iova(0x100_0000 + 0x800), 4096).unwrap();
        assert_eq!(t.cost.iotlb_lookups, 2);
        // Same range within one 2M hugepage: one lookup.
        let mut io2 = mapped_iommu(true, 4 << 20, PageSize::Size2M);
        let t2 = io2.translate_range(Iova(0x100_0000 + 0x800), 4096).unwrap();
        assert_eq!(t2.cost.iotlb_lookups, 1);
    }

    #[test]
    fn pwc_trims_walk_for_neighbouring_pages() {
        let mut io = mapped_iommu(true, 4 << 20, PageSize::Size4K);
        // First 4K page in a 2M region: full walk (4 accesses).
        let t1 = io.translate_range(Iova(0x100_0000), 64).unwrap();
        assert_eq!(t1.cost.walk_memory_accesses, 4);
        // Next 4K page shares the PD path: PWC hit -> 1 access.
        let t2 = io.translate_range(Iova(0x100_1000), 64).unwrap();
        assert_eq!(t2.cost.walk_memory_accesses, 1);
    }

    #[test]
    fn hugepage_walk_is_shallower() {
        let mut io = mapped_iommu(true, 4 << 20, PageSize::Size2M);
        let t = io.translate_range(Iova(0x100_0000), 64).unwrap();
        assert_eq!(t.cost.walk_memory_accesses, 3, "2M leaf full walk");
        // Second hugepage in the same 1G region: PWC hit -> 1 access.
        let t2 = io.translate_range(Iova(0x120_0000), 64).unwrap();
        assert_eq!(t2.cost.walk_memory_accesses, 1);
    }

    #[test]
    fn invalidate_page_forces_refill() {
        let mut io = mapped_iommu(true, 4 << 20, PageSize::Size2M);
        io.translate_range(Iova(0x100_0000), 64).unwrap();
        io.invalidate_page(Iova(0x100_0000), PageSize::Size2M);
        let t = io.translate_range(Iova(0x100_0000), 64).unwrap();
        assert_eq!(t.cost.iotlb_misses, 1);
    }

    #[test]
    fn working_set_overflow_generates_steady_misses() {
        // 256 hugepages over a 128-entry IOTLB, cyclic access: thrash.
        let mut io = Iommu::new(IommuConfig::default());
        io.map_range(Iova(0), PhysAddr(0), 512 << 20, PageSize::Size2M)
            .unwrap();
        for _ in 0..3 {
            for p in 0..256u64 {
                io.translate_range(Iova(p * (2 << 20)), 4096).unwrap();
            }
        }
        let s = io.iotlb_stats();
        assert!(
            s.miss_ratio() > 0.9,
            "expected thrashing, miss ratio {}",
            s.miss_ratio()
        );
    }

    /// The cost-only path must be indistinguishable from the full
    /// translation on mapped ranges: same receipts, same cache state,
    /// same statistics, for any interleaving of the two.
    #[test]
    fn cost_only_path_matches_translate_range() {
        for size in [PageSize::Size4K, PageSize::Size2M] {
            let mut full = mapped_iommu(true, 64 << 20, size);
            let mut cost = mapped_iommu(true, 64 << 20, size);
            // Sweep a working set larger than the IOTLB so the comparison
            // covers cold misses, hits, PWC hits and LRU evictions.
            let ranges: Vec<(u64, u64)> = (0..300u64)
                .map(|i| {
                    let off = (i * 7919) % (60 << 20);
                    let len = 64 + (i % 5) * 4096;
                    (off, len)
                })
                .collect();
            for &(off, len) in &ranges {
                let iova = Iova(0x100_0000 + off);
                let a = full.translate_range(iova, len).unwrap();
                let b = cost.translate_range_cost(iova, len, size).unwrap();
                assert_eq!(a.cost, b, "receipts diverged at off={off} len={len}");
            }
            let (fs, cs) = (full.iotlb_stats(), cost.iotlb_stats());
            assert_eq!(fs.lookups, cs.lookups);
            assert_eq!(fs.hits, cs.hits);
            assert_eq!(fs.misses, cs.misses);
            assert_eq!(fs.evictions, cs.evictions);
            assert_eq!(full.stats().translations, cost.stats().translations);
            assert_eq!(
                full.stats().walk_memory_accesses,
                cost.stats().walk_memory_accesses
            );
            // Final cache state is interchangeable: replaying one more
            // range on each yields the same receipt again.
            let a = full.translate_range(Iova(0x100_0000), 4096).unwrap();
            let b = cost
                .translate_range_cost(Iova(0x100_0000), 4096, size)
                .unwrap();
            assert_eq!(a.cost, b);
        }
    }

    #[test]
    fn cost_only_path_is_free_when_disabled() {
        let mut io = mapped_iommu(false, 4 << 20, PageSize::Size2M);
        let c = io
            .translate_range_cost(Iova(0xdead_b000), 4096, PageSize::Size2M)
            .unwrap();
        assert_eq!(c, TranslationCost::default());
        assert_eq!(io.stats().translations, 0);
    }

    #[test]
    fn cost_only_path_faults_on_unmapped_miss() {
        let mut io = mapped_iommu(true, 4 << 20, PageSize::Size4K);
        let err = io.translate_range_cost(Iova(0x10), 64, PageSize::Size4K);
        assert!(err.is_err());
        assert_eq!(io.stats().faults, 1);
    }

    #[test]
    fn cost_receipts_accumulate() {
        let mut a = TranslationCost {
            iotlb_lookups: 1,
            iotlb_misses: 1,
            walk_memory_accesses: 3,
            lookup_ns: 2,
        };
        a.add(TranslationCost {
            iotlb_lookups: 2,
            iotlb_misses: 0,
            walk_memory_accesses: 0,
            lookup_ns: 4,
        });
        assert_eq!(a.iotlb_lookups, 3);
        assert_eq!(a.iotlb_misses, 1);
        assert_eq!(a.walk_memory_accesses, 3);
        assert_eq!(a.lookup_ns, 6);
    }
}

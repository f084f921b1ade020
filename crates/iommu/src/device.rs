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

use crate::iotlb::{Iotlb, IotlbStats, IotlbTag};
use crate::walk_cache::WalkCache;
use hostcc_mem::{pages_touched, Fault, IoPageTable, Iova, MapError, PageSize, PhysAddr};

/// A protection domain: one isolated I/O address space (typically one per
/// device or per VM passthrough assignment). The NIC of the paper's
/// testbed lives alone in domain 0; multi-device hosts attach each device
/// to its own domain and all domains share the IOTLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The default domain (the NIC's, in the testbed).
    pub const DEFAULT: DomainId = DomainId(0);
}

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
    pub iotlb_hit_ns: u64,
    /// Page-walk cache entries (0 disables the PWC).
    pub pwc_entries: usize,
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
    pub iotlb_lookups: u32,
    /// Lookups that missed and required a walk.
    pub iotlb_misses: u32,
    /// Page-table memory accesses performed by the walks (after PWC).
    pub walk_memory_accesses: u32,
    /// Fixed IOTLB lookup latency to charge, nanoseconds.
    pub lookup_ns: u64,
}

impl TranslationCost {
    /// Accumulate another receipt (multiple DMAs of one packet).
    pub fn add(&mut self, other: TranslationCost) {
        self.iotlb_lookups += other.iotlb_lookups;
        self.iotlb_misses += other.iotlb_misses;
        self.walk_memory_accesses += other.walk_memory_accesses;
        self.lookup_ns += other.lookup_ns;
    }
}

/// A successful DMA translation.
#[derive(Debug, Clone, Copy)]
pub struct DmaTranslation {
    /// Physical address of the first byte.
    pub pa: PhysAddr,
    /// Cost receipt for the whole range.
    pub cost: TranslationCost,
}

/// Cumulative IOMMU statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IommuStats {
    /// Translation requests (DMA ranges).
    pub translations: u64,
    /// Translation faults (unmapped IOVA) — indicates a simulator bug or a
    /// deliberately-injected fault.
    pub faults: u64,
    /// Total page-table memory accesses performed.
    pub walk_memory_accesses: u64,
}

hostcc_sim::snap_fields!(IommuStats {
    translations,
    faults,
    walk_memory_accesses
});

/// The IOMMU: one or more protection domains sharing an IOTLB and a
/// page-walk cache. The paper's testbed uses a single domain (the NIC's);
/// additional domains model multi-device hosts.
#[derive(Debug)]
pub struct Iommu {
    config: IommuConfig,
    tables: Vec<IoPageTable>,
    iotlb: Iotlb,
    pwc: WalkCache,
    stats: IommuStats,
}

hostcc_sim::snap_fields!(Iommu { iotlb, pwc, stats } skip { config, tables });

impl Iommu {
    /// Build an IOMMU with the given configuration and an empty page table.
    pub fn new(config: IommuConfig) -> Self {
        let iotlb = Iotlb::new(config.iotlb_entries, config.iotlb_ways);
        let pwc = WalkCache::new(config.pwc_entries);
        Iommu {
            config,
            tables: vec![IoPageTable::new()],
            iotlb,
            pwc,
            stats: IommuStats::default(),
        }
    }

    /// Create a new (empty) protection domain and return its id.
    pub fn create_domain(&mut self) -> DomainId {
        self.tables.push(IoPageTable::new());
        DomainId(self.tables.len() as u32 - 1)
    }

    /// Number of protection domains.
    pub fn domain_count(&self) -> usize {
        self.tables.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &IommuConfig {
        &self.config
    }

    /// Whether memory protection is enabled.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Install a mapping range in the default domain (driver registration
    /// path; "loose mode" keeps these alive for the lifetime of the run).
    pub fn map_range(
        &mut self,
        iova: Iova,
        pa: PhysAddr,
        len: u64,
        size: PageSize,
    ) -> Result<u64, MapError> {
        self.map_range_in(DomainId::DEFAULT, iova, pa, len, size)
    }

    /// Install a mapping range in a specific domain.
    pub fn map_range_in(
        &mut self,
        domain: DomainId,
        iova: Iova,
        pa: PhysAddr,
        len: u64,
        size: PageSize,
    ) -> Result<u64, MapError> {
        self.tables[domain.0 as usize].map_range(iova, pa, len, size)
    }

    /// Mutable access to the default domain's page table (registration
    /// helpers).
    pub fn page_table_mut(&mut self) -> &mut IoPageTable {
        &mut self.tables[0]
    }

    /// Number of leaf mappings currently installed across all domains.
    pub fn mapped_pages(&self) -> u64 {
        self.tables.iter().map(|t| t.mapped_pages()).sum()
    }

    /// Translate the DMA byte range `[iova, iova+len)`.
    ///
    /// Performs one IOTLB lookup per page the range touches; every miss
    /// walks the page table, with the page-walk cache trimming the upper
    /// levels. With the IOMMU disabled this is an identity translation at
    /// zero cost.
    pub fn translate_range(&mut self, iova: Iova, len: u64) -> Result<DmaTranslation, Fault> {
        self.translate_range_in(DomainId::DEFAULT, iova, len)
    }

    /// Translate a DMA byte range within a specific protection domain.
    pub fn translate_range_in(
        &mut self,
        domain: DomainId,
        iova: Iova,
        len: u64,
    ) -> Result<DmaTranslation, Fault> {
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
        let first = self.tables[domain.0 as usize]
            .translate(iova)
            .inspect_err(|_| {
                self.stats.faults += 1;
            })?;
        let page_size = first.page_size;

        let mut cost = TranslationCost::default();
        for pn in pages_touched(iova, len, page_size) {
            cost.iotlb_lookups += 1;
            cost.lookup_ns += self.config.iotlb_hit_ns;
            let tag = IotlbTag {
                domain: domain.0,
                page_number: pn,
                page_size,
            };
            if self.iotlb.access(tag) {
                continue;
            }
            cost.iotlb_misses += 1;
            // Walk. PWC caches the path down to the directory level:
            //  - 4 KiB leaf: key = 2 MiB region; hit -> 1 access (PT leaf),
            //    miss -> 4 accesses (PML4, PDPT, PD, PT).
            //  - 2 MiB leaf: key = 1 GiB region; hit -> 1 access (PD leaf),
            //    miss -> 3 accesses (PML4, PDPT, PD).
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

    /// Cost-only translation of a default-domain DMA byte range whose
    /// mapping page size the caller already knows.
    ///
    /// The hot datapath translates the same statically-registered regions
    /// on every packet; the physical address is never consumed (the
    /// simulator models latency, not data movement) and the page size is a
    /// run constant per region. This path therefore skips the
    /// learn-the-page-size table descent [`translate_range`](Self::translate_range) performs on
    /// every call and touches the page table only when a page actually
    /// missed the IOTLB. On a mapped range the receipt, the IOTLB/PWC
    /// state and every statistic come out identical to
    /// [`translate_range`](Self::translate_range); `debug_assert` cross-checks the page-size hint
    /// against the installed mapping.
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
            self.tables[0]
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
        let mut missed = self
            .iotlb
            .access_run(DomainId::DEFAULT.0, page_size, first_pn, count);
        if missed != 0 {
            // A page actually needs a walk: validate the mapping (this is
            // where an unmapped range faults) and charge the PWC-trimmed
            // walk for each missing page in ascending order.
            self.tables[0].translate(iova).inspect_err(|_| {
                self.stats.faults += 1;
            })?;
            cost.iotlb_misses = missed.count_ones();
            let full_walk = page_size.walk_levels();
            while missed != 0 {
                let pn = first_pn + missed.trailing_zeros() as u64;
                missed &= missed - 1;
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

    /// Invalidate the cached translation for one page of the default
    /// domain (strict-mode unmap).
    pub fn invalidate_page(&mut self, iova: Iova, size: PageSize) {
        self.iotlb.invalidate(IotlbTag {
            domain: DomainId::DEFAULT.0,
            page_number: iova.page_number(size),
            page_size: size,
        });
    }

    /// Invalidate every cached translation of one domain (device detach,
    /// VM teardown).
    pub fn invalidate_domain(&mut self, domain: DomainId) {
        self.iotlb.invalidate_domain(domain.0);
    }

    /// Domain-wide invalidation of IOTLB and PWC.
    pub fn invalidate_all(&mut self) {
        self.iotlb.invalidate_all();
        self.pwc.invalidate_all();
    }

    /// IOTLB statistics.
    pub fn iotlb_stats(&self) -> IotlbStats {
        self.iotlb.stats()
    }

    /// IOMMU statistics.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// Reset all statistics (warm-up discard); cache contents are kept.
    pub fn reset_stats(&mut self) {
        self.iotlb.reset_stats();
        self.stats = IommuStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

#[cfg(test)]
mod domain_tests {
    use super::*;

    #[test]
    fn domains_are_isolated_address_spaces() {
        let mut io = Iommu::new(IommuConfig::default());
        let d1 = io.create_domain();
        // The *same* IOVA maps to different physical pages per domain.
        io.map_range(
            Iova(0x10_0000),
            PhysAddr(0x1000_0000),
            4096,
            PageSize::Size4K,
        )
        .unwrap();
        io.map_range_in(
            d1,
            Iova(0x10_0000),
            PhysAddr(0x2000_0000),
            4096,
            PageSize::Size4K,
        )
        .unwrap();
        let a = io.translate_range(Iova(0x10_0000), 64).unwrap();
        let b = io.translate_range_in(d1, Iova(0x10_0000), 64).unwrap();
        assert_eq!(a.pa, PhysAddr(0x1000_0000));
        assert_eq!(b.pa, PhysAddr(0x2000_0000));
        assert_eq!(io.domain_count(), 2);
    }

    #[test]
    fn iotlb_entries_do_not_alias_across_domains() {
        let mut io = Iommu::new(IommuConfig::default());
        let d1 = io.create_domain();
        io.map_range(Iova(0), PhysAddr(0x1000_0000), 4096, PageSize::Size4K)
            .unwrap();
        io.map_range_in(d1, Iova(0), PhysAddr(0x2000_0000), 4096, PageSize::Size4K)
            .unwrap();
        // Warm domain 0's entry; the same page number in d1 must still miss.
        io.translate_range(Iova(0), 64).unwrap();
        let b = io.translate_range_in(d1, Iova(0), 64).unwrap();
        assert_eq!(b.cost.iotlb_misses, 1, "no cross-domain hit");
        // Both now cached independently.
        assert_eq!(
            io.translate_range(Iova(0), 64).unwrap().cost.iotlb_misses,
            0
        );
        assert_eq!(
            io.translate_range_in(d1, Iova(0), 64)
                .unwrap()
                .cost
                .iotlb_misses,
            0
        );
    }

    #[test]
    fn unmapped_domain_faults_independently() {
        let mut io = Iommu::new(IommuConfig::default());
        let d1 = io.create_domain();
        io.map_range(Iova(0x1000), PhysAddr(0x1000), 4096, PageSize::Size4K)
            .unwrap();
        assert!(io.translate_range(Iova(0x1000), 64).is_ok());
        assert!(io.translate_range_in(d1, Iova(0x1000), 64).is_err());
    }

    #[test]
    fn domain_selective_invalidation() {
        let mut io = Iommu::new(IommuConfig::default());
        let d1 = io.create_domain();
        io.map_range(Iova(0), PhysAddr(0x1000_0000), 4096, PageSize::Size4K)
            .unwrap();
        io.map_range_in(d1, Iova(0), PhysAddr(0x2000_0000), 4096, PageSize::Size4K)
            .unwrap();
        io.translate_range(Iova(0), 64).unwrap();
        io.translate_range_in(d1, Iova(0), 64).unwrap();
        io.invalidate_domain(d1);
        // d1 refills; d0 still hits.
        assert_eq!(
            io.translate_range_in(d1, Iova(0), 64)
                .unwrap()
                .cost
                .iotlb_misses,
            1
        );
        assert_eq!(
            io.translate_range(Iova(0), 64).unwrap().cost.iotlb_misses,
            0
        );
    }

    #[test]
    fn shared_iotlb_capacity_couples_domains() {
        // Two busy domains contend for the same 128 entries: a second
        // device's translations evict the first's — the multi-device
        // pressure scenario.
        let mut io = Iommu::new(IommuConfig {
            iotlb_entries: 128,
            iotlb_ways: 128,
            ..IommuConfig::default()
        });
        let d1 = io.create_domain();
        io.map_range(Iova(0), PhysAddr(0), 512 << 20, PageSize::Size2M)
            .unwrap();
        io.map_range_in(d1, Iova(0), PhysAddr(1 << 33), 512 << 20, PageSize::Size2M)
            .unwrap();
        // Fill with domain 0 (96 pages), then touch 96 pages of domain 1.
        for p in 0..96u64 {
            io.translate_range(Iova(p * (2 << 20)), 64).unwrap();
        }
        io.reset_stats();
        for p in 0..96u64 {
            io.translate_range_in(d1, Iova(p * (2 << 20)), 64).unwrap();
        }
        // Re-touch domain 0: many of its entries were evicted.
        for p in 0..96u64 {
            io.translate_range(Iova(p * (2 << 20)), 64).unwrap();
        }
        let s = io.iotlb_stats();
        assert!(
            s.misses > 96,
            "cross-domain capacity pressure expected, misses {}",
            s.misses
        );
    }
}

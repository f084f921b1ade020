//! Registered memory regions and simple address-space allocators.
//!
//! In the paper's setup (§3.1) each receiver thread registers a fixed-size
//! memory region with the IOMMU up front ("loose mode") and keeps the
//! mapping alive, so the number of live IOMMU entries scales with
//! `threads × region_size / page_size`. The [`RegionRegistry`] reproduces
//! exactly that: it allocates IOVA and physical ranges and installs the
//! mappings into an [`IoPageTable`].

use crate::addr::{align_up, Iova, PageSize, PhysAddr};
use crate::page_table::{IoPageTable, MapError};

/// Bump allocator for I/O virtual address space.
///
/// Real IOMMU drivers allocate IOVAs from per-domain ranges; a bump
/// allocator reproduces the property that matters here — distinct regions
/// occupy disjoint, mostly-contiguous ranges.
#[derive(Debug)]
pub(crate) struct IovaAllocator {
    next: u64,
}

impl IovaAllocator {
    /// Start allocating at `base` (commonly 0 or a device-specific offset).
    pub(crate) fn new(base: u64) -> Self {
        IovaAllocator { next: base }
    }

    /// Allocate `len` bytes aligned to `align` (power of two).
    pub(crate) fn alloc(&mut self, len: u64, align: u64) -> Iova {
        let base = align_up(self.next, align);
        self.next = base + len;
        Iova(base)
    }
}

/// Bump allocator for simulated physical memory.
#[derive(Debug)]
pub(crate) struct PhysAllocator {
    next: u64,
    limit: u64,
}

impl PhysAllocator {
    /// Physical memory `[base, base+size)`.
    pub(crate) fn new(base: u64, size: u64) -> Self {
        PhysAllocator {
            next: base,
            limit: base + size,
        }
    }

    /// Allocate `len` bytes aligned to `align`; `None` when out of memory.
    pub(crate) fn alloc(&mut self, len: u64, align: u64) -> Option<PhysAddr> {
        let base = align_up(self.next, align);
        if base + len > self.limit {
            return None;
        }
        self.next = base + len;
        Some(PhysAddr(base))
    }

    /// Bytes still available (ignoring alignment padding).
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> u64 {
        self.limit - self.next
    }
}

/// A region of memory registered with the IOMMU for DMA.
#[derive(Debug, Clone)]
pub(crate) struct MemoryRegion {
    /// First IOVA of the region.
    pub(crate) iova_base: Iova,
    /// Region length in bytes (whole pages).
    pub(crate) len: u64,
}

/// Errors from region registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegionError {
    /// Simulated physical memory exhausted.
    OutOfMemory,
    /// Page-table mapping failed (overlap or alignment bug).
    Map(MapError),
}

/// Registers regions: allocates IOVA + PA space and installs mappings.
#[derive(Debug)]
pub(crate) struct RegionRegistry {
    iova: IovaAllocator,
    phys: PhysAllocator,
}

impl RegionRegistry {
    /// `phys_size` bounds the simulated DRAM used for DMA buffers.
    pub(crate) fn new(phys_size: u64) -> Self {
        RegionRegistry {
            // Leave IOVA 0 unused so "null" addresses are never valid.
            iova: IovaAllocator::new(PageSize::Size2M.bytes()),
            phys: PhysAllocator::new(PageSize::Size2M.bytes(), phys_size),
        }
    }

    /// Register a region of `len` bytes (rounded up to whole pages) mapped
    /// with pages of `page_size`, installing the mappings in `table`.
    pub(crate) fn register(
        &mut self,
        table: &mut IoPageTable,
        len: u64,
        page_size: PageSize,
    ) -> Result<MemoryRegion, RegionError> {
        let len = align_up(len.max(1), page_size.bytes());
        let iova_base = self.iova.alloc(len, page_size.bytes());
        let pa_base = self
            .phys
            .alloc(len, page_size.bytes())
            .ok_or(RegionError::OutOfMemory)?;
        table
            .map_range(iova_base, pa_base, len, page_size)
            .map_err(RegionError::Map)?;
        Ok(MemoryRegion { iova_base, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iova_allocator_aligns_and_advances() {
        let mut a = IovaAllocator::new(0x1000);
        let r1 = a.alloc(100, 4096);
        assert_eq!(r1, Iova(0x1000));
        let r2 = a.alloc(100, 4096);
        assert_eq!(r2, Iova(0x2000));
    }

    #[test]
    fn phys_allocator_respects_limit() {
        let mut a = PhysAllocator::new(0, 8192);
        assert_eq!(a.alloc(4096, 4096), Some(PhysAddr(0)));
        assert_eq!(a.alloc(4096, 4096), Some(PhysAddr(4096)));
        assert_eq!(a.alloc(1, 1), None);
        assert_eq!(a.remaining(), 0);
    }

    #[test]
    fn register_installs_translations() {
        let mut table = IoPageTable::new();
        let mut reg = RegionRegistry::new(1 << 30);
        let r = reg
            .register(&mut table, 12 << 20, PageSize::Size2M)
            .unwrap();
        assert_eq!(table.mapped_pages(), 6);
        // Translation works across the whole region and matches offsets.
        let base = table.translate(r.iova_base).unwrap();
        let t = table.translate(r.iova_base.add(5 << 20)).unwrap();
        assert_eq!(t.pa, base.pa.add(5 << 20));
        assert_eq!(t.page_size, PageSize::Size2M);
        assert!(table.translate(r.iova_base.add(r.len - 1)).is_ok());
        assert!(table.translate(r.iova_base.add(r.len)).is_err());
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut table = IoPageTable::new();
        let mut reg = RegionRegistry::new(1 << 30);
        let a = reg.register(&mut table, 4 << 20, PageSize::Size2M).unwrap();
        let b = reg.register(&mut table, 4 << 20, PageSize::Size4K).unwrap();
        assert!(a.iova_base.as_u64() + a.len <= b.iova_base.as_u64());
        // 4 MiB of 2M pages, then 4 MiB of 4K pages.
        assert_eq!(table.mapped_pages(), 2 + 1024);
    }

    #[test]
    fn page_count_scales_512x_without_hugepages() {
        // The Fig. 4 effect: same region, 512x the IOMMU entries.
        let (mut huge, mut small) = (IoPageTable::new(), IoPageTable::new());
        let mut reg = RegionRegistry::new(1 << 30);
        reg.register(&mut huge, 12 << 20, PageSize::Size2M).unwrap();
        reg.register(&mut small, 12 << 20, PageSize::Size4K)
            .unwrap();
        assert_eq!(small.mapped_pages(), huge.mapped_pages() * 512);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut table = IoPageTable::new();
        let mut reg = RegionRegistry::new(4 << 20);
        assert!(reg
            .register(&mut table, 16 << 20, PageSize::Size2M)
            .is_err());
    }
}

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
pub struct IovaAllocator {
    next: u64,
}

impl IovaAllocator {
    /// Start allocating at `base` (commonly 0 or a device-specific offset).
    pub fn new(base: u64) -> Self {
        IovaAllocator { next: base }
    }

    /// Allocate `len` bytes aligned to `align` (power of two).
    pub fn alloc(&mut self, len: u64, align: u64) -> Iova {
        let base = align_up(self.next, align);
        self.next = base + len;
        Iova(base)
    }
}

/// Bump allocator for simulated physical memory.
#[derive(Debug)]
pub struct PhysAllocator {
    next: u64,
    limit: u64,
}

impl PhysAllocator {
    /// Physical memory `[base, base+size)`.
    pub fn new(base: u64, size: u64) -> Self {
        PhysAllocator {
            next: base,
            limit: base + size,
        }
    }

    /// Allocate `len` bytes aligned to `align`; `None` when out of memory.
    pub fn alloc(&mut self, len: u64, align: u64) -> Option<PhysAddr> {
        let base = align_up(self.next, align);
        if base + len > self.limit {
            return None;
        }
        self.next = base + len;
        Some(PhysAddr(base))
    }

    /// Bytes still available (ignoring alignment padding).
    pub fn remaining(&self) -> u64 {
        self.limit - self.next
    }
}

/// Identifier of a registered region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u32);

/// A region of memory registered with the IOMMU for DMA.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    /// Registry-assigned identifier.
    pub id: RegionId,
    /// Owning receiver thread (or u32::MAX for shared/control regions).
    pub owner_thread: u32,
    /// First IOVA of the region.
    pub iova_base: Iova,
    /// First physical address backing the region.
    pub pa_base: PhysAddr,
    /// Region length in bytes (whole pages).
    pub len: u64,
    /// Mapping granularity the region was registered with.
    pub page_size: PageSize,
}

impl MemoryRegion {
    /// Number of page-table entries this region pins in the IOMMU.
    pub fn page_count(&self) -> u64 {
        self.page_size.pages_for(self.len)
    }

    /// Whether `iova` falls inside this region.
    pub fn contains(&self, iova: Iova) -> bool {
        let a = iova.as_u64();
        a >= self.iova_base.as_u64() && a < self.iova_base.as_u64() + self.len
    }
}

/// Errors from region registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// Simulated physical memory exhausted.
    OutOfMemory,
    /// Page-table mapping failed (overlap or alignment bug).
    Map(MapError),
}

/// Registers regions: allocates IOVA + PA space and installs mappings.
#[derive(Debug)]
pub struct RegionRegistry {
    iova: IovaAllocator,
    phys: PhysAllocator,
    regions: Vec<MemoryRegion>,
}

impl RegionRegistry {
    /// `phys_size` bounds the simulated DRAM used for DMA buffers.
    pub fn new(phys_size: u64) -> Self {
        RegionRegistry {
            // Leave IOVA 0 unused so "null" addresses are never valid.
            iova: IovaAllocator::new(PageSize::Size2M.bytes()),
            phys: PhysAllocator::new(PageSize::Size2M.bytes(), phys_size),
            regions: Vec::new(),
        }
    }

    /// Register a region of `len` bytes (rounded up to whole pages) mapped
    /// with pages of `page_size`, installing the mappings in `table`.
    pub fn register(
        &mut self,
        table: &mut IoPageTable,
        owner_thread: u32,
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
        let region = MemoryRegion {
            id: RegionId(self.regions.len() as u32),
            owner_thread,
            iova_base,
            pa_base,
            len,
            page_size,
        };
        self.regions.push(region.clone());
        Ok(region)
    }

    /// All regions registered so far, in registration order.
    pub fn regions(&self) -> &[MemoryRegion] {
        &self.regions
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
            .register(&mut table, 0, 12 << 20, PageSize::Size2M)
            .unwrap();
        assert_eq!(r.page_count(), 6);
        // Translation works across the whole region and matches offsets.
        let t = table.translate(r.iova_base.add(5 << 20)).unwrap();
        assert_eq!(t.pa, r.pa_base.add(5 << 20));
        assert!(r.contains(r.iova_base));
        assert!(r.contains(r.iova_base.add(r.len - 1)));
        assert!(!r.contains(r.iova_base.add(r.len)));
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut table = IoPageTable::new();
        let mut reg = RegionRegistry::new(1 << 30);
        let a = reg
            .register(&mut table, 0, 4 << 20, PageSize::Size2M)
            .unwrap();
        let b = reg
            .register(&mut table, 1, 4 << 20, PageSize::Size4K)
            .unwrap();
        assert!(a.iova_base.as_u64() + a.len <= b.iova_base.as_u64());
        assert_eq!(b.page_count(), 1024); // 4 MiB of 4K pages
    }

    #[test]
    fn page_count_scales_512x_without_hugepages() {
        // The Fig. 4 effect: same region, 512x the IOMMU entries.
        let mut table = IoPageTable::new();
        let mut reg = RegionRegistry::new(1 << 30);
        let huge = reg
            .register(&mut table, 0, 12 << 20, PageSize::Size2M)
            .unwrap();
        let small = reg
            .register(&mut table, 1, 12 << 20, PageSize::Size4K)
            .unwrap();
        assert_eq!(small.page_count(), huge.page_count() * 512);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut table = IoPageTable::new();
        let mut reg = RegionRegistry::new(4 << 20);
        assert!(reg
            .register(&mut table, 0, 16 << 20, PageSize::Size2M)
            .is_err());
    }
}

//! An x86-style 4-level I/O page table.
//!
//! This is the structure the IOMMU walks on an IOTLB miss. We model it as a
//! real radix tree (512-entry tables, 9 bits per level) rather than a flat
//! map so that walk depth, partially-cached walks (page-walk caches) and
//! mapping-size effects fall out mechanistically.
//!
//! Level numbering follows hardware convention: level 4 = PML4 (root),
//! level 3 = PDPT, level 2 = PD, level 1 = PT. A 2 MiB mapping is a leaf at
//! level 2; a 4 KiB mapping is a leaf at level 1.

use crate::addr::{Iova, PageSize, PhysAddr};

const ENTRIES: usize = 512;
const LEVEL_BITS: u32 = 9;

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No mapping present for this IOVA.
    NotMapped,
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated physical address (page base + offset).
    pub pa: PhysAddr,
    /// Size of the leaf mapping that matched.
    pub page_size: PageSize,
    /// Number of table levels a *full* walk visits to reach this leaf
    /// (4 for 4 KiB leaves, 3 for 2 MiB, 2 for 1 GiB). Each visited level is
    /// one memory access unless served by a page-walk cache.
    pub(crate) walk_levels: u32,
}

#[derive(Debug)]
enum Entry {
    Table(Box<Table>),
    Leaf { pa: PhysAddr, size: PageSize },
}

#[derive(Debug)]
struct Table {
    slots: Vec<Option<Entry>>,
}

impl Table {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(ENTRIES);
        slots.resize_with(ENTRIES, || None);
        Table { slots }
    }
}

/// Index into the table at `level` (4..=1) for address `iova`.
#[inline]
fn index_at(iova: Iova, level: u32) -> usize {
    debug_assert!((1..=4).contains(&level));
    let shift = 12 + LEVEL_BITS * (level - 1);
    ((iova.as_u64() >> shift) & (ENTRIES as u64 - 1)) as usize
}

/// Leaf level for a page size: 1 for 4K, 2 for 2M, 3 for 1G.
#[inline]
fn leaf_level(size: PageSize) -> u32 {
    match size {
        PageSize::Size4K => 1,
        PageSize::Size2M => 2,
        PageSize::Size1G => 3,
    }
}

/// Errors from map/unmap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// IOVA is not aligned to the mapping's page size.
    Misaligned,
    /// The range (or part of it) is already mapped.
    AlreadyMapped,
    /// Attempted to unmap an address that is not mapped.
    NotMapped,
}

/// The I/O page table for one IOMMU domain.
#[derive(Debug)]
pub struct IoPageTable {
    root: Table,
    mapped_pages: u64,
    mapped_bytes: u64,
}

impl Default for IoPageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IoPageTable {
    /// An empty page table (nothing mapped).
    pub fn new() -> Self {
        IoPageTable {
            root: Table::new(),
            mapped_pages: 0,
            mapped_bytes: 0,
        }
    }

    /// Number of leaf mappings currently installed.
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Total bytes covered by installed mappings.
    #[cfg(test)]
    pub(crate) fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// Install a single page mapping of the given size.
    pub(crate) fn map(&mut self, iova: Iova, pa: PhysAddr, size: PageSize) -> Result<(), MapError> {
        if iova.page_offset(size) != 0 || pa.as_u64() & (size.bytes() - 1) != 0 {
            return Err(MapError::Misaligned);
        }
        let target = leaf_level(size);
        let mut table = &mut self.root;
        let mut level = 4;
        while level > target {
            let idx = index_at(iova, level);
            let slot = &mut table.slots[idx];
            match slot {
                Some(Entry::Leaf { .. }) => return Err(MapError::AlreadyMapped),
                Some(Entry::Table(_)) => {}
                None => *slot = Some(Entry::Table(Box::new(Table::new()))),
            }
            table = match slot.as_mut().unwrap() {
                Entry::Table(t) => t,
                Entry::Leaf { .. } => unreachable!(),
            };
            level -= 1;
        }
        let idx = index_at(iova, target);
        if table.slots[idx].is_some() {
            return Err(MapError::AlreadyMapped);
        }
        table.slots[idx] = Some(Entry::Leaf { pa, size });
        self.mapped_pages += 1;
        self.mapped_bytes += size.bytes();
        Ok(())
    }

    /// Map a contiguous range `[iova, iova+len)` to `[pa, pa+len)` using
    /// pages of `size`. `len` is rounded up to a whole number of pages.
    pub fn map_range(
        &mut self,
        iova: Iova,
        pa: PhysAddr,
        len: u64,
        size: PageSize,
    ) -> Result<u64, MapError> {
        let pages = size.pages_for(len);
        for i in 0..pages {
            let off = i * size.bytes();
            self.map(iova.add(off), pa.add(off), size)?;
        }
        Ok(pages)
    }

    /// Translate an IOVA. Pure lookup: cost modelling lives in the IOMMU.
    pub fn translate(&self, iova: Iova) -> Result<Translation, Fault> {
        let mut table = &self.root;
        let mut level = 4;
        loop {
            let idx = index_at(iova, level);
            match table.slots[idx].as_ref() {
                None => return Err(Fault::NotMapped),
                Some(Entry::Leaf { pa, size }) => {
                    let off = iova.page_offset(*size);
                    return Ok(Translation {
                        pa: pa.add(off),
                        page_size: *size,
                        walk_levels: size.walk_levels(),
                    });
                }
                Some(Entry::Table(t)) => {
                    debug_assert!(level > 1, "table entry at PT level");
                    table = t;
                    level -= 1;
                }
            }
        }
    }

    /// Remove the mapping containing `iova`.
    #[cfg(test)]
    pub(crate) fn unmap(&mut self, iova: Iova) -> Result<PageSize, MapError> {
        // Walk down remembering the path; then clear the leaf.
        fn go(table: &mut Table, iova: Iova, level: u32) -> Result<PageSize, MapError> {
            let idx = index_at(iova, level);
            match table.slots[idx].as_mut() {
                None => Err(MapError::NotMapped),
                Some(Entry::Leaf { size, .. }) => {
                    let s = *size;
                    table.slots[idx] = None;
                    Ok(s)
                }
                Some(Entry::Table(t)) => {
                    if level == 1 {
                        return Err(MapError::NotMapped);
                    }
                    go(t, iova, level - 1)
                }
            }
        }
        let size = go(&mut self.root, iova, 4)?;
        self.mapped_pages -= 1;
        self.mapped_bytes -= size.bytes();
        Ok(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_4k() {
        let mut pt = IoPageTable::new();
        pt.map(Iova(0x10_0000), PhysAddr(0x5000_0000), PageSize::Size4K)
            .unwrap();
        let t = pt.translate(Iova(0x10_0abc)).unwrap();
        assert_eq!(t.pa, PhysAddr(0x5000_0abc));
        assert_eq!(t.page_size, PageSize::Size4K);
        assert_eq!(t.walk_levels, 4);
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.mapped_bytes(), 4096);
    }

    #[test]
    fn map_translate_2m_hugepage() {
        let mut pt = IoPageTable::new();
        pt.map(Iova(0x20_0000), PhysAddr(0x4000_0000), PageSize::Size2M)
            .unwrap();
        let t = pt.translate(Iova(0x20_0000 + 0x12_345)).unwrap();
        assert_eq!(t.pa, PhysAddr(0x4000_0000 + 0x12_345));
        assert_eq!(t.page_size, PageSize::Size2M);
        assert_eq!(t.walk_levels, 3);
    }

    #[test]
    fn unmapped_faults() {
        let pt = IoPageTable::new();
        assert_eq!(pt.translate(Iova(0x1234)), Err(Fault::NotMapped));
    }

    #[test]
    fn misaligned_map_rejected() {
        let mut pt = IoPageTable::new();
        assert_eq!(
            pt.map(Iova(0x100), PhysAddr(0), PageSize::Size4K),
            Err(MapError::Misaligned)
        );
        assert_eq!(
            pt.map(Iova(0x1000), PhysAddr(0x800), PageSize::Size4K),
            Err(MapError::Misaligned)
        );
        assert_eq!(
            pt.map(Iova(0x1000), PhysAddr(0), PageSize::Size2M),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = IoPageTable::new();
        pt.map(Iova(0x1000), PhysAddr(0x1000), PageSize::Size4K)
            .unwrap();
        assert_eq!(
            pt.map(Iova(0x1000), PhysAddr(0x2000), PageSize::Size4K),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn map_range_covers_and_counts() {
        let mut pt = IoPageTable::new();
        let pages = pt
            .map_range(Iova(0), PhysAddr(0x1000_0000), 12 << 20, PageSize::Size2M)
            .unwrap();
        assert_eq!(pages, 6);
        assert_eq!(pt.mapped_pages(), 6);
        // Every byte of the 12 MiB range translates.
        for off in [0u64, 1 << 20, (12 << 20) - 1] {
            let t = pt.translate(Iova(off)).unwrap();
            assert_eq!(t.pa, PhysAddr(0x1000_0000 + off));
        }
        // One byte past the end faults.
        assert!(pt.translate(Iova(12 << 20)).is_err());
    }

    #[test]
    fn unmap_removes_only_target() {
        let mut pt = IoPageTable::new();
        pt.map(Iova(0x1000), PhysAddr(0x1000), PageSize::Size4K)
            .unwrap();
        pt.map(Iova(0x2000), PhysAddr(0x2000), PageSize::Size4K)
            .unwrap();
        assert_eq!(pt.unmap(Iova(0x1fff)), Ok(PageSize::Size4K));
        assert!(pt.translate(Iova(0x1000)).is_err());
        assert!(pt.translate(Iova(0x2000)).is_ok());
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.unmap(Iova(0x1000)), Err(MapError::NotMapped));
    }

    #[test]
    fn mixed_page_sizes_coexist() {
        let mut pt = IoPageTable::new();
        // 2M mapping at 0x4000_0000, 4K mappings right after it.
        pt.map(Iova(0x4000_0000), PhysAddr(0x8000_0000), PageSize::Size2M)
            .unwrap();
        pt.map(Iova(0x4020_0000), PhysAddr(0x9000_0000), PageSize::Size4K)
            .unwrap();
        assert_eq!(
            pt.translate(Iova(0x4000_0000)).unwrap().page_size,
            PageSize::Size2M
        );
        assert_eq!(
            pt.translate(Iova(0x4020_0000)).unwrap().page_size,
            PageSize::Size4K
        );
    }

    #[test]
    fn distant_iovas_use_separate_subtrees() {
        let mut pt = IoPageTable::new();
        // These differ in the PML4 index (bit 39+).
        pt.map(Iova(0), PhysAddr(0), PageSize::Size4K).unwrap();
        pt.map(Iova(1 << 40), PhysAddr(0x10_0000), PageSize::Size4K)
            .unwrap();
        assert_eq!(pt.translate(Iova(5)).unwrap().pa, PhysAddr(5));
        assert_eq!(
            pt.translate(Iova((1 << 40) + 5)).unwrap().pa,
            PhysAddr(0x10_0005)
        );
    }
}

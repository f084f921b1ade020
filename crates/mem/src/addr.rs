//! Address types and page geometry.
//!
//! The simulator distinguishes three address spaces, mirroring Figure 2 of
//! the paper: the *I/O virtual address* (IOVA) the NIC uses in DMA requests,
//! the *physical address* (PA) the memory controller sees, and (for
//! completeness of the host model) CPU virtual addresses. Newtypes prevent
//! the classic bug of feeding an untranslated address to the memory system.

use core::fmt;

/// An I/O virtual address: what the NIC writes into PCIe transactions when
/// memory protection (the IOMMU) is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Iova(pub u64);

hostcc_sim::snap_fields!(Iova { 0 } blank { Iova(0) });

/// A host physical address: what the memory controller services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl Iova {
    /// Raw address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Offset this address by `off` bytes.
    #[inline]
    pub const fn add(self, off: u64) -> Iova {
        Iova(self.0 + off)
    }

    /// The page number of this address for the given page size.
    #[inline]
    pub const fn page_number(self, size: PageSize) -> u64 {
        self.0 >> size.shift()
    }

    /// Byte offset within the containing page.
    #[inline]
    pub const fn page_offset(self, size: PageSize) -> u64 {
        self.0 & (size.bytes() - 1)
    }
}

impl PhysAddr {
    /// Raw address value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Offset this address by `off` bytes.
    #[inline]
    pub const fn add(self, off: u64) -> PhysAddr {
        PhysAddr(self.0 + off)
    }
}

impl fmt::Display for Iova {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "iova:{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// Page sizes supported by the I/O page table (x86-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageSize {
    /// 4 KiB base pages.
    Size4K,
    /// 2 MiB hugepages (PD-level leaf).
    Size2M,
    /// 1 GiB gigantic pages (PDPT-level leaf).
    Size1G,
}

impl PageSize {
    /// log2 of the page size in bytes.
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
            PageSize::Size1G => 30,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        1u64 << self.shift()
    }

    /// Number of pages of this size needed to cover `len` bytes.
    #[inline]
    pub const fn pages_for(self, len: u64) -> u64 {
        len.div_ceil(self.bytes())
    }

    /// Depth of the page-table walk for a leaf of this size in a 4-level
    /// x86-style table: number of table levels visited (root included).
    ///
    /// 4 KiB leaves sit at the PT level (walk of 4), 2 MiB at the PD level
    /// (walk of 3), 1 GiB at the PDPT level (walk of 2).
    #[inline]
    pub const fn walk_levels(self) -> u32 {
        match self {
            PageSize::Size4K => 4,
            PageSize::Size2M => 3,
            PageSize::Size1G => 2,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4K"),
            PageSize::Size2M => write!(f, "2M"),
            PageSize::Size1G => write!(f, "1G"),
        }
    }
}

/// Align `x` up to `align` (power of two).
#[inline]
pub const fn align_up(x: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (x + align - 1) & !(align - 1)
}

/// Align `x` down to `align` (power of two).
#[inline]
pub const fn align_down(x: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    x & !(align - 1)
}

/// Enumerate the page numbers a byte range `[addr, addr+len)` touches.
///
/// This is what determines how many IOTLB lookups a DMA needs: a 4 KiB MTU
/// packet aligned to a 4 KiB buffer touches one 4 KiB page, but the paper
/// notes that with 4 KiB pages a packet's payload commonly straddles two.
pub fn pages_touched(addr: Iova, len: u64, size: PageSize) -> impl Iterator<Item = u64> {
    let first = addr.page_number(size);
    let last = if len == 0 {
        first
    } else {
        addr.add(len - 1).page_number(size)
    };
    first..=last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size1G.bytes(), 1024 * 1024 * 1024);
        assert_eq!(PageSize::Size4K.walk_levels(), 4);
        assert_eq!(PageSize::Size2M.walk_levels(), 3);
        assert_eq!(PageSize::Size1G.walk_levels(), 2);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(PageSize::Size4K.pages_for(0), 0);
        assert_eq!(PageSize::Size4K.pages_for(1), 1);
        assert_eq!(PageSize::Size4K.pages_for(4096), 1);
        assert_eq!(PageSize::Size4K.pages_for(4097), 2);
        assert_eq!(PageSize::Size2M.pages_for(12 << 20), 6);
    }

    #[test]
    fn page_number_and_base() {
        let a = Iova(0x3_5678);
        assert_eq!(a.page_number(PageSize::Size4K), 0x35);
        assert_eq!(a.page_offset(PageSize::Size4K), 0x678);
    }

    #[test]
    fn alignment_helpers() {
        assert_eq!(align_up(0, 4096), 0);
        assert_eq!(align_up(1, 4096), 4096);
        assert_eq!(align_up(4096, 4096), 4096);
        assert_eq!(align_down(4097, 4096), 4096);
    }

    #[test]
    fn pages_touched_single_and_straddle() {
        // Aligned 4K write touches exactly one page.
        let v: Vec<u64> = pages_touched(Iova(0x1000), 4096, PageSize::Size4K).collect();
        assert_eq!(v, [1]);
        // Unaligned write straddles two pages (the Fig. 4 effect).
        let v: Vec<u64> = pages_touched(Iova(0x1800), 4096, PageSize::Size4K).collect();
        assert_eq!(v, [1, 2]);
        // A 4K write within a 2M hugepage touches one hugepage.
        let v: Vec<u64> = pages_touched(Iova(0x1800), 4096, PageSize::Size2M).collect();
        assert_eq!(v, [0]);
        // Zero-length touches its containing page only.
        let v: Vec<u64> = pages_touched(Iova(0x1000), 0, PageSize::Size4K).collect();
        assert_eq!(v, [1]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Iova(0x10)), "iova:0x10");
        assert_eq!(format!("{}", PhysAddr(0x20)), "pa:0x20");
        assert_eq!(format!("{}", PageSize::Size2M), "2M");
    }
}

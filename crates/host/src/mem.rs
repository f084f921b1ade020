//! Address-space substrate for the host-interconnect congestion simulator:
//! address newtypes and page geometry, an x86-style 4-level I/O page table
//! (what the IOMMU walks on an IOTLB miss), registered-region bookkeeping
//! (loose-mode IOMMU registration, as in the paper's SNAP setup) and Rx
//! buffer pools (whose recycling order shapes DMA address locality).

pub use crate::addr::{Iova, PageSize, PhysAddr};
pub use crate::page_table::IoPageTable;

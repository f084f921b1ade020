//! The I/O memory management unit model: an x86-style IOMMU with a
//! set-associative IOTLB, a page-walk cache, and per-translation cost
//! receipts. This is the first root cause of host interconnect congestion
//! studied by the paper (§3.1): when the pinned DMA working set exceeds the
//! IOTLB, every miss adds page-table memory accesses to the per-DMA
//! latency, and — via PCIe's credit-limited pipeline — caps NIC-to-memory
//! throughput below the line rate.

pub use crate::device::{Iommu, IommuConfig};
pub use crate::iotlb::{Iotlb, IotlbTag};

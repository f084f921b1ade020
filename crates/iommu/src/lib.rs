//! # hostcc-iommu
//!
//! The I/O memory management unit model: an x86-style IOMMU with a
//! set-associative IOTLB, a page-walk cache, and per-translation cost
//! receipts. This is the first root cause of host interconnect congestion
//! studied by the paper (§3.1): when the pinned DMA working set exceeds the
//! IOTLB, every miss adds page-table memory accesses to the per-DMA
//! latency, and — via PCIe's credit-limited pipeline — caps NIC-to-memory
//! throughput below the line rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod iotlb;
#[cfg(test)]
mod scan_iotlb;
mod walk_cache;

pub use device::{Iommu, IommuConfig, IommuStats, TranslationCost};
pub use iotlb::{Iotlb, IotlbStats, IotlbTag};
pub use walk_cache::WalkCache;

//! PCIe substrate for the host-interconnect model: link bandwidth with
//! transaction/data-link-layer overhead accounting (why a "128 Gbps" Gen3
//! x16 slot delivers only ~110 Gbps of DMA goodput) and the credit-based
//! flow control that bounds how many DMA writes can be in flight — the `C`
//! in the paper's Little's-law throughput bound
//! `C · pkt_size / (T_base + M · T_miss)`.

pub use crate::pcie_link::PcieGen;

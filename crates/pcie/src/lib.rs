//! # hostcc-pcie
//!
//! PCIe substrate for the host-interconnect model: link bandwidth with
//! transaction/data-link-layer overhead accounting (why a "128 Gbps" Gen3
//! x16 slot delivers only ~110 Gbps of DMA goodput) and the credit-based
//! flow control that bounds how many DMA writes can be in flight — the `C`
//! in the paper's Little's-law throughput bound
//! `C · pkt_size / (T_base + M · T_miss)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod credits;
mod link;
mod reads;
mod replay;

pub use credits::{credits_for_write, CreditConfig, CreditState, WriteCredits, PD_CREDIT_BYTES};
pub use link::{PcieGen, PcieLinkConfig, DLLP_OVERHEAD_BYTES_PER_TLP, TLP_OVERHEAD_BYTES};
pub use reads::{read_round_trip_ns, ReadChannelConfig};
pub use replay::{ReplayChannel, ReplayConfig};

//! # hostcc-nic
//!
//! The receive-side NIC model: the shared input SRAM where host-congestion
//! drops occur, Rx descriptor rings + completion queues (whose 4 KiB-mapped
//! control structures add their own IOTLB pressure), and delivery/drop
//! counters. The credit/translation/memory pipeline that drains the NIC is
//! composed in `hostcc-host`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod nic;
mod ring;

pub use buffer::{InputBuffer, QueuedPacket};
pub use nic::{Nic, NicConfig, NicStats, RxQueue};
pub use ring::{CompletionRing, RxDescriptor, RxRing};

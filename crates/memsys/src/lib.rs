//! # hostcc-memsys
//!
//! The memory-subsystem model: per-NUMA-node DDR capacity, a load-latency
//! curve for the contended bus, weighted arbitration between CPU agents
//! and NIC DMA, and a STREAM-style antagonist. This is the second root
//! cause of host interconnect congestion studied by the paper (§3.2): when
//! applications saturate the memory bus, per-DMA service time inflates,
//! PCIe credits return slowly, and the NIC buffer fills even though the
//! access link is far from saturated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod antagonist;
mod config;
mod controller;
mod curve;
mod ddio;

pub use antagonist::{StreamAntagonist, StreamConfig};
pub use config::MemSysConfig;
pub use controller::{AgentClass, AgentId, MemorySystem};
pub use curve::LoadLatencyCurve;
pub use ddio::DdioConfig;

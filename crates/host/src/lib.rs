//! # hostcc-host
//!
//! The receiver host and the full testbed simulation. The datapath models
//! live here as crate-root modules, listed by component below: addresses,
//! I/O page tables and buffer pools; the IOMMU (IOTLB and page-walk
//! cache); PCIe (link overheads, credits, reads, replay); the memory bus
//! and its antagonist; the NIC (input buffer and Rx rings); the fabric
//! (wire format, links, packet store); transport (Swift, DCTCP, flows,
//! RPC); and fault plans. [`mem`], [`iommu`], [`pcie`] and [`transport`]
//! re-export the model types harnesses drive directly. [`Testbed`]
//! composes the models into one deterministic discrete-event world
//! reproducing the paper's Fig. 2 datapath, with metrics for every
//! quantity the evaluation plots (throughput, drop rate, IOTLB
//! misses/packet, memory bandwidth, host delay).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod counters;
mod error;
mod export;
mod fleet;
mod metrics;
mod vlink;
mod world;

// The datapath models, one crate-root module per file, listed by the
// component they model. `mem`, `iommu`, `pcie` and `transport` are also
// public modules that re-export the items other crates drive directly;
// inside this crate every item is named by the module that defines it.
mod faults;
pub mod iommu;
pub mod mem;
mod nic;
pub mod pcie;
pub mod transport;

// Addresses, I/O page tables, registered regions, Rx buffer pools.
mod addr;
mod page_table;
mod pool;
mod region;

// IOMMU: translation costs, IOTLB, page-walk cache.
mod device;
mod iotlb;
#[cfg(test)]
mod scan_iotlb;
mod walk_cache;

// PCIe: link overheads, write credits, reads, replay.
mod credits;
mod pcie_link;
mod reads;
mod replay;

// Memory subsystem: bus controller, load curve, DDIO, STREAM antagonist.
// The paper's second root cause (§3.2): a saturated memory bus inflates
// per-DMA service time, PCIe credits return slowly, and the NIC buffer
// fills although the access link has headroom.
mod antagonist;
mod controller;
mod curve;
mod ddio;
mod memsys_config;

// NIC (the `nic` module above): input buffer, Rx and completion rings.
mod buffer;
mod ring;

// Fabric: wire format, links and switch port, packet store, inter-host
// messages. The fabric has headroom in all of the paper's experiments;
// the incast egress port is modelled so that fabric RTTs are realistic.
mod interhost;
mod link;
mod packet;
mod store;

// Transport: congestion controls, flows, RPC.
mod cc;
mod dctcp;
mod fixed;
mod flow;
mod host_aware;
mod rpc;
mod swift;

pub use config::{BufferRecycling, CcKind, ConfigError, TestbedConfig};
pub use error::RunError;
pub use export::metrics_json;
pub use fleet::FleetHost;
pub use metrics::RunMetrics;
pub use world::{Event, Simulation, Testbed};

// Re-export the fault-injection vocabulary (FaultPlan rides on
// TestbedConfig, so every consumer of the config needs these types).
pub use crate::faults::{FaultKind, FaultPlan, FaultSpec, FaultSummary};

// Re-export the observability vocabulary so downstream crates (core, CLI,
// harnesses) need only one import path.
pub use hostcc_trace::{
    chrome_trace_json, CounterRegistry, Stage, StageBreakdown, StageClass, TimelineRecorder,
    TraceConfig, TraceEvent, Tracer,
};

// Re-export the telemetry vocabulary (TelemetryConfig rides on
// TestbedConfig; the summary rides on RunMetrics and RunError::Stalled).
pub use hostcc_telemetry::{
    EpisodeRecord, RootCause, TelemetryConfig, TelemetrySample, TelemetrySummary, TriggerKind,
};

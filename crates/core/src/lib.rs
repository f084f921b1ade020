//! # hostcc — a host-interconnect congestion laboratory
//!
//! A discrete-event reproduction of **"Understanding Host Interconnect
//! Congestion"** (Agarwal et al., HotNets 2022): a packet-level simulator
//! of the receiver-host datapath (NIC input buffer → Rx descriptors → PCIe
//! credits → IOMMU/IOTLB → memory bus → receiver cores), a full
//! implementation of the Swift congestion-control protocol, a STREAM-style
//! memory antagonist, and experiment harnesses that regenerate every
//! figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use hostcc::{scenarios, experiment::{run, RunPlan}};
//!
//! // One point of Figure 3: 4 receiver cores, IOMMU enabled.
//! let cfg = scenarios::fig3(4, true);
//! let metrics = run(cfg, RunPlan::quick()).expect("valid config");
//! assert!(metrics.app_throughput_gbps() > 10.0);
//! ```
//!
//! ## Layout
//!
//! * [`scenarios`] — one constructor per paper figure/panel;
//! * [`experiment`] — single runs and parallel sweeps;
//! * [`fleet`] — coupled multi-host fleets on the deterministic
//!   parallel engine (shards, lookahead epochs, cross-host fan-in);
//! * [`model`] — the paper's Little's-law throughput bound (§3.1);
//! * [`cluster`] — the Fig. 1 fleet scatter;
//! * [`report`] — text/CSV tables for harness output;
//! * [`substrate`] — the layers underneath: the `sim` engine, the `trace`
//!   vocabulary, the `host` testbed, and the `mem`, `iommu`, `pcie` and
//!   `transport` modules of `host` that harnesses drive directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod experiment;
pub mod fleet;
pub mod model;
pub mod report;
pub mod scenarios;

pub use hostcc_host::{
    BufferRecycling, CcKind, FleetHost, RunError, RunMetrics, Simulation, Testbed, TestbedConfig,
};

// Fault injection: deterministic chaos plans and their run summaries.
pub use hostcc_host::{FaultKind, FaultPlan, FaultSummary};

// Observability layer: tracing, counters, timelines and exporters.
pub use hostcc_host::{
    chrome_trace_json, metrics_json, CounterRegistry, Stage, StageClass, TraceConfig,
};

// Continuous host-congestion telemetry: sampler config, episode records
// with root-cause attribution, and the flight-recorder vocabulary.
pub use hostcc_host::{RootCause, TelemetryConfig, TelemetrySample, TelemetrySummary};

/// The simulator's layers under one roof: the `sim` engine, the `trace`
/// crate, the `host` testbed and the datapath models of `host` that
/// harnesses drive directly.
pub mod substrate {
    pub use hostcc_host as host;
    pub use hostcc_host::{iommu, mem, pcie, transport};
    pub use hostcc_sim as sim;
    pub use hostcc_trace as trace;
}

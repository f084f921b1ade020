//! # hostcc-host
//!
//! The receiver host and the full testbed simulation: composes the NIC,
//! PCIe credits, IOMMU, memory subsystem, receiver cores, sender fleet and
//! fabric into one deterministic discrete-event world reproducing the
//! paper's Fig. 2 datapath, with metrics for every quantity the
//! evaluation plots (throughput, drop rate, IOTLB misses/packet, memory
//! bandwidth, host delay).

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

pub use config::{BufferRecycling, CcKind, ConfigError, TestbedConfig};
pub use error::RunError;
pub use export::metrics_json;
pub use fleet::FleetHost;
pub use metrics::{MetricsCollector, RunMetrics};
pub use vlink::VariableRateLink;
pub use world::{DmaJob, DmaRef, Event, Simulation, Testbed};

// Re-export the fault-injection vocabulary (FaultPlan rides on
// TestbedConfig, so every consumer of the config needs these types).
pub use hostcc_faults::{FaultKind, FaultPlan, FaultSpec, FaultSummary};

// Re-export the observability vocabulary so downstream crates (core, CLI,
// harnesses) need only one import path.
pub use hostcc_trace::{
    chrome_trace_json, CounterRegistry, Stage, StageBreakdown, StageClass, TimelineRecorder,
    TraceConfig, TraceEvent, Tracer,
};

// Re-export the telemetry vocabulary (TelemetryConfig rides on
// TestbedConfig; the summary rides on RunMetrics and RunError::Stalled).
pub use hostcc_telemetry::{
    EpisodeRecord, FlightDump, RootCause, SignalInputs, Telemetry, TelemetryConfig,
    TelemetrySample, TelemetrySummary, TriggerKind,
};

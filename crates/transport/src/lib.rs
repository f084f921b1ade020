//! # hostcc-transport
//!
//! The transport layer of the reproduction: a full implementation of the
//! Swift congestion-control protocol (delay-based AIMD with separate
//! fabric and endpoint windows and the 100 µs host-delay target whose
//! blind spot the paper exposes), a DCTCP-style ECN baseline, a
//! fixed-window control, per-flow reliability (cumulative ACKs, fast
//! retransmit, go-back-N timeouts, fractional-window pacing) and the
//! closed-loop 16 KB remote-read RPC workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cc;
mod dctcp;
mod fixed;
mod flow;
mod host_aware;
mod rpc;
mod swift;

pub use cc::{AckSample, CongestionControl, LossKind, RttEstimator};
pub use dctcp::{Dctcp, DctcpConfig};
pub use fixed::FixedWindow;
pub use flow::{FlowConfig, FlowStats, ReceiverFlow, SendBlocked, SenderFlow};
pub use host_aware::{HostAware, HostAwareConfig};
pub use rpc::{RpcConfig, RpcReadChannel};
pub use swift::{Swift, SwiftConfig, SwiftStats};

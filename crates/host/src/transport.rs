//! The transport layer of the reproduction: a full implementation of the
//! Swift congestion-control protocol (delay-based AIMD with separate
//! fabric and endpoint windows and the 100 µs host-delay target whose
//! blind spot the paper exposes), a DCTCP-style ECN baseline, a
//! fixed-window control, per-flow reliability (cumulative ACKs, fast
//! retransmit, go-back-N timeouts, fractional-window pacing) and the
//! closed-loop 16 KB remote-read RPC workload.

pub use crate::cc::{AckSample, CongestionControl};
pub use crate::dctcp::{Dctcp, DctcpConfig};
pub use crate::host_aware::{HostAware, HostAwareConfig};
pub use crate::swift::{Swift, SwiftConfig};

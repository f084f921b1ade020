//! The RPC workload layer: 16 KB remote reads.
//!
//! The paper's minimal host-congestion workload: each receiver thread
//! issues 16 KB remote reads over one connection per sender. A read's
//! response is a burst of MTU-sized data packets; when all of them have
//! been delivered to the application the thread immediately issues the
//! next read. We model this closed loop as a *data frontier* on the sender
//! flow: the sender may transmit only the packets belonging to reads the
//! receiver has issued.

/// RPC read parameters.
#[derive(Debug, Clone, Copy)]
pub struct RpcConfig {
    /// Bytes returned by one remote read (paper: 16 KB).
    pub read_bytes: u32,
    /// Payload bytes per MTU packet (paper: 4 KiB MTU).
    pub mtu_payload: u32,
    /// Reads kept outstanding per connection by the receiver thread.
    pub outstanding_reads: u32,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            read_bytes: 16 * 1024,
            mtu_payload: 4096,
            outstanding_reads: 8,
        }
    }
}

impl RpcConfig {
    /// Data packets that carry one read's response.
    pub fn packets_per_read(&self) -> u64 {
        (self.read_bytes as u64).div_ceil(self.mtu_payload as u64)
    }
}

/// Closed-loop read tracking for one connection.
#[derive(Debug)]
pub struct RpcReadChannel {
    cfg: RpcConfig,
    delivered_packets: u64,
}

hostcc_sim::snap_fields!(RpcReadChannel { delivered_packets } skip { cfg });

impl RpcReadChannel {
    /// A channel with `cfg.outstanding_reads` reads issued immediately.
    pub fn new(cfg: RpcConfig) -> Self {
        assert!(cfg.outstanding_reads > 0, "need at least one read");
        assert!(cfg.read_bytes >= cfg.mtu_payload, "read smaller than MTU");
        RpcReadChannel {
            cfg,
            delivered_packets: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RpcConfig {
        &self.cfg
    }

    /// Record that `n` more packets were delivered, in order, to the
    /// application (completions may be implied).
    pub fn on_delivered(&mut self, n: u64) {
        self.delivered_packets += n;
    }

    /// Packets recorded as delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Reads fully completed so far.
    pub fn completed_reads(&self) -> u64 {
        self.delivered_packets / self.cfg.packets_per_read()
    }

    /// Application-level bytes delivered by completed reads.
    pub fn completed_bytes(&self) -> u64 {
        self.completed_reads() * self.cfg.read_bytes as u64
    }

    /// The sender-side data frontier: one packet past the last packet of
    /// the newest issued read. The receiver keeps `outstanding_reads`
    /// issued beyond the last completed one.
    pub fn data_frontier(&self) -> u64 {
        (self.completed_reads() + self.cfg.outstanding_reads as u64) * self.cfg.packets_per_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_per_read_default() {
        assert_eq!(RpcConfig::default().packets_per_read(), 4);
        let odd = RpcConfig {
            read_bytes: 10_000,
            mtu_payload: 4096,
            outstanding_reads: 1,
        };
        assert_eq!(odd.packets_per_read(), 3);
    }

    #[test]
    fn initial_frontier_covers_outstanding_reads() {
        let ch = RpcReadChannel::new(RpcConfig::default());
        // 8 outstanding reads x 4 packets.
        assert_eq!(ch.data_frontier(), 32);
        assert_eq!(ch.completed_reads(), 0);
    }

    #[test]
    fn frontier_advances_one_read_at_a_time() {
        let mut ch = RpcReadChannel::new(RpcConfig::default());
        ch.on_delivered(3);
        assert_eq!(ch.completed_reads(), 0, "read not complete at 3/4");
        assert_eq!(ch.data_frontier(), 32);
        ch.on_delivered(1);
        assert_eq!(ch.completed_reads(), 1);
        assert_eq!(ch.data_frontier(), 36, "a new read is issued");
        assert_eq!(ch.completed_bytes(), 16 * 1024);
    }

    #[test]
    fn bulk_delivery_completes_many_reads() {
        let mut ch = RpcReadChannel::new(RpcConfig::default());
        ch.on_delivered(4 * 100);
        assert_eq!(ch.completed_reads(), 100);
        assert_eq!(ch.completed_bytes(), 100 * 16 * 1024);
        assert_eq!(ch.data_frontier(), 432);
    }

    #[test]
    #[should_panic(expected = "at least one read")]
    fn zero_outstanding_rejected() {
        let _ = RpcReadChannel::new(RpcConfig {
            outstanding_reads: 0,
            ..Default::default()
        });
    }
}

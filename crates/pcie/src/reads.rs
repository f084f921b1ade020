//! Non-posted DMA reads.
//!
//! Posted writes (the payload path modelled in `credits.rs`) are
//! fire-and-forget; *reads* — descriptor fetches, TX payload fetches for
//! outgoing ACKs — are non-posted: the NIC sends a read-request TLP
//! (consuming non-posted header credits), the root complex fetches the
//! data from memory, and one or more completion TLPs return it. A read
//! therefore costs a full PCIe round trip plus the memory access, and the
//! number of outstanding reads is bounded by the NIC's read-request tags
//! and the advertised completion credits.

use crate::link::PcieLinkConfig;

/// Credit/tag limits for the non-posted (read) channel.
#[derive(Debug, Clone, Copy)]
pub struct ReadChannelConfig {
    /// Maximum outstanding read requests (NIC tag space).
    pub max_outstanding: u32,
    /// Maximum bytes returned per completion TLP (read completion
    /// boundary; typically 64 or 128 on Intel root complexes).
    pub completion_boundary: u32,
}

impl Default for ReadChannelConfig {
    fn default() -> Self {
        ReadChannelConfig {
            max_outstanding: 32,
            completion_boundary: 128,
        }
    }
}

impl ReadChannelConfig {
    /// Number of completion TLPs a read of `len` bytes returns.
    pub fn completions_for(&self, len: u64) -> u64 {
        len.div_ceil(self.completion_boundary as u64).max(1)
    }
}

/// Latency model for one DMA read round trip.
///
/// `request serialisation + request propagation + memory access +
/// completion serialisation + completion propagation`. The memory-access
/// term is supplied by the caller (it depends on bus load); this helper
/// adds the PCIe-side components.
pub fn read_round_trip_ns(
    link: &PcieLinkConfig,
    read_cfg: &ReadChannelConfig,
    len: u64,
    propagation_ns: f64,
    memory_access_ns: f64,
) -> f64 {
    let rate = link.raw_bytes_per_sec();
    // Request TLP: header-only (no payload).
    let request_ns = (crate::link::TLP_OVERHEAD_BYTES as f64) / rate * 1e9;
    // Completions: data split at the completion boundary, each with its
    // own TLP overhead.
    let completions = read_cfg.completions_for(len) as f64;
    let completion_bytes = len as f64 + completions * (crate::link::TLP_OVERHEAD_BYTES as f64);
    let completion_ns = completion_bytes / rate * 1e9;
    request_ns + completion_ns + 2.0 * propagation_ns + memory_access_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_count_respects_boundary() {
        let c = ReadChannelConfig::default();
        assert_eq!(c.completions_for(1), 1);
        assert_eq!(c.completions_for(128), 1);
        assert_eq!(c.completions_for(129), 2);
        assert_eq!(c.completions_for(4096), 32);
        assert_eq!(c.completions_for(0), 1, "zero-length read still completes");
    }

    #[test]
    fn round_trip_dominated_by_propagation_and_memory() {
        let link = PcieLinkConfig::default();
        let cfg = ReadChannelConfig::default();
        // A 32-byte descriptor read with 250 ns propagation and 90 ns
        // memory access: mostly round-trip propagation.
        let ns = read_round_trip_ns(&link, &cfg, 32, 250.0, 90.0);
        assert!(
            (550.0..700.0).contains(&ns),
            "descriptor read {ns} ns should be ~600"
        );
        // Bigger reads serialise more completion data.
        let big = read_round_trip_ns(&link, &cfg, 4096, 250.0, 90.0);
        assert!(big > ns + 200.0, "4 KiB read {big} vs 32 B {ns}");
    }

    #[test]
    fn round_trip_monotone_in_length() {
        let link = PcieLinkConfig::default();
        let cfg = ReadChannelConfig::default();
        let mut last = 0.0;
        for len in [16u64, 64, 256, 1024, 4096] {
            let ns = read_round_trip_ns(&link, &cfg, len, 200.0, 90.0);
            assert!(ns > last);
            last = ns;
        }
    }
}

//! PCIe credit-based flow control.
//!
//! PCIe is a lossless interconnect: a transmitter may only send a TLP when
//! the receiver has advertised enough *credits* for it (§2, step 3 of the
//! paper's datapath). Posted writes consume *posted header* (PH) credits —
//! one per TLP — and *posted data* (PD) credits in 16-byte units. The root
//! complex returns credits only after it has retired the write to memory,
//! so any latency on the NIC-to-memory path (IOTLB walks, memory-bus
//! queueing) directly shrinks the usable in-flight window. When credits run
//! out, packets wait in the NIC input buffer — the queue where the paper's
//! drops happen.

/// Posted-data credit granularity: one PD credit = 16 bytes (4 DW).
pub const PD_CREDIT_BYTES: u32 = 16;

/// Credits needed for a posted write of `len` payload bytes split into
/// TLPs of at most `max_payload` bytes: `(header_credits, data_credits)`.
pub fn credits_for_write(len: u64, max_payload: u32) -> (u32, u32) {
    let tlps = len.div_ceil(max_payload as u64).max(1) as u32;
    let data = (len.div_ceil(PD_CREDIT_BYTES as u64)) as u32;
    (tlps, data)
}

/// The (header, data) credit cost of one posted write, as a named pair so
/// datapath code can precompute it once and thread a single 8-byte value
/// through admission and release instead of loose tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteCredits {
    /// Posted header credits (one per TLP).
    pub header: u32,
    /// Posted data credits (16-byte units).
    pub data: u32,
}

impl WriteCredits {
    /// Credit cost of a posted write of `len` payload bytes at `max_payload`
    /// bytes per TLP.
    pub fn for_write(len: u64, max_payload: u32) -> Self {
        let (header, data) = credits_for_write(len, max_payload);
        WriteCredits { header, data }
    }
}

/// Advertised credit limits for the posted channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditConfig {
    /// Posted header credits (max in-flight TLPs).
    pub posted_header: u32,
    /// Posted data credits (16-byte units of in-flight payload).
    pub posted_data: u32,
}

hostcc_sim::snap_fields!(CreditConfig {
    posted_header,
    posted_data
});

impl Default for CreditConfig {
    /// A root complex advertising a ~32 KiB posted window (2048 PD) and
    /// 128 header credits — eight 4 KiB packets in flight, matching the
    /// small fixed number of in-flight DMAs the paper reasons about.
    fn default() -> Self {
        CreditConfig {
            posted_header: 128,
            posted_data: 2048,
        }
    }
}

impl CreditConfig {
    /// Maximum number of whole `pkt_len`-byte writes in flight at once.
    pub fn max_inflight_writes(&self, pkt_len: u64, max_payload: u32) -> u32 {
        let (h, d) = credits_for_write(pkt_len, max_payload);
        (self.posted_header / h).min(self.posted_data / d)
    }
}

/// Live credit state for the posted channel of one link.
#[derive(Debug, Clone)]
pub struct CreditState {
    config: CreditConfig,
    header_avail: u32,
    data_avail: u32,
    /// Lifetime count of admissions refused for want of credits.
    stalls: u64,
    /// Lifetime count of admitted writes.
    admissions: u64,
}

hostcc_sim::snap_fields!(CreditState { config, header_avail, data_avail, stalls, admissions }
    check { CreditState::check_restored });

impl CreditState {
    /// Fresh state with all advertised credits available.
    pub fn new(config: CreditConfig) -> Self {
        CreditState {
            config,
            header_avail: config.posted_header,
            data_avail: config.posted_data,
            stalls: 0,
            admissions: 0,
        }
    }

    /// The advertised limits.
    pub fn config(&self) -> CreditConfig {
        self.config
    }

    /// Currently available (header, data) credits.
    pub fn available(&self) -> (u32, u32) {
        (self.header_avail, self.data_avail)
    }

    /// Whether a write consuming `(h, d)` credits can be admitted now.
    pub fn can_admit(&self, h: u32, d: u32) -> bool {
        h <= self.header_avail && d <= self.data_avail
    }

    /// Record a refused admission without attempting one. For callers that
    /// gate on [`can_admit`](Self::can_admit) and admit later (e.g. after a
    /// descriptor fetch that may itself fail), so stalls are still counted.
    pub fn note_stall(&mut self) {
        self.stalls += 1;
    }

    /// [`can_admit`](Self::can_admit) for a precomputed credit cost.
    pub fn can_admit_write(&self, w: WriteCredits) -> bool {
        self.can_admit(w.header, w.data)
    }

    /// [`try_admit`](Self::try_admit) for a precomputed credit cost.
    pub fn try_admit_write(&mut self, w: WriteCredits) -> bool {
        self.try_admit(w.header, w.data)
    }

    /// [`release`](Self::release) for a precomputed credit cost.
    pub fn release_write(&mut self, w: WriteCredits) {
        self.release(w.header, w.data)
    }

    /// Try to admit a write; consumes credits on success.
    pub fn try_admit(&mut self, h: u32, d: u32) -> bool {
        debug_assert!(
            h <= self.config.posted_header && d <= self.config.posted_data,
            "write larger than the whole advertised window can never be admitted"
        );
        if self.can_admit(h, d) {
            self.header_avail -= h;
            self.data_avail -= d;
            self.admissions += 1;
            true
        } else {
            self.stalls += 1;
            false
        }
    }

    /// Return credits after the root complex retires the write to memory.
    pub fn release(&mut self, h: u32, d: u32) {
        self.header_avail += h;
        self.data_avail += d;
        debug_assert!(
            self.header_avail <= self.config.posted_header
                && self.data_avail <= self.config.posted_data,
            "released more credits than advertised"
        );
    }

    /// Writes admitted over the lifetime.
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Admission attempts refused for lack of credits.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        if self.header_avail > self.config.posted_header
            || self.data_avail > self.config.posted_data
        {
            return Err(hostcc_sim::SnapError::Corrupt(
                "credits exceed advertised window",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_for_typical_packet() {
        // 4 KiB packet, 256 B MPS: 16 TLPs, 256 PD credits.
        assert_eq!(credits_for_write(4096, 256), (16, 256));
        // Tiny descriptor write: 1 TLP, 1 PD credit.
        assert_eq!(credits_for_write(16, 256), (1, 1));
        // Zero-length (doorbell): 1 header, 0 data.
        assert_eq!(credits_for_write(0, 256), (1, 0));
    }

    #[test]
    fn default_window_is_eight_4k_packets() {
        let c = CreditConfig::default();
        assert_eq!(c.max_inflight_writes(4096, 256), 8);
    }

    #[test]
    fn admit_consume_release_cycle() {
        let mut s = CreditState::new(CreditConfig {
            posted_header: 32,
            posted_data: 512,
        });
        let (h, d) = credits_for_write(4096, 256);
        assert!(s.try_admit(h, d));
        assert!(s.try_admit(h, d));
        // 512 PD allows exactly two 4 KiB writes.
        assert!(!s.try_admit(h, d), "third write must stall");
        assert_eq!(s.stalls(), 1);
        s.release(h, d);
        assert!(s.try_admit(h, d));
        assert_eq!(s.admissions(), 3);
    }

    #[test]
    fn header_credits_can_be_the_binding_constraint() {
        // Many tiny writes: header-bound, not data-bound.
        let mut s = CreditState::new(CreditConfig {
            posted_header: 4,
            posted_data: 1000,
        });
        for _ in 0..4 {
            assert!(s.try_admit(1, 1));
        }
        assert!(!s.try_admit(1, 1));
        assert_eq!(s.available(), (0, 996));
    }

    #[test]
    fn can_admit_is_side_effect_free() {
        let s = CreditState::new(CreditConfig::default());
        assert!(s.can_admit(16, 256));
        assert_eq!(s.available(), (128, 2048));
    }

    #[test]
    fn write_credits_mirror_tuple_helpers() {
        let w = WriteCredits::for_write(4096, 256);
        assert_eq!((w.header, w.data), credits_for_write(4096, 256));
        let mut s = CreditState::new(CreditConfig {
            posted_header: 32,
            posted_data: 512,
        });
        assert!(s.can_admit_write(w));
        assert!(s.try_admit_write(w));
        assert!(s.try_admit_write(w));
        assert!(
            !s.try_admit_write(w),
            "512 PD fits exactly two 4 KiB writes"
        );
        s.release_write(w);
        assert!(s.try_admit_write(w));
        assert_eq!(s.admissions(), 3);
        assert_eq!(s.stalls(), 1);
    }
}

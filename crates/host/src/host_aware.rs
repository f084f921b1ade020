//! A host-aware congestion controller: §4's proposed directions made
//! concrete.
//!
//! The paper argues future protocols need (a) congestion signals from
//! *outside* the network — CPU utilisation, memory contention, NIC buffer
//! state — and (b) *sub-RTT* response, because with terabit links and
//! stagnant NIC buffers, an RTT of in-flight bytes already exceeds the
//! buffer. This controller composes standard Swift (fabric + endpoint
//! delay windows) with a third window driven by the NIC input-buffer
//! occupancy echoed on every ACK:
//!
//! * occupancy above `occupancy_threshold` triggers a **per-ACK**
//!   multiplicative decrease proportional to the excess — no once-per-RTT
//!   gating, so the aggregate reaction across an incast completes in a
//!   fraction of an RTT's worth of ACKs;
//! * occupancy below the threshold lets the window recover additively.
//!
//! The window in force is the minimum of Swift's and the occupancy
//! window, so the controller is never worse-behaved than Swift on fabric
//! or CPU congestion.

use crate::cc::{AckSample, CongestionControl, LossKind};
use crate::swift::{Swift, SwiftConfig};
use hostcc_sim::SimTime;

/// Host-aware extension parameters.
#[derive(Debug, Clone)]
pub struct HostAwareConfig {
    /// The underlying Swift configuration.
    pub swift: SwiftConfig,
    /// NIC buffer occupancy above which the sub-RTT decrease engages.
    pub occupancy_threshold: f64,
    /// Per-ACK multiplicative-decrease gain on the normalised excess:
    /// `w *= 1 - gamma * (occ - thr)/(1 - thr)`.
    pub gamma: f64,
    /// Additive recovery per acked packet while below the threshold
    /// (defaults to Swift's additive increase so the occupancy window
    /// never lags the Swift windows during congestion-free operation).
    pub recovery_ai: f64,
}

impl Default for HostAwareConfig {
    fn default() -> Self {
        HostAwareConfig {
            swift: SwiftConfig::default(),
            occupancy_threshold: 0.25,
            gamma: 0.08,
            recovery_ai: 1.0,
        }
    }
}

/// Swift + occupancy-driven sub-RTT host window.
#[derive(Debug)]
pub struct HostAware {
    swift: Swift,
    cfg: HostAwareConfig,
    occ_cwnd: f64,
    occupancy_decreases: u64,
}

hostcc_sim::snap_fields!(HostAware { swift, occ_cwnd, occupancy_decreases } skip { cfg }
    check { HostAware::check_restored });

impl HostAware {
    /// A flow starting at `initial_cwnd` packets.
    pub(crate) fn new(cfg: HostAwareConfig, initial_cwnd: f64) -> Self {
        HostAware {
            swift: Swift::new(cfg.swift.clone(), initial_cwnd),
            occ_cwnd: initial_cwnd,
            cfg,
            occupancy_decreases: 0,
        }
    }

    /// The occupancy-driven window (diagnostics).
    #[cfg(test)]
    pub(crate) fn occupancy_window(&self) -> f64 {
        self.occ_cwnd
    }

    /// Sub-RTT decreases taken so far.
    #[cfg(test)]
    pub(crate) fn occupancy_decreases(&self) -> u64 {
        self.occupancy_decreases
    }

    /// The wrapped Swift controller (diagnostics).
    #[cfg(test)]
    pub(crate) fn swift(&self) -> &Swift {
        &self.swift
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        let w = self.occ_cwnd;
        if !w.is_finite() || w < self.cfg.swift.min_cwnd || w > self.cfg.swift.max_cwnd {
            return Err(hostcc_sim::SnapError::Corrupt(
                "occupancy window out of bounds",
            ));
        }
        Ok(())
    }
}

impl CongestionControl for HostAware {
    fn on_ack(&mut self, sample: AckSample) {
        self.swift.on_ack(sample);
        let thr = self.cfg.occupancy_threshold;
        let occ = sample.nic_buffer_frac.clamp(0.0, 1.0);
        if occ > thr {
            // Sub-RTT: every ACK above threshold shrinks the window a
            // little; a burst of signalling ACKs compounds within one RTT.
            let excess = (occ - thr) / (1.0 - thr);
            self.occ_cwnd *= 1.0 - self.cfg.gamma * excess;
            self.occupancy_decreases += 1;
        } else if self.occ_cwnd >= 1.0 {
            self.occ_cwnd += self.cfg.recovery_ai * sample.newly_acked as f64 / self.occ_cwnd;
        } else {
            self.occ_cwnd += self.cfg.recovery_ai * sample.newly_acked as f64;
        }
        self.occ_cwnd = self
            .occ_cwnd
            .clamp(self.cfg.swift.min_cwnd, self.cfg.swift.max_cwnd);
    }

    fn on_loss(&mut self, now: SimTime, kind: LossKind) {
        self.swift.on_loss(now, kind);
        self.occ_cwnd =
            (self.occ_cwnd * (1.0 - self.cfg.swift.max_mdf)).max(self.cfg.swift.min_cwnd);
    }

    fn cwnd(&self) -> f64 {
        self.swift.cwnd().min(self.occ_cwnd)
    }

    fn name(&self) -> &'static str {
        "host-aware"
    }

    fn decrease_stats(&self) -> Option<(u64, u64, u64)> {
        let (f, e, l) = self.swift.decrease_stats()?;
        Some((f, e + self.occupancy_decreases, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_sim::SimDuration;

    fn sample(now_us: u64, occ: f64) -> AckSample {
        AckSample {
            now: SimTime::from_micros(now_us),
            rtt: SimDuration::from_micros(25),
            host_delay: SimDuration::from_micros(10),
            ecn_ce: false,
            nic_buffer_frac: occ,
            newly_acked: 1,
        }
    }

    #[test]
    fn low_occupancy_behaves_like_swift() {
        let mut h = HostAware::new(HostAwareConfig::default(), 8.0);
        let mut s = Swift::new(SwiftConfig::default(), 8.0);
        for i in 0..100 {
            h.on_ack(sample(i * 30, 0.05));
            s.on_ack(sample(i * 30, 0.05));
        }
        // The occupancy window recovers above Swift's, so Swift's binds.
        assert!((h.cwnd() - s.cwnd()).abs() < 1e-9);
        assert_eq!(h.occupancy_decreases(), 0);
    }

    #[test]
    fn high_occupancy_cuts_within_a_handful_of_acks() {
        // Sub-RTT: all samples inside one RTT (gating would allow only a
        // single decrease; the occupancy window takes one per ACK).
        let mut h = HostAware::new(HostAwareConfig::default(), 16.0);
        let w0 = h.cwnd();
        for i in 0..10 {
            h.on_ack(sample(i, 0.95)); // 10 ACKs within 10 us << RTT
        }
        assert_eq!(h.occupancy_decreases(), 10);
        assert!(
            h.cwnd() < w0 * 0.6,
            "ten signalling ACKs should compound: {} -> {}",
            w0,
            h.cwnd()
        );
    }

    #[test]
    fn decrease_is_proportional_to_excess() {
        let mut mild = HostAware::new(HostAwareConfig::default(), 16.0);
        let mut severe = HostAware::new(HostAwareConfig::default(), 16.0);
        for i in 0..20 {
            mild.on_ack(sample(i, 0.30));
            severe.on_ack(sample(i, 1.00));
        }
        assert!(severe.occupancy_window() < mild.occupancy_window());
    }

    #[test]
    fn recovers_after_congestion_clears() {
        let mut h = HostAware::new(HostAwareConfig::default(), 16.0);
        for i in 0..50 {
            h.on_ack(sample(i, 0.9));
        }
        let low = h.occupancy_window();
        for i in 50..2000 {
            h.on_ack(sample(i * 30, 0.05));
        }
        assert!(h.occupancy_window() > low * 2.0, "window should recover");
    }

    #[test]
    fn min_of_windows_binds() {
        let mut h = HostAware::new(HostAwareConfig::default(), 16.0);
        // Drive only the occupancy signal down; Swift sees clean delays.
        for i in 0..200 {
            h.on_ack(sample(i, 0.99));
        }
        assert!(h.occupancy_window() < h.swift().cwnd());
        assert!((h.cwnd() - h.occupancy_window()).abs() < 1e-12);
    }

    #[test]
    fn loss_cuts_both_windows() {
        let mut h = HostAware::new(HostAwareConfig::default(), 16.0);
        h.on_loss(SimTime::from_micros(1), LossKind::FastRetransmit);
        assert!(h.occupancy_window() <= 8.0 + 1e-9);
        assert!(h.swift().cwnd() <= 8.0 + 1e-9);
    }
}

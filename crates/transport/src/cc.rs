//! The congestion-control interface.
//!
//! A congestion controller turns per-ACK feedback (RTT, receiver host-delay
//! echo, ECN) into a congestion window and a pacing rate. The host-side
//! sender machinery (`flow.rs`) is controller-agnostic so Swift, the
//! DCTCP-like baseline and the fixed-window control can be swapped per
//! experiment.

use hostcc_sim::{SimDuration, SimTime};

/// Feedback delivered to the controller for each ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Arrival time of the ACK at the sender.
    pub now: SimTime,
    /// Measured round-trip time (ACK arrival − data transmit timestamp).
    pub rtt: SimDuration,
    /// Receiver host delay echoed in the ACK (NIC arrival → stack done).
    pub host_delay: SimDuration,
    /// ECN congestion-experienced echo.
    pub ecn_ce: bool,
    /// NIC input-buffer occupancy fraction echoed by the receiver
    /// (0.0–1.0); the §4 "outside the network" signal. Legacy controllers
    /// ignore it.
    pub nic_buffer_frac: f64,
    /// Packets newly acknowledged by this ACK.
    pub newly_acked: u64,
}

/// Loss events reported to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Loss inferred from duplicate/selective ACK information.
    FastRetransmit,
    /// Retransmission timeout fired.
    Timeout,
}

/// A congestion-control algorithm.
///
/// `Send` is required so a `Testbed` (which boxes its controllers) can be
/// moved onto a parallel-engine worker thread.
pub trait CongestionControl: Send + hostcc_sim::Snap {
    /// Process ACK feedback.
    fn on_ack(&mut self, sample: AckSample);

    /// Process a loss event.
    fn on_loss(&mut self, now: SimTime, kind: LossKind);

    /// Current congestion window in packets. May be fractional; values
    /// below 1.0 mean "send less than one packet per RTT" (enforced via
    /// pacing).
    fn cwnd(&self) -> f64;

    /// Minimum spacing between packet transmissions at the current window
    /// and `rtt` estimate. `None` means window-limited only (no pacing).
    fn pacing_interval(&self, rtt: SimDuration) -> Option<SimDuration> {
        let w = self.cwnd();
        if w >= 1.0 {
            None
        } else {
            // One packet per rtt/cwnd.
            Some(SimDuration::from_nanos(
                (rtt.as_nanos() as f64 / w.max(1e-3)) as u64,
            ))
        }
    }

    /// Human-readable algorithm name (reports/plots).
    fn name(&self) -> &'static str;

    /// Optional diagnostic counters: (fabric decreases, endpoint
    /// decreases, losses) for delay-based controllers. `None` for
    /// controllers without that decomposition.
    fn decrease_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

/// Smoothed RTT estimate (EWMA with the classic 1/8 gain) shared by
/// senders for pacing and RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
}

hostcc_sim::snap_fields!(RttEstimator {
    srtt,
    rttvar,
    min_rtt
});

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// A fresh estimator with no samples.
    pub fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: SimDuration::MAX,
        }
    }

    /// Fold in a new RTT sample (RFC 6298-style smoothing).
    pub fn record(&mut self, rtt: SimDuration) {
        self.min_rtt = self.min_rtt.min(rtt);
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                // rttvar = 3/4 rttvar + 1/4 |delta|
                self.rttvar =
                    SimDuration::from_nanos((self.rttvar.as_nanos() * 3 + delta.as_nanos()) / 4);
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some(SimDuration::from_nanos(
                    (srtt.as_nanos() * 7 + rtt.as_nanos()) / 8,
                ));
            }
        }
    }

    /// Smoothed RTT; falls back to `default` before the first sample.
    pub fn srtt_or(&self, default: SimDuration) -> SimDuration {
        self.srtt.unwrap_or(default)
    }

    /// Lowest RTT ever observed (propagation estimate).
    pub fn min_rtt(&self) -> SimDuration {
        if self.min_rtt == SimDuration::MAX {
            SimDuration::ZERO
        } else {
            self.min_rtt
        }
    }

    /// Retransmission timeout: `srtt + 4·rttvar`, floored.
    pub fn rto(&self, floor: SimDuration) -> SimDuration {
        match self.srtt {
            None => floor,
            Some(srtt) => {
                let rto = srtt + self.rttvar * 4;
                if rto > floor {
                    rto
                } else {
                    floor
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub(f64);
    hostcc_sim::snap_fields!(Stub {} skip { 0 });
    impl CongestionControl for Stub {
        fn on_ack(&mut self, _s: AckSample) {}
        fn on_loss(&mut self, _n: SimTime, _k: LossKind) {}
        fn cwnd(&self) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "stub"
        }
    }

    #[test]
    fn pacing_only_below_one_packet_window() {
        let big = Stub(8.0);
        assert_eq!(big.pacing_interval(SimDuration::from_micros(50)), None);
        let small = Stub(0.5);
        let iv = small.pacing_interval(SimDuration::from_micros(50)).unwrap();
        // One packet per 100 us at cwnd 0.5 and RTT 50 us.
        assert_eq!(iv, SimDuration::from_micros(100));
    }

    #[test]
    fn rtt_estimator_first_sample_adopted() {
        let mut e = RttEstimator::new();
        assert_eq!(
            e.srtt_or(SimDuration::from_micros(1)),
            SimDuration::from_micros(1)
        );
        e.record(SimDuration::from_micros(40));
        assert_eq!(e.srtt_or(SimDuration::ZERO), SimDuration::from_micros(40));
        assert_eq!(e.min_rtt(), SimDuration::from_micros(40));
    }

    #[test]
    fn rtt_estimator_smooths_and_tracks_min() {
        let mut e = RttEstimator::new();
        e.record(SimDuration::from_micros(40));
        for _ in 0..100 {
            e.record(SimDuration::from_micros(80));
        }
        let srtt = e.srtt_or(SimDuration::ZERO).as_micros_f64();
        assert!((srtt - 80.0).abs() < 1.0, "converged srtt {srtt}");
        assert_eq!(e.min_rtt(), SimDuration::from_micros(40));
    }

    #[test]
    fn rto_has_floor_and_grows_with_variance() {
        let mut e = RttEstimator::new();
        let floor = SimDuration::from_millis(1);
        assert_eq!(e.rto(floor), floor);
        // Highly variable RTTs push the RTO above the floor.
        for i in 0..50 {
            e.record(SimDuration::from_micros(if i % 2 == 0 { 100 } else { 900 }));
        }
        assert!(e.rto(SimDuration::from_micros(10)) > SimDuration::from_micros(500));
    }
}

//! A DCTCP-style ECN-proportional controller.
//!
//! The baseline "TCP-like" protocol for comparison (§4 argues that
//! TCP/DCTCP-class protocols share Swift's host-congestion blind spot:
//! they watch fabric signals — ECN marks from switches — and never see the
//! NIC input buffer at all). Implements the standard DCTCP rule: maintain
//! an EWMA `alpha` of the fraction of marked packets per RTT and cut the
//! window by `alpha/2` once per round.

use crate::cc::{AckSample, CongestionControl, LossKind};
use hostcc_sim::{SimDuration, SimTime};

/// DCTCP parameters.
#[derive(Debug, Clone)]
pub struct DctcpConfig {
    /// EWMA gain for the marked fraction (RFC 8257 suggests 1/16).
    pub(crate) g: f64,
    /// Additive increase per RTT in congestion avoidance, packets.
    pub(crate) ai: f64,
    /// Window bounds, packets.
    pub(crate) min_cwnd: f64,
    /// Upper window bound, packets.
    pub(crate) max_cwnd: f64,
    /// Slow-start threshold, packets.
    pub(crate) initial_ssthresh: f64,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        DctcpConfig {
            g: 1.0 / 16.0,
            ai: 1.0,
            min_cwnd: 1.0,
            max_cwnd: 256.0,
            initial_ssthresh: 64.0,
        }
    }
}

/// DCTCP controller state for one flow.
#[derive(Debug)]
pub struct Dctcp {
    cfg: DctcpConfig,
    cwnd: f64,
    ssthresh: f64,
    alpha: f64,
    // Per-round accounting.
    round_end: SimTime,
    round_acked: u64,
    round_marked: u64,
    losses: u64,
}

hostcc_sim::snap_fields!(Dctcp {
    cwnd, ssthresh, alpha, round_end, round_acked, round_marked, losses,
} skip { cfg } check { Dctcp::check_restored });

impl Dctcp {
    /// A flow starting at `initial_cwnd` packets.
    pub(crate) fn new(cfg: DctcpConfig, initial_cwnd: f64) -> Self {
        Dctcp {
            cwnd: initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            cfg,
            alpha: 0.0,
            round_end: SimTime::ZERO,
            round_acked: 0,
            round_marked: 0,
            losses: 0,
        }
    }

    /// The current marked-fraction estimate.
    #[cfg(test)]
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Loss events observed.
    #[cfg(test)]
    pub(crate) fn losses(&self) -> u64 {
        self.losses
    }

    fn end_round(&mut self, now: SimTime, rtt: SimDuration) {
        if self.round_acked > 0 {
            let frac = self.round_marked as f64 / self.round_acked as f64;
            self.alpha += self.cfg.g * (frac - self.alpha);
            if self.round_marked > 0 {
                // Proportional decrease.
                self.cwnd *= 1.0 - self.alpha / 2.0;
                self.ssthresh = self.cwnd;
            } else if self.cwnd < self.ssthresh {
                // Slow start: double per round.
                self.cwnd *= 2.0;
            } else {
                self.cwnd += self.cfg.ai;
            }
            self.cwnd = self.cwnd.clamp(self.cfg.min_cwnd, self.cfg.max_cwnd);
        }
        self.round_acked = 0;
        self.round_marked = 0;
        self.round_end = now + rtt;
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if !self.cwnd.is_finite() || self.cwnd <= 0.0 {
            return Err(SnapError::Corrupt("dctcp window out of bounds"));
        }
        if !self.ssthresh.is_finite() || self.ssthresh <= 0.0 {
            return Err(SnapError::Corrupt("dctcp ssthresh out of bounds"));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(SnapError::Corrupt("dctcp alpha out of range"));
        }
        if self.round_marked > self.round_acked {
            return Err(SnapError::Corrupt("dctcp marks exceed acks"));
        }
        Ok(())
    }
}

impl CongestionControl for Dctcp {
    fn on_ack(&mut self, sample: AckSample) {
        self.round_acked += sample.newly_acked;
        if sample.ecn_ce {
            self.round_marked += sample.newly_acked;
        }
        if sample.now >= self.round_end {
            self.end_round(sample.now, sample.rtt);
        }
    }

    fn on_loss(&mut self, _now: SimTime, kind: LossKind) {
        self.losses += 1;
        self.cwnd = match kind {
            LossKind::FastRetransmit => (self.cwnd * 0.5).max(self.cfg.min_cwnd),
            LossKind::Timeout => self.cfg.min_cwnd,
        };
        self.ssthresh = self.cwnd.max(self.cfg.min_cwnd * 2.0);
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_us: u64, marked: bool) -> AckSample {
        AckSample {
            now: SimTime::from_micros(now_us),
            rtt: SimDuration::from_micros(50),
            host_delay: SimDuration::ZERO,
            ecn_ce: marked,
            nic_buffer_frac: 0.0,
            newly_acked: 1,
        }
    }

    #[test]
    fn slow_start_doubles_until_ssthresh() {
        let mut d = Dctcp::new(DctcpConfig::default(), 2.0);
        // Several unmarked rounds.
        for r in 0..4 {
            for i in 0..10 {
                d.on_ack(ack(r * 60 + i, false));
            }
            d.on_ack(ack((r + 1) * 60, false));
        }
        assert!(d.cwnd() > 16.0, "slow start should grow fast: {}", d.cwnd());
    }

    #[test]
    fn full_marking_converges_to_half() {
        let mut d = Dctcp::new(DctcpConfig::default(), 100.0);
        // Every packet marked for many rounds: alpha -> 1, window halves
        // each round until the floor.
        for r in 0..200u64 {
            for i in 0..5 {
                d.on_ack(ack(r * 60 + i, true));
            }
            d.on_ack(ack((r + 1) * 60, true));
        }
        assert!(d.alpha() > 0.9, "alpha {}", d.alpha());
        assert!(
            d.cwnd() <= 2.0,
            "persistent marking floors cwnd: {}",
            d.cwnd()
        );
    }

    #[test]
    fn light_marking_cuts_gently() {
        let mut d = Dctcp::new(DctcpConfig::default(), 100.0);
        // One marked packet in 20 per round: alpha stays small, decreases
        // are proportionally small - DCTCP's signature.
        for r in 0..30u64 {
            for i in 0..19 {
                d.on_ack(ack(r * 60 + i, false));
            }
            d.on_ack(ack(r * 60 + 59, true));
        }
        assert!(d.alpha() < 0.2, "alpha {}", d.alpha());
        assert!(d.cwnd() > 50.0, "gentle decrease: {}", d.cwnd());
    }

    #[test]
    fn timeout_collapses_window() {
        let mut d = Dctcp::new(DctcpConfig::default(), 64.0);
        d.on_loss(SimTime::ZERO, LossKind::Timeout);
        assert_eq!(d.cwnd(), 1.0);
        assert_eq!(d.losses(), 1);
    }

    #[test]
    fn fast_retransmit_halves_window() {
        let mut d = Dctcp::new(DctcpConfig::default(), 64.0);
        d.on_loss(SimTime::ZERO, LossKind::FastRetransmit);
        assert_eq!(d.cwnd(), 32.0);
    }

    #[test]
    fn ignores_host_delay_signal() {
        // The baseline's defining limitation: enormous host delay with no
        // ECN marks never shrinks the window.
        let mut d = Dctcp::new(DctcpConfig::default(), 8.0);
        let w0 = d.cwnd();
        for r in 0..10u64 {
            let mut s = ack(r * 60, false);
            s.host_delay = SimDuration::from_millis(5);
            d.on_ack(s);
        }
        assert!(d.cwnd() >= w0, "host delay must be invisible to DCTCP");
    }
}

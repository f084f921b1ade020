//! A fixed-window "controller": no reaction to anything.
//!
//! Used for calibration (what does the datapath do at a known offered
//! load?) and as the straw-man showing what happens with no congestion
//! control at all.

use crate::cc::{AckSample, CongestionControl, LossKind};
use hostcc_sim::SimTime;

/// Constant-window pseudo-controller.
#[derive(Debug, Clone)]
pub(crate) struct FixedWindow {
    cwnd: f64,
}

// The window is configuration: nothing evolves, nothing is checkpointed.
hostcc_sim::snap_fields!(FixedWindow {} skip { cwnd });

impl FixedWindow {
    /// A window fixed at `cwnd` packets forever.
    pub(crate) fn new(cwnd: f64) -> Self {
        assert!(cwnd > 0.0, "window must be positive");
        FixedWindow { cwnd }
    }
}

impl CongestionControl for FixedWindow {
    fn on_ack(&mut self, _sample: AckSample) {}
    fn on_loss(&mut self, _now: SimTime, _kind: LossKind) {}
    fn cwnd(&self) -> f64 {
        self.cwnd
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc_sim::SimDuration;

    #[test]
    fn window_never_moves() {
        let mut f = FixedWindow::new(16.0);
        f.on_ack(AckSample {
            now: SimTime::from_micros(1),
            rtt: SimDuration::from_millis(10),
            host_delay: SimDuration::from_millis(9),
            ecn_ce: true,
            nic_buffer_frac: 0.9,
            newly_acked: 5,
        });
        f.on_loss(SimTime::from_micros(2), LossKind::Timeout);
        assert_eq!(f.cwnd(), 16.0);
        assert_eq!(f.name(), "fixed");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = FixedWindow::new(0.0);
    }
}

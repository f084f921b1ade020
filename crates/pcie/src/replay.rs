//! PCIe data-link-layer retry: the DLLP ACK/NAK replay mechanism.
//!
//! Every TLP sits in the transmitter's replay buffer until the receiver
//! ACKs it. On a NAK (LCRC error, sequence gap) the transmitter waits out
//! its REPLAY_TIMER and resends everything from the NAKed sequence number
//! onward. Consecutive NAKs back the timer off exponentially — the link
//! keeps making progress, just slower, which is exactly the degradation
//! mode fault injection needs to exercise: latency inflation without
//! packet loss, invisible to the transport.

/// Replay-timer parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Base REPLAY_TIMER expiry before the first retry, ns. PCIe Gen3
    /// x16 spec tables put this around 160–450 symbol times; ~500 ns is
    /// a realistic round figure at 8 GT/s.
    pub replay_timer_ns: u64,
    /// Cap on the exponential backoff shift (timer maxes out at
    /// `replay_timer_ns << max_backoff`).
    pub max_backoff: u32,
}

hostcc_sim::snap_fields!(ReplayConfig {
    replay_timer_ns,
    max_backoff
});

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            replay_timer_ns: 500,
            max_backoff: 6,
        }
    }
}

/// Transmit-side replay state for one link: how long the current TLP is
/// delayed when NAKed, with exponential backoff across consecutive NAKs
/// and reset on the first clean ACK.
#[derive(Debug, Clone, Default)]
pub struct ReplayChannel {
    cfg: ReplayConfig,
    backoff: u32,
    naks: u64,
    replays: u64,
    replay_ns: u64,
}

hostcc_sim::snap_fields!(ReplayChannel { cfg, backoff, naks, replays, replay_ns }
    check { ReplayChannel::check_restored });

impl ReplayChannel {
    /// A replay channel with the given timer parameters.
    pub fn new(cfg: ReplayConfig) -> Self {
        ReplayChannel {
            cfg,
            backoff: 0,
            naks: 0,
            replays: 0,
            replay_ns: 0,
        }
    }

    /// The receiver NAKed the in-flight TLP: charge one replay and return
    /// the extra link latency (REPLAY_TIMER at the current backoff). Each
    /// consecutive NAK doubles the timer up to the configured cap.
    pub fn nak(&mut self) -> u64 {
        let delay = self.cfg.replay_timer_ns << self.backoff.min(self.cfg.max_backoff);
        self.backoff = (self.backoff + 1).min(self.cfg.max_backoff);
        self.naks += 1;
        self.replays += 1;
        self.replay_ns += delay;
        delay
    }

    /// The receiver ACKed cleanly: the replay buffer advances and the
    /// backoff resets.
    pub fn ack(&mut self) {
        self.backoff = 0;
    }

    /// Current backoff shift (0 after a clean ACK).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Lifetime NAKs received.
    pub fn naks(&self) -> u64 {
        self.naks
    }

    /// Lifetime TLP replays issued.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Total link time spent waiting on the replay timer, ns.
    pub fn replay_ns(&self) -> u64 {
        self.replay_ns
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        if self.backoff > self.cfg.max_backoff {
            return Err(hostcc_sim::SnapError::Corrupt("replay backoff above cap"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nak_backs_off_exponentially_and_caps() {
        let mut ch = ReplayChannel::new(ReplayConfig {
            replay_timer_ns: 100,
            max_backoff: 3,
        });
        assert_eq!(ch.nak(), 100);
        assert_eq!(ch.nak(), 200);
        assert_eq!(ch.nak(), 400);
        assert_eq!(ch.nak(), 800);
        assert_eq!(ch.nak(), 800, "capped at replay_timer << max_backoff");
        assert_eq!(ch.naks(), 5);
        assert_eq!(ch.replay_ns(), 100 + 200 + 400 + 800 + 800);
    }

    #[test]
    fn counters_export() {
        // The lifetime counters the host exports as `pcie.replay.*`.
        let mut ch = ReplayChannel::new(ReplayConfig {
            replay_timer_ns: 10,
            max_backoff: 2,
        });
        ch.nak();
        ch.nak();
        assert_eq!((ch.naks(), ch.replays(), ch.replay_ns()), (2, 2, 30));
    }

    #[test]
    fn ack_resets_backoff() {
        let mut ch = ReplayChannel::new(ReplayConfig::default());
        ch.nak();
        ch.nak();
        assert!(ch.backoff() > 0);
        ch.ack();
        assert_eq!(ch.backoff(), 0);
        assert_eq!(ch.nak(), 500, "first NAK after an ACK pays the base timer");
    }
}

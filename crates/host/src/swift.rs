//! Swift congestion control (Kumar et al., SIGCOMM 2020) — the protocol the
//! paper's production cluster and testbed run.
//!
//! Swift is a delay-based AIMD protocol with one decisive feature for this
//! study: it decomposes the measured RTT into a *fabric* component and an
//! *endpoint (host)* component, maintains a separate window for each, and
//! uses the minimum. The endpoint window reacts when the receiver's host
//! delay exceeds a **target host delay of 100 µs** — chosen to absorb
//! CPU-induced host delays. The paper's central observation (§3.1) is that
//! a ~1 MiB NIC buffer drains in *less* than that target whenever the
//! NIC-to-memory path still moves ≥ 88.8 Gbps, so under host-interconnect
//! congestion the buffer overflows before Swift ever sees a 100 µs host
//! delay: drops happen with the protocol's eyes open.

use crate::cc::{AckSample, CongestionControl, LossKind};
use hostcc_sim::{SimDuration, SimTime};

/// Swift parameters.
#[derive(Debug, Clone)]
pub struct SwiftConfig {
    /// Base fabric target delay (propagation + per-hop allowances).
    pub(crate) fabric_base_target: SimDuration,
    /// Target endpoint (host) delay; the paper's deployment uses 100 µs.
    pub host_target: SimDuration,
    /// Additive increase, packets per RTT.
    pub ai: f64,
    /// Multiplicative-decrease gain applied to the normalised delay excess.
    pub beta: f64,
    /// Maximum multiplicative decrease per event (cwnd is multiplied by at
    /// least `1 - max_mdf`).
    pub max_mdf: f64,
    /// Window bounds, packets.
    pub(crate) min_cwnd: f64,
    /// Upper window bound, packets.
    pub(crate) max_cwnd: f64,
    /// Flow-scaling range: extra fabric target `fs_range / sqrt(cwnd)`,
    /// bounded by `fs_range * fs_cap_multiplier`; 0 disables flow scaling.
    pub(crate) fs_range: SimDuration,
    /// Cap on the flow-scaled extra target, as a multiple of `fs_range`.
    ///
    /// Must exceed 1.0 for flow scaling to keep differentiating flows with
    /// sub-packet windows (the regime of a 480-flow incast): a saturated
    /// cap gives every small flow the same target, removing the force that
    /// equalises them.
    pub(crate) fs_cap_multiplier: f64,
    /// Timeout decrease: cwnd multiplier on RTO.
    pub(crate) rto_mdf: f64,
}

impl Default for SwiftConfig {
    fn default() -> Self {
        SwiftConfig {
            fabric_base_target: SimDuration::from_micros(25),
            host_target: SimDuration::from_micros(100),
            ai: 1.0,
            beta: 0.8,
            max_mdf: 0.5,
            min_cwnd: 0.01,
            max_cwnd: 256.0,
            fs_range: SimDuration::from_micros(50),
            fs_cap_multiplier: 3.0,
            rto_mdf: 0.5,
        }
    }
}

/// One delay-tracked window (Swift keeps two: fabric and endpoint).
#[derive(Debug, Clone)]
struct DelayWindow {
    cwnd: f64,
    last_decrease: SimTime,
}

hostcc_sim::snap_fields!(DelayWindow {
    cwnd,
    last_decrease
});

impl DelayWindow {
    fn new(initial: f64) -> Self {
        DelayWindow {
            cwnd: initial,
            last_decrease: SimTime::ZERO,
        }
    }

    /// Apply Swift's per-ACK rule against `target`.
    fn update(
        &mut self,
        delay: SimDuration,
        target: SimDuration,
        sample: &AckSample,
        cfg: &SwiftConfig,
    ) {
        if delay <= target {
            // Additive increase: ai/cwnd per acked packet above one packet,
            // ai per acked packet below.
            let acked = sample.newly_acked as f64;
            if self.cwnd >= 1.0 {
                self.cwnd += cfg.ai * acked / self.cwnd;
            } else {
                self.cwnd += cfg.ai * acked;
            }
        } else {
            // At most one multiplicative decrease per RTT.
            let can_decrease = sample.now.saturating_since(self.last_decrease) >= sample.rtt;
            if can_decrease {
                let excess =
                    (delay.as_nanos() - target.as_nanos()) as f64 / delay.as_nanos() as f64;
                let factor = (1.0 - cfg.beta * excess).max(1.0 - cfg.max_mdf);
                self.cwnd *= factor;
                self.last_decrease = sample.now;
            }
        }
        self.cwnd = self.cwnd.clamp(cfg.min_cwnd, cfg.max_cwnd);
    }
}

/// Per-ACK decision record, exported for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwiftStats {
    /// ACKs processed.
    pub(crate) acks: u64,
    /// Multiplicative decreases triggered by the fabric window.
    pub(crate) fabric_decreases: u64,
    /// Multiplicative decreases triggered by the endpoint window.
    pub(crate) endpoint_decreases: u64,
    /// Loss events (fast retransmit + timeout).
    pub(crate) losses: u64,
}

hostcc_sim::snap_fields!(SwiftStats {
    acks,
    fabric_decreases,
    endpoint_decreases,
    losses
});

/// The Swift congestion controller for one flow.
#[derive(Debug)]
pub struct Swift {
    cfg: SwiftConfig,
    fabric: DelayWindow,
    endpoint: DelayWindow,
    stats: SwiftStats,
}

hostcc_sim::snap_fields!(Swift { fabric, endpoint, stats } skip { cfg }
    check { Swift::check_restored });

impl Swift {
    /// A flow starting at `initial_cwnd` packets.
    pub fn new(cfg: SwiftConfig, initial_cwnd: f64) -> Self {
        Swift {
            fabric: DelayWindow::new(initial_cwnd),
            endpoint: DelayWindow::new(initial_cwnd),
            cfg,
            stats: SwiftStats::default(),
        }
    }

    /// The fabric target at the current window (base + flow scaling).
    pub(crate) fn fabric_target(&self) -> SimDuration {
        if self.cfg.fs_range.is_zero() {
            return self.cfg.fabric_base_target;
        }
        let w = self.cwnd().max(self.cfg.min_cwnd);
        let extra = self.cfg.fs_range.as_nanos() as f64 / w.sqrt();
        let cap = self.cfg.fs_range.as_nanos() as f64 * self.cfg.fs_cap_multiplier.max(1.0);
        let extra = extra.min(cap);
        self.cfg.fabric_base_target + SimDuration::from_nanos(extra as u64)
    }

    /// Controller statistics.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> SwiftStats {
        self.stats
    }

    /// The two internal windows (fabric, endpoint) for diagnostics.
    #[cfg(test)]
    pub(crate) fn windows(&self) -> (f64, f64) {
        (self.fabric.cwnd, self.endpoint.cwnd)
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        for win in [&self.fabric, &self.endpoint] {
            if !win.cwnd.is_finite() || win.cwnd < self.cfg.min_cwnd || win.cwnd > self.cfg.max_cwnd
            {
                return Err(hostcc_sim::SnapError::Corrupt("swift window out of bounds"));
            }
        }
        Ok(())
    }
}

impl CongestionControl for Swift {
    fn on_ack(&mut self, sample: AckSample) {
        self.stats.acks += 1;
        // Decompose: endpoint delay is echoed by the receiver; the fabric
        // component is what remains of the RTT.
        let host_delay = sample.host_delay;
        let fabric_delay = sample.rtt.saturating_sub(host_delay);

        let fabric_target = self.fabric_target();
        let before_f = self.fabric.last_decrease;
        self.fabric
            .update(fabric_delay, fabric_target, &sample, &self.cfg);
        if self.fabric.last_decrease != before_f {
            self.stats.fabric_decreases += 1;
        }

        let before_e = self.endpoint.last_decrease;
        self.endpoint
            .update(host_delay, self.cfg.host_target, &sample, &self.cfg);
        if self.endpoint.last_decrease != before_e {
            self.stats.endpoint_decreases += 1;
        }
    }

    fn on_loss(&mut self, now: SimTime, kind: LossKind) {
        self.stats.losses += 1;
        let factor = match kind {
            LossKind::FastRetransmit => 1.0 - self.cfg.max_mdf,
            LossKind::Timeout => self.cfg.rto_mdf,
        };
        self.fabric.cwnd = (self.fabric.cwnd * factor).max(self.cfg.min_cwnd);
        self.endpoint.cwnd = (self.endpoint.cwnd * factor).max(self.cfg.min_cwnd);
        self.fabric.last_decrease = now;
        self.endpoint.last_decrease = now;
    }

    fn cwnd(&self) -> f64 {
        self.fabric.cwnd.min(self.endpoint.cwnd)
    }

    fn name(&self) -> &'static str {
        "swift"
    }

    fn decrease_stats(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.stats.fabric_decreases,
            self.stats.endpoint_decreases,
            self.stats.losses,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(now_us: u64, rtt_us: u64, host_us: u64) -> AckSample {
        AckSample {
            now: SimTime::from_micros(now_us),
            rtt: SimDuration::from_micros(rtt_us),
            host_delay: SimDuration::from_micros(host_us),
            ecn_ce: false,
            nic_buffer_frac: 0.0,
            newly_acked: 1,
        }
    }

    fn swift() -> Swift {
        Swift::new(SwiftConfig::default(), 10.0)
    }

    #[test]
    fn low_delay_grows_window() {
        let mut s = swift();
        let w0 = s.cwnd();
        for i in 0..50 {
            s.on_ack(sample(i * 20, 15, 5));
        }
        assert!(s.cwnd() > w0, "window should grow under low delay");
        assert_eq!(s.stats().fabric_decreases, 0);
        assert_eq!(s.stats().endpoint_decreases, 0);
    }

    #[test]
    fn high_fabric_delay_shrinks_window() {
        let mut s = swift();
        let w0 = s.cwnd();
        // Fabric delay 400 us (host 5): well beyond base target.
        for i in 0..20 {
            s.on_ack(sample(i * 500, 405, 5));
        }
        assert!(s.cwnd() < w0, "fabric congestion must shrink cwnd");
        assert!(s.stats().fabric_decreases > 0);
        assert_eq!(s.stats().endpoint_decreases, 0);
    }

    #[test]
    fn host_delay_below_target_is_invisible() {
        // The paper's blind spot: 90 us of host delay (a full NIC buffer at
        // high drain rate) is *below* the 100 us target, so Swift keeps
        // growing the window even though the NIC queue is about to
        // overflow.
        let mut s = swift();
        let w0 = s.cwnd();
        for i in 0..50 {
            s.on_ack(sample(i * 120, 110, 90));
        }
        assert!(
            s.cwnd() > w0,
            "host delay below the 100 us target must not trigger decrease"
        );
        assert_eq!(s.stats().endpoint_decreases, 0);
    }

    #[test]
    fn host_delay_above_target_triggers_endpoint_decrease() {
        let mut s = swift();
        for i in 0..20 {
            s.on_ack(sample(i * 300, 160, 140));
        }
        assert!(s.stats().endpoint_decreases > 0);
        let (fabric, endpoint) = s.windows();
        assert!(
            endpoint < fabric,
            "endpoint window should bind: {endpoint} vs {fabric}"
        );
    }

    #[test]
    fn at_most_one_decrease_per_rtt() {
        let mut s = swift();
        // Three back-to-back ACKs with huge delay within one RTT window.
        s.on_ack(sample(10, 500, 450));
        let w_after_first = s.cwnd();
        s.on_ack(sample(11, 500, 450));
        s.on_ack(sample(12, 500, 450));
        assert_eq!(
            s.cwnd(),
            w_after_first,
            "additional decreases within the same RTT must be suppressed"
        );
    }

    #[test]
    fn decrease_is_bounded_by_max_mdf() {
        let mut s = swift();
        let w0 = s.cwnd();
        // Absurd delay: the per-event decrease is capped at 50%.
        s.on_ack(sample(10, 100_000, 99_000));
        assert!(s.cwnd() >= w0 * 0.5 - 1e-9);
    }

    #[test]
    fn window_never_leaves_bounds() {
        let mut s = swift();
        for i in 0..500 {
            s.on_ack(sample(i * 1000, 100_000, 99_000));
        }
        assert!(s.cwnd() >= SwiftConfig::default().min_cwnd);
        let mut g = swift();
        for i in 0..100_000 {
            g.on_ack(sample(i * 20, 10, 1));
        }
        assert!(g.cwnd() <= SwiftConfig::default().max_cwnd);
    }

    #[test]
    fn pacing_engages_below_unit_window() {
        let mut s = Swift::new(SwiftConfig::default(), 0.5);
        assert!(s.pacing_interval(SimDuration::from_micros(40)).is_some());
        // Grow it above 1: pacing off.
        for i in 0..200 {
            s.on_ack(sample(i * 50, 15, 5));
        }
        assert!(s.cwnd() >= 1.0);
        assert!(s.pacing_interval(SimDuration::from_micros(40)).is_none());
    }

    #[test]
    fn timeout_halves_both_windows() {
        let mut s = swift();
        let (f0, e0) = s.windows();
        s.on_loss(SimTime::from_micros(10), LossKind::Timeout);
        let (f1, e1) = s.windows();
        assert!((f1 - f0 * 0.5).abs() < 1e-9);
        assert!((e1 - e0 * 0.5).abs() < 1e-9);
        assert_eq!(s.stats().losses, 1);
    }

    #[test]
    fn flow_scaling_raises_target_for_small_windows() {
        let small = Swift::new(SwiftConfig::default(), 1.0);
        let large = Swift::new(SwiftConfig::default(), 100.0);
        assert!(small.fabric_target() > large.fabric_target());
        // Differentiation continues below one-packet windows (up to the
        // cap): this is what equalises sub-packet flows in a wide incast.
        let tiny = Swift::new(SwiftConfig::default(), 0.25);
        let sub = Swift::new(SwiftConfig::default(), 0.7);
        assert!(tiny.fabric_target() > sub.fabric_target());
        assert!(sub.fabric_target() > small.fabric_target());
        // Disabled flow scaling: target equals the base.
        let cfg = SwiftConfig {
            fs_range: SimDuration::ZERO,
            ..Default::default()
        };
        let s = Swift::new(cfg, 1.0);
        assert_eq!(s.fabric_target(), SimDuration::from_micros(25));
    }

    #[test]
    fn sawtooth_emerges_around_target() {
        // Closed-loop toy: delay grows with cwnd; Swift should oscillate
        // (grow, cut, grow) rather than diverge - the classic sawtooth the
        // paper invokes to explain residual drops.
        let mut s = swift();
        let mut deltas: Vec<f64> = Vec::new();
        let mut last = s.cwnd();
        for i in 0..400 {
            // Host delay proportional to window: 12 us per packet of cwnd.
            let host = (s.cwnd() * 12.0) as u64;
            s.on_ack(sample(i * 30, host + 20, host));
            deltas.push(s.cwnd() - last);
            last = s.cwnd();
        }
        let ups = deltas.iter().filter(|d| **d > 0.0).count();
        let downs = deltas.iter().filter(|d| **d < 0.0).count();
        assert!(ups > 50 && downs > 3, "sawtooth: ups={ups} downs={downs}");
        // Steady-state window should hover near target/slope = 100/12 ~ 8.3.
        assert!((4.0..14.0).contains(&s.cwnd()), "cwnd {}", s.cwnd());
    }
}

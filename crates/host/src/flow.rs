//! Per-flow sender and receiver reliability machinery.
//!
//! `SenderFlow` owns one connection's send side: sequence numbers,
//! in-flight tracking, duplicate-ACK fast retransmit, go-back-N timeout
//! recovery, pacing when the window is fractional, and the hand-off of ACK
//! feedback to the pluggable congestion controller. `ReceiverFlow` is the
//! receive side: in-order delivery tracking and cumulative ACK generation.

use crate::cc::{AckSample, CongestionControl, LossKind, RttEstimator};
use hostcc_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Reliability parameters.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Initial congestion window handed to the controller, packets.
    pub(crate) initial_cwnd: f64,
    /// Lower bound on the retransmission timeout.
    pub(crate) rto_floor: SimDuration,
    /// Duplicate ACKs that trigger a fast retransmit.
    pub(crate) dupack_threshold: u32,
    /// NewReno-style partial-ACK retransmission (RFC 6582): during loss
    /// recovery, an ACK that advances `cum_acked` but stops short of the
    /// recovery point marks the new head-of-line packet lost too, and it
    /// is retransmitted immediately — with the allowance doubling per
    /// round, as slow start would — instead of waiting a full RTO per
    /// packet. Off by default to preserve the calibrated baseline loss
    /// behaviour; chaos scenarios enable it so whole-window losses (link
    /// blackouts) recover at ACK-clock speed.
    pub partial_ack_rtx: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            initial_cwnd: 8.0,
            rto_floor: SimDuration::from_millis(1),
            dupack_threshold: 3,
            partial_ack_rtx: false,
        }
    }
}

/// Lifetime counters for one flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Data packets transmitted (including retransmissions).
    pub(crate) data_sent: u64,
    /// Retransmissions among those.
    pub(crate) retransmits: u64,
    /// Packets newly acknowledged.
    pub(crate) acked: u64,
    /// Fast-retransmit events.
    pub(crate) fast_retransmits: u64,
    /// Timeout events.
    pub(crate) timeouts: u64,
}

hostcc_sim::snap_fields!(FlowStats {
    data_sent, retransmits, acked, fast_retransmits, timeouts,
} blank { FlowStats::default() });

impl FlowStats {
    /// Accumulate another flow's stats into this aggregate.
    pub(crate) fn absorb(&mut self, other: &FlowStats) {
        self.data_sent += other.data_sent;
        self.retransmits += other.retransmits;
        self.acked += other.acked;
        self.fast_retransmits += other.fast_retransmits;
        self.timeouts += other.timeouts;
    }
}

/// Why the sender cannot transmit right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendBlocked {
    /// In-flight packets fill the congestion window.
    WindowLimited,
    /// Pacing (fractional window): retry at the given time.
    PacedUntil(SimTime),
    /// The application has no more data to send (closed-loop RPC limit).
    DataLimited,
}

// Note on Karn's rule: every transmission (including retransmissions)
// carries its own fresh timestamp that the receiver echoes, so RTT samples
// are unambiguous and no retransmission flag is needed.
//
// In-flight tracking is a ring keyed by sequence number, not an ordered
// map: sequences are dense (every live seq lies in `[base, base + len)`),
// so a `VecDeque<Option<SimTime>>` indexed by `seq - base` gives every
// operation the map supported without per-insert node allocations — the
// ring grows once to the window span and then recycles. `base` advances
// only on a cumulative ACK (`ack_below`), never on `remove`: a removed
// head (fast retransmit / RTO) is re-inserted at the same sequence when
// it retransmits, which would land below `base` if removal trimmed it.
#[derive(Debug, Default)]
struct SentWindow {
    /// Sequence number of `slots[0]`. Always <= every live sequence.
    base: u64,
    slots: VecDeque<Option<SimTime>>,
    live: usize,
}

// `live` is derived: the restore recounts it from the slots.
hostcc_sim::snap_fields!(SentWindow { base, slots } skip { live } check { SentWindow::check_restored });

impl SentWindow {
    fn with_capacity(cap: usize) -> Self {
        SentWindow {
            base: 0,
            slots: VecDeque::with_capacity(cap),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Record `seq` as in flight, sent at `sent_at`.
    fn insert(&mut self, seq: u64, sent_at: SimTime) {
        debug_assert!(seq >= self.base, "insert below window base");
        let idx = (seq - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        if self.slots[idx].is_none() {
            self.live += 1;
        }
        self.slots[idx] = Some(sent_at);
    }

    fn contains(&self, seq: u64) -> bool {
        seq >= self.base
            && ((seq - self.base) as usize) < self.slots.len()
            && self.slots[(seq - self.base) as usize].is_some()
    }

    /// Remove `seq` if in flight. Does not advance `base` (see above).
    fn remove(&mut self, seq: u64) -> bool {
        if !self.contains(seq) {
            return false;
        }
        self.slots[(seq - self.base) as usize] = None;
        self.live -= 1;
        true
    }

    /// Remove every in-flight sequence below `ack_seq` (cumulative ACK),
    /// returning how many were removed, and advance `base` to `ack_seq`.
    fn ack_below(&mut self, ack_seq: u64) -> u64 {
        let mut newly = 0u64;
        while self.base < ack_seq {
            match self.slots.pop_front() {
                Some(slot) => {
                    if slot.is_some() {
                        self.live -= 1;
                        newly += 1;
                    }
                    self.base += 1;
                }
                None => {
                    // Window exhausted: nothing at or past base was live.
                    self.base = ack_seq;
                    break;
                }
            }
        }
        newly
    }

    /// Smallest in-flight sequence.
    fn head_seq(&self) -> Option<u64> {
        self.slots
            .iter()
            .position(|s| s.is_some())
            .map(|i| self.base + i as u64)
    }

    /// Earliest transmission time among in-flight packets.
    fn oldest_sent_at(&self) -> Option<SimTime> {
        self.slots.iter().filter_map(|s| *s).min()
    }

    /// Restart the timer on every in-flight packet.
    fn set_all_sent_at(&mut self, now: SimTime) {
        for slot in self.slots.iter_mut() {
            if slot.is_some() {
                *slot = Some(now);
            }
        }
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        self.live = self.slots.iter().filter(|s| s.is_some()).count();
        Ok(())
    }
}

/// Send side of one connection.
pub struct SenderFlow {
    cc: Box<dyn CongestionControl>,
    /// Shared RTT estimator (pacing + RTO).
    pub(crate) rtt: RttEstimator,
    cfg: FlowConfig,
    next_new_seq: u64,
    cum_acked: u64,
    outstanding: SentWindow,
    rtx_queue: VecDeque<u64>,
    dup_acks: u32,
    recovery_end: u64,
    /// Next candidate for a partial-ACK retransmission in the current
    /// recovery episode (never re-queues a sequence already retransmitted
    /// this episode).
    rtx_next: u64,
    data_frontier: u64,
    next_pace_at: SimTime,
    /// Consecutive timeouts without an intervening new ACK (exponential
    /// RTO backoff, capped).
    backoff: u32,
    stats: FlowStats,
}

hostcc_sim::snap_fields!(SenderFlow {
    next_new_seq, cum_acked, outstanding, rtx_queue, dup_acks, recovery_end, rtx_next,
    data_frontier, next_pace_at, backoff, stats, rtt, cc,
} skip { cfg } check { SenderFlow::check_restored });

impl std::fmt::Debug for SenderFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderFlow")
            .field("cc", &self.cc.name())
            .field("cwnd", &self.cc.cwnd())
            .field("next_new_seq", &self.next_new_seq)
            .field("cum_acked", &self.cum_acked)
            .field("inflight", &self.outstanding.len())
            .finish()
    }
}

impl SenderFlow {
    /// A flow using the given controller.
    pub(crate) fn new(cfg: FlowConfig, cc: Box<dyn CongestionControl>) -> Self {
        SenderFlow {
            cc,
            rtt: RttEstimator::new(),
            cfg,
            next_new_seq: 0,
            cum_acked: 0,
            // Pre-sized to a typical window span; both grow once to the
            // flow's actual span and then recycle without allocating.
            outstanding: SentWindow::with_capacity(64),
            rtx_queue: VecDeque::with_capacity(32),
            dup_acks: 0,
            recovery_end: 0,
            rtx_next: 0,
            data_frontier: u64::MAX,
            next_pace_at: SimTime::ZERO,
            backoff: 0,
            stats: FlowStats::default(),
        }
    }

    /// Packets currently in flight.
    #[cfg(test)]
    pub(crate) fn inflight(&self) -> usize {
        self.outstanding.len()
    }

    /// Congestion window, packets.
    pub(crate) fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Highest sequence the application allows (closed-loop RPC frontier);
    /// new packets with `seq >= frontier` are data-limited.
    pub(crate) fn set_data_frontier(&mut self, frontier: u64) {
        self.data_frontier = frontier;
    }

    /// Cumulative acknowledged sequence (next expected by the receiver).
    pub(crate) fn cum_acked(&self) -> u64 {
        self.cum_acked
    }

    /// Try to emit one packet at `now`. On success returns the sequence
    /// number to put on the wire (caller builds the packet).
    pub(crate) fn try_send(&mut self, now: SimTime) -> Result<u64, SendBlocked> {
        // Retransmissions first; they replace lost in-flight packets and
        // are not additionally window-checked.
        while let Some(seq) = self.rtx_queue.front().copied() {
            if seq < self.cum_acked {
                // Stale entry: already acknowledged while queued.
                self.rtx_queue.pop_front();
                continue;
            }
            self.rtx_queue.pop_front();
            self.outstanding.insert(seq, now);
            self.stats.data_sent += 1;
            self.stats.retransmits += 1;
            return Ok(seq);
        }

        if self.next_new_seq >= self.data_frontier {
            return Err(SendBlocked::DataLimited);
        }

        let cwnd = self.cc.cwnd();
        let inflight = self.outstanding.len() as f64;
        if cwnd >= 1.0 {
            if inflight + 1.0 > cwnd.floor().max(1.0) {
                return Err(SendBlocked::WindowLimited);
            }
        } else {
            // Fractional window: at most one packet in flight, paced.
            if inflight >= 1.0 {
                return Err(SendBlocked::WindowLimited);
            }
            if now < self.next_pace_at {
                return Err(SendBlocked::PacedUntil(self.next_pace_at));
            }
            let srtt = self.rtt.srtt_or(SimDuration::from_micros(50));
            if let Some(gap) = self.cc.pacing_interval(srtt) {
                self.next_pace_at = now + gap;
            }
        }

        let seq = self.next_new_seq;
        self.next_new_seq += 1;
        self.outstanding.insert(seq, now);
        self.stats.data_sent += 1;
        Ok(seq)
    }

    /// Process a cumulative ACK (`ack_seq` = receiver's next expected
    /// sequence) carrying the RTT echo and receiver host delay.
    pub(crate) fn on_ack(
        &mut self,
        now: SimTime,
        ack_seq: u64,
        data_sent_at: SimTime,
        host_delay: SimDuration,
        ecn_ce: bool,
        nic_buffer_frac: f64,
    ) {
        let newly = self.outstanding.ack_below(ack_seq);
        if ack_seq > self.cum_acked {
            self.cum_acked = ack_seq;
        }

        if newly > 0 {
            self.stats.acked += newly;
            self.dup_acks = 0;
            self.backoff = 0;
            let rtt = now.saturating_since(data_sent_at);
            if !rtt.is_zero() {
                self.rtt.record(rtt);
            }
            self.cc.on_ack(AckSample {
                now,
                rtt,
                host_delay,
                ecn_ce,
                nic_buffer_frac,
                newly_acked: newly,
            });
            if self.cfg.partial_ack_rtx && self.cum_acked < self.recovery_end {
                self.on_partial_ack();
            }
        } else if ack_seq == self.cum_acked && !self.outstanding.is_empty() {
            // Duplicate ACK: the receiver is still waiting for cum_acked.
            self.dup_acks += 1;
            if self.dup_acks >= self.cfg.dupack_threshold && self.cum_acked >= self.recovery_end {
                // Fast retransmit the missing head-of-line packet.
                if self.outstanding.contains(self.cum_acked)
                    && !self.rtx_queue.contains(&self.cum_acked)
                {
                    self.outstanding.remove(self.cum_acked);
                    self.rtx_queue.push_back(self.cum_acked);
                }
                self.recovery_end = self.next_new_seq;
                self.rtx_next = self.cum_acked + 1;
                self.dup_acks = 0;
                self.stats.fast_retransmits += 1;
                self.cc.on_loss(now, LossKind::FastRetransmit);
            }
        }
    }

    /// A partial ACK landed mid-recovery: the sequence the receiver now
    /// waits for was lost in the same event, so queue it (and the next
    /// not-yet-retransmitted one) for immediate retransmission. Queueing
    /// two per partial ACK doubles the retransmission allowance each
    /// round-trip — the slow-start ramp TCP performs after a timeout —
    /// so an entire blacked-out window clears in O(log) round-trips.
    fn on_partial_ack(&mut self) {
        let mut queued = 0;
        let mut seq = self.rtx_next.max(self.cum_acked);
        while queued < 2 && seq < self.recovery_end {
            if self.outstanding.contains(seq) && !self.rtx_queue.contains(&seq) {
                self.outstanding.remove(seq);
                self.rtx_queue.push_back(seq);
                queued += 1;
            }
            seq += 1;
        }
        self.rtx_next = seq;
    }

    /// Earliest transmission time among in-flight packets (RTO anchor).
    fn oldest_sent_at(&self) -> Option<SimTime> {
        self.outstanding.oldest_sent_at()
    }

    /// Fire the retransmission timer if it has expired: the oldest
    /// in-flight packet is presumed lost and queued for retransmission
    /// (TCP-style single-packet RTO), and the timer restarts for the
    /// remaining in-flight packets. Retransmitting the whole window here
    /// (go-back-N) would multiply load exactly when the bottleneck is
    /// overloaded.
    pub(crate) fn check_timeout(&mut self, now: SimTime) -> bool {
        let Some(oldest) = self.oldest_sent_at() else {
            return false;
        };
        let rto = self.backed_off_rto();
        if now.saturating_since(oldest) < rto {
            return false;
        }
        let head = self.outstanding.head_seq().expect("non-empty");
        self.outstanding.remove(head);
        if !self.rtx_queue.contains(&head) {
            self.rtx_queue.push_back(head);
        }
        // Timer restart: the rest get a fresh RTO from now.
        self.outstanding.set_all_sent_at(now);
        self.dup_acks = 0;
        self.recovery_end = self.next_new_seq;
        self.rtx_next = head + 1;
        self.backoff = (self.backoff + 1).min(6); // cap at 64x
        self.stats.timeouts += 1;
        self.cc.on_loss(now, LossKind::Timeout);
        true
    }

    /// Current retransmission timeout including exponential backoff
    /// (doubles per consecutive timeout, capped at 64x the base RTO).
    pub(crate) fn backed_off_rto(&self) -> SimDuration {
        self.rtt.rto(self.cfg.rto_floor) * (1u64 << self.backoff.min(6))
    }

    /// Next deadline at which `check_timeout` could fire (for scheduling).
    #[cfg(test)]
    pub(crate) fn rto_deadline(&self) -> Option<SimTime> {
        self.oldest_sent_at().map(|t| t + self.backed_off_rto())
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if self.cum_acked > self.next_new_seq {
            return Err(SnapError::Corrupt("flow acked beyond sent"));
        }
        if self.outstanding.base > self.next_new_seq {
            return Err(SnapError::Corrupt("sent window beyond frontier"));
        }
        if self.rtx_queue.iter().any(|&seq| seq >= self.next_new_seq) {
            return Err(SnapError::Corrupt("retransmit of unsent data"));
        }
        Ok(())
    }
}

/// Receive side of one connection: in-order tracking + cumulative ACKs.
///
/// Out-of-order arrivals are tracked as a dense bitmap ring rather than an
/// ordered set: bit `i` of `out_of_order` says whether sequence
/// `expected + i` has arrived. Bit 0 is always clear (an arrival at
/// `expected` advances it immediately), the ring grows once to the flow's
/// reorder span, and draining a filled gap is a pop-front scan — no
/// per-arrival allocation.
#[derive(Debug, Default)]
pub struct ReceiverFlow {
    expected: u64,
    out_of_order: VecDeque<bool>,
    delivered_packets: u64,
    duplicates: u64,
}

hostcc_sim::snap_fields!(ReceiverFlow { expected, out_of_order, delivered_packets, duplicates }
    check { ReceiverFlow::check_restored });

impl ReceiverFlow {
    /// A fresh receive state expecting sequence 0.
    pub(crate) fn new() -> Self {
        ReceiverFlow {
            expected: 0,
            out_of_order: VecDeque::with_capacity(64),
            delivered_packets: 0,
            duplicates: 0,
        }
    }

    /// Whether `seq > expected` has already arrived out of order.
    fn gap_contains(&self, seq: u64) -> bool {
        let idx = (seq - self.expected) as usize;
        idx < self.out_of_order.len() && self.out_of_order[idx]
    }

    /// Process an arriving data packet; returns the cumulative ACK value
    /// (next expected sequence) to send back, and whether the packet
    /// carried new (non-duplicate) data.
    pub(crate) fn on_data_detailed(&mut self, seq: u64) -> (u64, bool) {
        if seq < self.expected || self.gap_contains(seq) {
            self.duplicates += 1;
            return (self.expected, false);
        }
        if seq == self.expected {
            self.expected += 1;
            self.delivered_packets += 1;
            // Shift the bitmap past the delivered head, then drain any
            // contiguous out-of-order run behind it.
            self.out_of_order.pop_front();
            while self.out_of_order.front() == Some(&true) {
                self.out_of_order.pop_front();
                self.expected += 1;
                self.delivered_packets += 1;
            }
        } else {
            let idx = (seq - self.expected) as usize;
            while self.out_of_order.len() <= idx {
                self.out_of_order.push_back(false);
            }
            self.out_of_order[idx] = true;
        }
        (self.expected, true)
    }

    /// Process an arriving data packet; returns the cumulative ACK value.
    #[cfg(test)]
    pub(crate) fn on_data(&mut self, seq: u64) -> u64 {
        self.on_data_detailed(seq).0
    }

    /// In-order packets delivered to the application.
    pub(crate) fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Duplicate data packets seen (spurious retransmissions).
    #[cfg(test)]
    pub(crate) fn duplicates(&self) -> u64 {
        self.duplicates
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        if self.out_of_order.front() == Some(&true) {
            // Bit 0 arriving means `expected` arrived — the receiver would
            // have advanced past it immediately.
            return Err(hostcc_sim::SnapError::Corrupt("reorder bitmap head set"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedWindow;

    fn flow(cwnd: f64) -> SenderFlow {
        SenderFlow::new(FlowConfig::default(), Box::new(FixedWindow::new(cwnd)))
    }

    fn ack(f: &mut SenderFlow, now_us: u64, ack_seq: u64) {
        f.on_ack(
            SimTime::from_micros(now_us),
            ack_seq,
            SimTime::from_micros(now_us.saturating_sub(50)),
            SimDuration::from_micros(5),
            false,
            0.0,
        );
    }

    #[test]
    fn window_limits_inflight() {
        let mut f = flow(4.0);
        let t = SimTime::ZERO;
        for i in 0..4 {
            assert_eq!(f.try_send(t), Ok(i));
        }
        assert_eq!(f.try_send(t), Err(SendBlocked::WindowLimited));
        assert_eq!(f.inflight(), 4);
        // An ACK for two packets opens the window again.
        ack(&mut f, 100, 2);
        assert_eq!(f.inflight(), 2);
        assert_eq!(f.try_send(SimTime::from_micros(100)), Ok(4));
        assert_eq!(f.try_send(SimTime::from_micros(100)), Ok(5));
        assert_eq!(
            f.try_send(SimTime::from_micros(100)),
            Err(SendBlocked::WindowLimited)
        );
    }

    #[test]
    fn data_frontier_limits_new_data() {
        let mut f = flow(100.0);
        f.set_data_frontier(3);
        let t = SimTime::ZERO;
        assert!(f.try_send(t).is_ok());
        assert!(f.try_send(t).is_ok());
        assert!(f.try_send(t).is_ok());
        assert_eq!(f.try_send(t), Err(SendBlocked::DataLimited));
        f.set_data_frontier(4);
        assert_eq!(f.try_send(t), Ok(3));
    }

    #[test]
    fn fractional_window_paces() {
        let mut f = flow(0.5);
        let t0 = SimTime::ZERO;
        assert_eq!(f.try_send(t0), Ok(0));
        assert_eq!(f.try_send(t0), Err(SendBlocked::WindowLimited));
        // ACK it; the next send is gated by pacing.
        ack(&mut f, 50, 1);
        match f.try_send(SimTime::from_micros(50)) {
            // First send after ACK may be paced or immediate depending on
            // the pace clock; both are acceptable, but a second immediate
            // send must not happen.
            Ok(_) => {
                assert!(matches!(
                    f.try_send(SimTime::from_micros(50)),
                    Err(SendBlocked::WindowLimited)
                ));
            }
            Err(SendBlocked::PacedUntil(when)) => {
                assert!(when > SimTime::from_micros(50));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cumulative_ack_advances_and_records_rtt() {
        let mut f = flow(10.0);
        for _ in 0..5 {
            f.try_send(SimTime::ZERO).unwrap();
        }
        ack(&mut f, 60, 5);
        assert_eq!(f.inflight(), 0);
        assert_eq!(f.cum_acked(), 5);
        assert_eq!(f.stats().acked, 5);
        assert!(f.rtt.min_rtt() > SimDuration::ZERO);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut f = flow(10.0);
        for _ in 0..5 {
            f.try_send(SimTime::ZERO).unwrap();
        }
        // Packet 0 lost; receiver acks "still expecting 0" as 1..4 arrive.
        ack(&mut f, 10, 1); // first real ack: seq 0 delivered? No - use 0.
        let mut g = flow(10.0);
        for _ in 0..5 {
            g.try_send(SimTime::ZERO).unwrap();
        }
        // Receiver got 1,2,3 but not 0: three duplicate ACKs for 0.
        ack(&mut g, 10, 0);
        ack(&mut g, 11, 0);
        ack(&mut g, 12, 0);
        assert_eq!(g.stats().fast_retransmits, 1);
        // The retransmission is offered before any new data.
        assert_eq!(g.try_send(SimTime::from_micros(13)), Ok(0));
        assert_eq!(g.stats().retransmits, 1);
    }

    #[test]
    fn no_second_fast_retransmit_in_same_window() {
        let mut f = flow(10.0);
        for _ in 0..6 {
            f.try_send(SimTime::ZERO).unwrap();
        }
        for i in 0..6 {
            ack(&mut f, 10 + i, 0);
        }
        assert_eq!(f.stats().fast_retransmits, 1, "one recovery per window");
    }

    #[test]
    fn timeout_retransmits_head_and_restarts_timer() {
        let mut f = flow(4.0);
        for _ in 0..4 {
            f.try_send(SimTime::ZERO).unwrap();
        }
        // Before the RTO floor: no timeout.
        assert!(!f.check_timeout(SimTime::from_micros(500)));
        // After: only the head retransmits; the rest keep flying with a
        // restarted timer.
        assert!(f.check_timeout(SimTime::from_millis(2)));
        assert_eq!(f.stats().timeouts, 1);
        assert_eq!(f.inflight(), 3);
        assert_eq!(f.try_send(SimTime::from_millis(2)), Ok(0));
        assert_eq!(f.stats().retransmits, 1);
        // Timer was restarted: no immediate second firing.
        assert!(!f.check_timeout(SimTime::from_millis(2)));
        // It fires again an RTO later; the (still-unacked) retransmitted
        // head is the oldest in-flight packet and retries first.
        assert!(f.check_timeout(SimTime::from_millis(4)));
        assert_eq!(f.try_send(SimTime::from_millis(4)), Ok(0));
    }

    #[test]
    fn stale_retransmissions_are_skipped() {
        let mut f = flow(4.0);
        for _ in 0..2 {
            f.try_send(SimTime::ZERO).unwrap();
        }
        assert!(f.check_timeout(SimTime::from_millis(2)));
        // ACK arrives late, covering the queued retransmission and the
        // still-outstanding packet.
        ack(&mut f, 2100, 2);
        // The queue should skip the stale entry and emit new data instead.
        assert_eq!(f.try_send(SimTime::from_millis(3)), Ok(2));
        assert_eq!(f.stats().retransmits, 0);
    }

    #[test]
    fn rto_backs_off_exponentially_and_resets_on_ack() {
        let mut f = flow(4.0);
        f.try_send(SimTime::ZERO).unwrap();
        assert_eq!(f.backed_off_rto(), SimDuration::from_millis(1));
        // First timeout at 1 ms; second only after 2 more ms; third 4 ms.
        assert!(f.check_timeout(SimTime::from_millis(1)));
        assert_eq!(f.backed_off_rto(), SimDuration::from_millis(2));
        f.try_send(SimTime::from_millis(1)).unwrap(); // retransmit
        assert!(!f.check_timeout(SimTime::from_millis(2)), "backed off");
        assert!(f.check_timeout(SimTime::from_millis(3)));
        assert_eq!(f.backed_off_rto(), SimDuration::from_millis(4));
        // Backoff caps at 64x.
        for i in 0..20 {
            f.try_send(SimTime::from_millis(3 + i)).unwrap_or(0);
            f.check_timeout(SimTime::from_secs(1 + i));
        }
        assert!(f.backed_off_rto() <= SimDuration::from_millis(64));
        // A new ACK resets the backoff (use a tiny RTT sample so the
        // estimator keeps the RTO at its floor).
        f.try_send(SimTime::from_secs(30)).unwrap_or(0);
        let ack_time = SimTime::from_secs(30) + SimDuration::from_micros(50);
        f.on_ack(
            ack_time,
            f.cum_acked() + 1,
            SimTime::from_secs(30),
            SimDuration::ZERO,
            false,
            0.0,
        );
        assert_eq!(f.backed_off_rto(), SimDuration::from_millis(1));
    }

    #[test]
    fn rto_backoff_doubles_per_timeout_and_caps_at_64x() {
        // The backed-off RTO is `base << backoff.min(6)`: 1, 2, 4, 8, 16,
        // 32, 64 ms — then pinned at 64x for every further consecutive
        // timeout. Each step waits exactly the advertised RTO.
        let mut f = flow(4.0);
        let mut t = SimTime::ZERO;
        f.try_send(t).unwrap();
        for step in 0..10u32 {
            let expect = SimDuration::from_millis(1) * (1u64 << step.min(6));
            assert_eq!(f.backed_off_rto(), expect, "before timeout {step}");
            // One instant before the deadline the timer must not fire.
            let early = t + expect - SimDuration::from_nanos(1);
            assert!(!f.check_timeout(early), "fired early at step {step}");
            t += expect;
            assert!(f.check_timeout(t), "timeout {step}");
            f.try_send(t).unwrap(); // retransmit restarts the timer
        }
        assert_eq!(f.backed_off_rto(), SimDuration::from_millis(64));
        assert_eq!(f.stats().timeouts, 10);
    }

    #[test]
    fn dup_acks_do_not_reset_rto_backoff() {
        // Only an ACK covering new data resets the backoff; duplicate
        // ACKs (no progress) must leave the backed-off timer alone.
        let mut f = flow(4.0);
        f.try_send(SimTime::ZERO).unwrap();
        f.try_send(SimTime::ZERO).unwrap();
        assert!(f.check_timeout(SimTime::from_millis(1)));
        assert_eq!(f.backed_off_rto(), SimDuration::from_millis(2));
        for i in 0..2 {
            ack(&mut f, 1100 + i, 0); // duplicate: receiver still at 0
        }
        assert_eq!(
            f.backed_off_rto(),
            SimDuration::from_millis(2),
            "dup ACKs must not reset backoff"
        );
        // New data acknowledged (seq 1, still outstanding): backoff
        // resets to the base RTO.
        ack(&mut f, 1200, 2);
        assert_eq!(f.backed_off_rto(), SimDuration::from_millis(1));
    }

    fn newreno_flow(cwnd: f64) -> SenderFlow {
        let cfg = FlowConfig {
            partial_ack_rtx: true,
            ..FlowConfig::default()
        };
        SenderFlow::new(cfg, Box::new(FixedWindow::new(cwnd)))
    }

    #[test]
    fn partial_acks_drive_recovery_at_ack_clock_speed() {
        // Six packets in flight, all lost (blackout). After the single
        // RTO retransmission, each partial ACK immediately queues the
        // next two lost packets — no further timeouts needed.
        let mut f = newreno_flow(6.0);
        f.set_data_frontier(6);
        for i in 0..6 {
            assert_eq!(f.try_send(SimTime::ZERO), Ok(i));
        }
        assert!(f.check_timeout(SimTime::from_millis(1)));
        assert_eq!(f.try_send(SimTime::from_millis(1)), Ok(0), "RTO head rtx");

        // ACK of seq 0 arrives: partial (recovery point is 6), so seqs 1
        // and 2 are queued and sent back-to-back.
        ack(&mut f, 1100, 1);
        assert_eq!(f.try_send(SimTime::from_micros(1100)), Ok(1));
        assert_eq!(f.try_send(SimTime::from_micros(1100)), Ok(2));
        // The allowance doubles per round: the next partial ACK queues 3
        // and 4, and 3's own ACK queues 5 — never re-queueing 4, which
        // was already retransmitted this episode.
        ack(&mut f, 1200, 2);
        assert_eq!(f.try_send(SimTime::from_micros(1200)), Ok(3));
        assert_eq!(f.try_send(SimTime::from_micros(1200)), Ok(4));
        ack(&mut f, 1300, 3);
        assert_eq!(f.try_send(SimTime::from_micros(1300)), Ok(5));
        assert_eq!(
            f.try_send(SimTime::from_micros(1300)),
            Err(SendBlocked::DataLimited),
            "nothing left to retransmit and frontier reached"
        );
        ack(&mut f, 1400, 6);
        assert_eq!(f.inflight(), 0);
        assert_eq!(f.stats().timeouts, 1, "one RTO clears the whole window");
        assert_eq!(f.stats().retransmits, 6);
    }

    #[test]
    fn partial_ack_rtx_is_off_by_default() {
        // Same blackout with the default config: after the RTO head
        // retransmission, a partial ACK queues nothing — the remaining
        // losses each wait their own timeout (the pinned seed behaviour).
        let mut f = flow(6.0);
        f.set_data_frontier(6);
        for i in 0..6 {
            assert_eq!(f.try_send(SimTime::ZERO), Ok(i));
        }
        assert!(f.check_timeout(SimTime::from_millis(1)));
        assert_eq!(f.try_send(SimTime::from_millis(1)), Ok(0));
        ack(&mut f, 1100, 1);
        assert_eq!(
            f.try_send(SimTime::from_micros(1100)),
            Err(SendBlocked::DataLimited),
            "no partial-ACK retransmission without the flag"
        );
        assert_eq!(f.stats().retransmits, 1);
    }

    #[test]
    fn rto_deadline_tracks_oldest_packet() {
        let mut f = flow(4.0);
        assert_eq!(f.rto_deadline(), None);
        f.try_send(SimTime::from_micros(100)).unwrap();
        let d = f.rto_deadline().unwrap();
        assert_eq!(d, SimTime::from_micros(100) + SimDuration::from_millis(1));
    }

    #[test]
    fn receiver_in_order_stream() {
        let mut r = ReceiverFlow::new();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(1), 2);
        assert_eq!(r.on_data(2), 3);
        assert_eq!(r.delivered_packets(), 3);
        assert_eq!(r.duplicates(), 0);
    }

    #[test]
    fn receiver_reorders_and_fills_gap() {
        let mut r = ReceiverFlow::new();
        assert_eq!(r.on_data(1), 0, "gap: still expecting 0");
        assert_eq!(r.on_data(2), 0);
        assert_eq!(r.on_data(0), 3, "gap filled: jump to 3");
        assert_eq!(r.delivered_packets(), 3);
    }

    #[test]
    fn receiver_flags_duplicates() {
        let mut r = ReceiverFlow::new();
        r.on_data(0);
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.duplicates(), 1);
        r.on_data(5);
        assert_eq!(r.on_data(5), 1);
        assert_eq!(r.duplicates(), 2);
    }

    /// The sent-window ring must behave exactly like the ordered map it
    /// replaced. Drive both through a seeded random schedule of inserts,
    /// head removals, timer restarts, and cumulative ACKs, comparing every
    /// observable after every step.
    #[test]
    fn sent_window_matches_ordered_map_reference() {
        use std::collections::BTreeMap;
        let mut rng = hostcc_sim::SimRng::new(0x0ACE_D5E0);
        let mut win = SentWindow::with_capacity(4);
        let mut map: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut acked = 0u64;
        for step in 0..20_000u64 {
            let t = SimTime::from_nanos(step);
            match rng.next_below(10) {
                0..=3 => {
                    // Send new data.
                    win.insert(next_seq, t);
                    map.insert(next_seq, t);
                    next_seq += 1;
                }
                4..=6 => {
                    // Cumulative ACK somewhere in (acked, next_seq]; a
                    // receiver can never ACK data that was not sent.
                    let ack = acked + rng.next_below(next_seq.saturating_sub(acked) + 1);
                    let newly = win.ack_below(ack);
                    let mut ref_newly = 0u64;
                    while let Some((&s, _)) = map.first_key_value() {
                        if s >= ack {
                            break;
                        }
                        map.remove(&s);
                        ref_newly += 1;
                    }
                    assert_eq!(newly, ref_newly, "step {step}");
                    acked = acked.max(ack);
                }
                7 => {
                    // Loss: drop the head and re-send it (RTO path).
                    if let Some(h) = win.head_seq() {
                        assert_eq!(Some(h), map.first_key_value().map(|(&s, _)| s));
                        win.remove(h);
                        map.remove(&h);
                        if rng.chance(0.5) && h >= acked {
                            win.insert(h, t);
                            map.insert(h, t);
                        }
                    }
                }
                8 => {
                    win.set_all_sent_at(t);
                    for v in map.values_mut() {
                        *v = t;
                    }
                }
                _ => {
                    let probe = acked + rng.next_below(8);
                    assert_eq!(win.contains(probe), map.contains_key(&probe), "step {step}");
                }
            }
            assert_eq!(win.len(), map.len(), "step {step}");
            assert_eq!(win.is_empty(), map.is_empty());
            assert_eq!(win.head_seq(), map.first_key_value().map(|(&s, _)| s));
            assert_eq!(win.oldest_sent_at(), map.values().copied().min());
        }
    }

    #[test]
    fn rtx_reinsert_at_window_base_is_allowed() {
        // Fast retransmit re-inserts at exactly seq == cum_acked == base;
        // the ring must not have trimmed past it.
        let mut w = SentWindow::with_capacity(4);
        w.insert(0, SimTime::ZERO);
        w.insert(1, SimTime::ZERO);
        assert_eq!(w.ack_below(0), 0, "dup ACK removes nothing");
        w.remove(0); // queued for fast retransmit
        w.insert(0, SimTime::from_nanos(5)); // the retransmission
        assert!(w.contains(0));
        assert_eq!(w.head_seq(), Some(0));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn receiver_drains_long_reorder_run() {
        let mut r = ReceiverFlow::new();
        // 1..=63 arrive before 0: one gap, then a full drain.
        for s in 1..64 {
            assert_eq!(r.on_data(s), 0);
        }
        assert_eq!(r.on_data(0), 64, "gap fill drains the whole run");
        assert_eq!(r.delivered_packets(), 64);
        assert_eq!(r.duplicates(), 0);
        // Bitmap is fully drained; the stream continues in order.
        assert_eq!(r.on_data(64), 65);
    }

    #[test]
    fn flow_stats_absorb_sums_every_field() {
        let mut agg = FlowStats::default();
        agg.absorb(&FlowStats {
            data_sent: 10,
            retransmits: 1,
            acked: 9,
            fast_retransmits: 1,
            timeouts: 0,
        });
        agg.absorb(&FlowStats {
            data_sent: 5,
            retransmits: 0,
            acked: 5,
            fast_retransmits: 0,
            timeouts: 2,
        });
        assert_eq!((agg.data_sent, agg.retransmits, agg.acked), (15, 1, 14));
        assert_eq!((agg.fast_retransmits, agg.timeouts), (1, 2));
    }
}

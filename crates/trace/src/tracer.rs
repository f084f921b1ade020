//! The bounded, sampled datapath event tracer.

use crate::stage::Stage;
use std::collections::VecDeque;

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A point-in-time occurrence (drop, stall, dequeue).
    Instant,
    /// A completed span of `dur_ns` nanoseconds ending implicitly at
    /// `ts_ns + dur_ns`.
    Span {
        /// Span length in nanoseconds.
        dur_ns: u64,
    },
    /// A sampled scalar (cwnd, occupancy).
    Value {
        /// The sampled value.
        value: f64,
    },
}

/// One typed, timestamped datapath event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event start, nanoseconds.
    pub(crate) ts_ns: u64,
    /// Which datapath stage produced it.
    pub(crate) stage: Stage,
    /// Instant, span or value payload.
    pub(crate) kind: EventKind,
    /// Sender index of the packet's flow (`u32::MAX` when not
    /// packet-scoped).
    pub(crate) flow: u32,
    /// Receiver thread (Perfetto track), `u32::MAX` when not applicable.
    pub(crate) thread: u32,
    /// Packet sequence number (0 when not packet-scoped).
    pub(crate) seq: u64,
}

impl TraceEvent {
    /// An instant event with no packet identity.
    pub fn instant(ts_ns: u64, stage: Stage) -> Self {
        TraceEvent {
            ts_ns,
            stage,
            kind: EventKind::Instant,
            flow: u32::MAX,
            thread: u32::MAX,
            seq: 0,
        }
    }

    /// A span event scoped to a packet.
    pub fn span(ts_ns: u64, stage: Stage, dur_ns: u64, flow: u32, thread: u32, seq: u64) -> Self {
        TraceEvent {
            ts_ns,
            stage,
            kind: EventKind::Span { dur_ns },
            flow,
            thread,
            seq,
        }
    }

    /// A sampled scalar value.
    pub fn value(ts_ns: u64, stage: Stage, value: f64) -> Self {
        TraceEvent {
            ts_ns,
            stage,
            kind: EventKind::Value { value },
            flow: u32::MAX,
            thread: u32::MAX,
            seq: 0,
        }
    }
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false, every tracer call is a single branch.
    pub(crate) enabled: bool,
    /// Ring-buffer capacity in events; when full, the oldest events are
    /// evicted (the tail of a run is usually the interesting part).
    pub(crate) capacity: usize,
    /// Record one in every `sample_every` packet lifecycles (1 = all).
    pub(crate) sample_every: u32,
    /// Timeline sampling period in nanoseconds (0 disables the periodic
    /// time-series recorder).
    pub timeline_period_ns: u64,
}

impl TraceConfig {
    /// Tracing off (the default for ordinary runs).
    pub(crate) fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 0,
            sample_every: 1,
            timeline_period_ns: 0,
        }
    }

    /// Tracing on with a bounded buffer and no sampling.
    pub fn enabled(capacity: usize) -> Self {
        TraceConfig {
            enabled: true,
            capacity,
            sample_every: 1,
            timeline_period_ns: 0,
        }
    }

    /// Set 1-in-N lifecycle sampling.
    pub fn with_sampling(mut self, every: u32) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// Set the timeline sampling period.
    pub fn with_timeline(mut self, period_ns: u64) -> Self {
        self.timeline_period_ns = period_ns;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A bounded ring buffer of [`TraceEvent`]s with 1-in-N sampling.
///
/// The tracer never influences the simulation: it has no RNG, schedules
/// nothing, and is consulted only through `sample()`/`record()` calls
/// whose results the world must not branch on.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    buf: VecDeque<TraceEvent>,
    /// Lifecycles offered to `sample()` so far (drives 1-in-N selection).
    offered: u64,
    /// Events evicted from the ring after it filled.
    evicted: u64,
}

impl Tracer {
    /// A tracer with the given configuration. Disabled configurations
    /// allocate nothing.
    pub fn new(cfg: TraceConfig) -> Self {
        let buf = if cfg.enabled {
            VecDeque::with_capacity(cfg.capacity.min(1 << 16))
        } else {
            VecDeque::new()
        };
        Tracer {
            cfg,
            buf,
            offered: 0,
            evicted: 0,
        }
    }

    /// A disabled tracer (every call short-circuits).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::disabled())
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Sampling gate for a packet lifecycle (or any other repeated item):
    /// returns true for one in every `sample_every` calls while enabled.
    /// Callers decide once per lifecycle and record all of its events (or
    /// none), so sampled lifecycles stay complete.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let pick = self.offered.is_multiple_of(self.cfg.sample_every as u64);
        self.offered += 1;
        pick
    }

    /// Push one event (no-op when disabled). The ring evicts the oldest
    /// event once `capacity` is reached, so memory stays bounded.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.cfg.enabled || self.cfg.capacity == 0 {
            return;
        }
        if self.buf.len() == self.cfg.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently buffered (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted after the ring filled.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Lifecycles offered to the sampling gate.
    pub fn offered(&self) -> u64 {
        self.offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.sample());
        t.record(TraceEvent::instant(5, Stage::NicArrival));
        assert!(t.is_empty());
        assert_eq!(t.evicted(), 0);
    }

    #[test]
    fn ring_never_exceeds_capacity() {
        let mut t = Tracer::new(TraceConfig::enabled(8));
        for i in 0..100 {
            t.record(TraceEvent::instant(i, Stage::NicArrival));
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.evicted(), 92);
        // The newest events survive.
        let first = t.events().next().unwrap();
        assert_eq!(first.ts_ns, 92);
    }

    #[test]
    fn sampling_picks_one_in_n() {
        let mut t = Tracer::new(TraceConfig::enabled(64).with_sampling(4));
        let picks: Vec<bool> = (0..8).map(|_| t.sample()).collect();
        assert_eq!(
            picks,
            [true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn event_constructors() {
        let s = TraceEvent::span(10, Stage::PcieTransfer, 7, 3, 1, 42);
        assert_eq!(s.kind, EventKind::Span { dur_ns: 7 });
        assert_eq!(s.thread, 1);
        let v = TraceEvent::value(10, Stage::CwndUpdate, 8.5);
        assert_eq!(v.kind, EventKind::Value { value: 8.5 });
    }
}

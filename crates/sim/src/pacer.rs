//! Rate pacing primitives: a byte-granularity token bucket and a serialised
//! link gate, both driven by simulation time.

use crate::time::{SimDuration, SimTime};

/// Token bucket refilled continuously at `rate` bytes/sec with a burst cap.
///
/// Used for sender pacing (Swift paces when cwnd < 1) and for software rate
/// limiters in the workload generators.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: f64, // bytes per second
    burst: f64,    // max accumulated tokens, bytes
    tokens: f64,
    last: SimTime,
}

crate::snap_fields!(TokenBucket { rate_bps, burst, tokens, last } check { TokenBucket::check_restored });

impl TokenBucket {
    /// A bucket refilling at `rate_bytes_per_sec`, holding at most
    /// `burst_bytes`, starting full.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64) -> Self {
        assert!(rate_bytes_per_sec > 0.0, "rate must be positive");
        assert!(burst_bytes > 0.0, "burst must be positive");
        TokenBucket {
            rate_bps: rate_bytes_per_sec,
            burst: burst_bytes,
            tokens: burst_bytes,
            last: SimTime::ZERO,
        }
    }

    fn check_restored(&mut self) -> Result<(), crate::SnapError> {
        let pos_finite = |x: f64| x.is_finite() && x > 0.0;
        if !pos_finite(self.rate_bps) || !pos_finite(self.burst) || !self.tokens.is_finite() {
            return Err(crate::SnapError::Corrupt("token bucket state out of range"));
        }
        Ok(())
    }

    /// Change the fill rate (tokens already accrued are kept, capped at burst).
    pub fn set_rate(&mut self, now: SimTime, rate_bytes_per_sec: f64) {
        assert!(rate_bytes_per_sec > 0.0, "rate must be positive");
        self.refill(now);
        self.rate_bps = rate_bytes_per_sec;
    }

    /// Current fill rate, bytes/sec.
    pub fn rate(&self) -> f64 {
        self.rate_bps
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bps).min(self.burst);
        if now > self.last {
            self.last = now;
        }
    }

    /// Try to consume `bytes` at `now`. On failure returns the earliest time
    /// at which the bucket will hold enough tokens.
    ///
    /// Progress contract: the returned wake-up time is *strictly* later
    /// than `now`. A caller that sleeps until the returned time and
    /// retries therefore always advances the clock between attempts — a
    /// same-time `Err` would let a retry loop spin the event queue at one
    /// instant forever (the stall the engine watchdog exists to catch).
    /// The deficit can round to a zero-duration wait when the rate is
    /// enormous relative to the shortfall (e.g. a sub-token deficit at
    /// hundreds of GB/s), so a zero wait is clamped up to 1 ns.
    pub fn try_consume(&mut self, now: SimTime, bytes: u64) -> Result<(), SimTime> {
        self.refill(now);
        let need = bytes as f64;
        if self.tokens >= need {
            self.tokens -= need;
            Ok(())
        } else {
            let deficit = need - self.tokens;
            let wait = SimDuration::from_secs_f64(deficit / self.rate_bps);
            let wait = if wait.is_zero() {
                SimDuration::from_nanos(1)
            } else {
                wait
            };
            let ready = now + wait;
            debug_assert!(ready > now, "pacer wakeups must advance time");
            Err(ready)
        }
    }
}

/// A serialising gate: models a resource that transmits one item at a time
/// at a fixed byte rate (a link, a DMA engine lane). Tracks the time the
/// resource becomes free and returns per-item (start, finish) times.
#[derive(Debug, Clone)]
pub struct SerialLink {
    bytes_per_sec: f64,
    free_at: SimTime,
    busy: SimDuration,
}

crate::snap_fields!(SerialLink { bytes_per_sec, free_at, busy } check { SerialLink::check_restored });

impl SerialLink {
    /// A link serialising at `bytes_per_sec`.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "rate must be positive");
        SerialLink {
            bytes_per_sec,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
        }
    }

    fn check_restored(&mut self) -> Result<(), crate::SnapError> {
        if !(self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0) {
            return Err(crate::SnapError::Corrupt("link rate out of range"));
        }
        Ok(())
    }

    /// Serialisation rate, bytes/sec.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Enqueue a `bytes`-sized item arriving at `now`; returns the time its
    /// serialisation completes.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = if now > self.free_at {
            now
        } else {
            self.free_at
        };
        let ser = SimDuration::for_bytes(bytes, self.bytes_per_sec);
        self.busy += ser;
        self.free_at = start + ser;
        self.free_at
    }

    /// Time at which the link becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Queueing delay an item arriving `now` would suffer before starting.
    pub fn backlog_delay(&self, now: SimTime) -> SimDuration {
        self.free_at.saturating_since(now)
    }

    /// Total busy (serialising) time accumulated; utilisation = busy/elapsed.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_allows_burst_then_paces() {
        let mut tb = TokenBucket::new(1e9, 4096.0); // 1 GB/s, 4 KiB burst
        let t0 = SimTime::ZERO;
        assert!(tb.try_consume(t0, 4096).is_ok());
        // Bucket now empty; next 4096 B needs 4096 ns.
        match tb.try_consume(t0, 4096) {
            Err(ready) => assert_eq!(ready.as_nanos(), 4096),
            Ok(()) => panic!("should have been paced"),
        }
        // At the advertised ready time it must succeed.
        assert!(tb.try_consume(SimTime::from_nanos(4096), 4096).is_ok());
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut tb = TokenBucket::new(1e9, 1000.0);
        // A long idle period must not accumulate more than the burst.
        let later = SimTime::from_secs(10);
        assert!(tb.try_consume(later, 1000).is_ok());
        assert!(tb.try_consume(later, 1).is_err());
    }

    #[test]
    fn token_bucket_set_rate_takes_effect() {
        let mut tb = TokenBucket::new(1e9, 100.0);
        let t0 = SimTime::ZERO;
        assert!(tb.try_consume(t0, 100).is_ok());
        tb.set_rate(t0, 2e9);
        match tb.try_consume(t0, 100) {
            Err(ready) => assert_eq!(ready.as_nanos(), 50),
            Ok(()) => panic!("should pace"),
        }
        assert_eq!(tb.rate(), 2e9);
    }

    #[test]
    fn token_bucket_zero_duration_grant_still_advances_time() {
        // Regression for the same-time retry hazard: at an extreme rate a
        // sub-token deficit computes a wait that rounds to zero
        // nanoseconds. The advertised ready time must still be strictly
        // after `now`, or a sleep-and-retry caller would loop at one
        // instant forever.
        let mut tb = TokenBucket::new(1e12, 10.0); // 1 TB/s, 10 B burst
        let t0 = SimTime::from_nanos(7);
        assert!(tb.try_consume(t0, 10).is_ok());
        // Deficit of 1 B at 1 TB/s = 1 ps -> rounds to a zero-duration wait.
        match tb.try_consume(t0, 1) {
            Err(ready) => {
                assert!(ready > t0, "ready time must advance past now");
                assert_eq!(ready.as_nanos(), t0.as_nanos() + 1, "clamped to 1 ns");
                // And retrying at the advertised time succeeds.
                assert!(tb.try_consume(ready, 1).is_ok());
            }
            Ok(()) => panic!("bucket was empty; consume must pace"),
        }
    }

    #[test]
    fn serial_link_pipelines_back_to_back() {
        let mut l = SerialLink::new(1e9); // 1 GB/s: 1000 B = 1 us
        let d1 = l.transmit(SimTime::ZERO, 1000);
        assert_eq!(d1.as_nanos(), 1000);
        // Second item arriving at t=0 waits for the first.
        let d2 = l.transmit(SimTime::ZERO, 1000);
        assert_eq!(d2.as_nanos(), 2000);
        // Item arriving after the link went idle starts immediately.
        let d3 = l.transmit(SimTime::from_nanos(10_000), 500);
        assert_eq!(d3.as_nanos(), 10_500);
        assert_eq!(l.busy_time().as_nanos(), 2500);
    }

    #[test]
    fn serial_link_backlog_delay() {
        let mut l = SerialLink::new(1e9);
        l.transmit(SimTime::ZERO, 2000);
        assert_eq!(l.backlog_delay(SimTime::ZERO).as_nanos(), 2000);
        assert_eq!(l.backlog_delay(SimTime::from_nanos(1500)).as_nanos(), 500);
        assert_eq!(l.backlog_delay(SimTime::from_nanos(9999)).as_nanos(), 0);
    }
}

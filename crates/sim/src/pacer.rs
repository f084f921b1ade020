//! Rate pacing primitive: a serialised link gate driven by simulation
//! time.

use crate::time::{SimDuration, SimTime};

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

//! A serialising pipe whose rate can change mid-simulation.
//!
//! The memory-commit stage of the DMA pipeline drains at whatever
//! bandwidth the memory controller currently grants the NIC, and that
//! grant changes as antagonist load comes and goes. `SerialLink` in the
//! sim crate is fixed-rate; this variant re-anchors its busy horizon
//! whenever the rate is updated.

use hostcc_sim::{SimDuration, SimTime};

/// Serialising server with an adjustable byte rate.
#[derive(Debug, Clone)]
pub struct VariableRateLink {
    bytes_per_sec: f64,
    free_at: SimTime,
}

hostcc_sim::snap_fields!(VariableRateLink { bytes_per_sec, free_at }
    check { VariableRateLink::check_restored });

impl VariableRateLink {
    /// A pipe draining at `bytes_per_sec`.
    pub(crate) fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "rate must be positive");
        VariableRateLink {
            bytes_per_sec,
            free_at: SimTime::ZERO,
        }
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        if !self.bytes_per_sec.is_finite() || self.bytes_per_sec <= 0.0 {
            return Err(hostcc_sim::SnapError::Corrupt("invalid link rate"));
        }
        Ok(())
    }

    /// Change the drain rate from `now` onwards. Work already accepted
    /// keeps its committed finish time (we don't re-plan the in-flight
    /// item; the error is bounded by one item's service time).
    pub(crate) fn set_rate(&mut self, _now: SimTime, bytes_per_sec: f64) {
        self.bytes_per_sec = bytes_per_sec.max(1.0);
    }

    /// Current drain rate, bytes/sec.
    #[cfg(test)]
    pub(crate) fn rate(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Accept `bytes` arriving at `at`; returns the serialisation finish
    /// time (earliest-start, FIFO).
    pub(crate) fn transmit(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let start = if at > self.free_at { at } else { self.free_at };
        let ser = SimDuration::for_bytes(bytes, self.bytes_per_sec);
        let done = start + ser;
        self.free_at = done;
        done
    }

    /// When the pipe goes idle.
    #[cfg(test)]
    pub(crate) fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Backlog an arrival at `now` would wait behind.
    #[cfg(test)]
    pub(crate) fn backlog(&self, now: SimTime) -> SimDuration {
        self.free_at.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialises_fifo() {
        let mut v = VariableRateLink::new(1e9);
        assert_eq!(v.transmit(SimTime::ZERO, 1000).as_nanos(), 1000);
        assert_eq!(v.transmit(SimTime::ZERO, 1000).as_nanos(), 2000);
        assert_eq!(v.transmit(SimTime::from_nanos(5000), 1000).as_nanos(), 6000);
    }

    #[test]
    fn rate_change_affects_subsequent_items() {
        let mut v = VariableRateLink::new(1e9);
        v.transmit(SimTime::ZERO, 1000); // busy until 1000ns
        v.set_rate(SimTime::from_nanos(500), 2e9);
        // Next item starts at 1000 and takes 500ns at the new rate.
        assert_eq!(v.transmit(SimTime::ZERO, 1000).as_nanos(), 1500);
        assert_eq!(v.rate(), 2e9);
    }

    #[test]
    fn zero_rate_clamped() {
        let mut v = VariableRateLink::new(1e9);
        v.set_rate(SimTime::ZERO, 0.0);
        assert!(v.rate() >= 1.0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_horizon() {
        use hostcc_sim::Snap;
        let mut v = VariableRateLink::new(1e9);
        v.transmit(SimTime::ZERO, 1000);
        v.set_rate(SimTime::ZERO, 2e9);
        let mut w = hostcc_sim::SnapWriter::new();
        v.save(&mut w);
        let payload = w.into_payload();
        let mut r = hostcc_sim::SnapReader::new(&payload);
        let mut back = VariableRateLink::new(1.0);
        back.load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.rate(), v.rate());
        assert_eq!(back.free_at(), v.free_at());
        // Same horizon and rate: the next item finishes at the same time.
        assert_eq!(
            back.transmit(SimTime::ZERO, 1000),
            v.transmit(SimTime::ZERO, 1000)
        );
    }

    #[test]
    fn corrupt_link_rate_is_typed_error() {
        use hostcc_sim::Snap;
        let mut w = hostcc_sim::SnapWriter::new();
        w.f64(f64::NAN);
        SimTime::ZERO.save(&mut w);
        let payload = w.into_payload();
        let mut r = hostcc_sim::SnapReader::new(&payload);
        assert!(matches!(
            VariableRateLink::new(1e9).load(&mut r),
            Err(hostcc_sim::SnapError::Corrupt("invalid link rate"))
        ));
    }

    #[test]
    fn backlog_reports_wait() {
        let mut v = VariableRateLink::new(1e9);
        v.transmit(SimTime::ZERO, 3000);
        assert_eq!(v.backlog(SimTime::from_nanos(1000)).as_nanos(), 2000);
        assert_eq!(v.backlog(SimTime::from_nanos(9000)).as_nanos(), 0);
    }
}

//! Flight recorder: bounded retroactive dumps of the telemetry window.
//!
//! When something worth diagnosing happens — a drop burst, a fault
//! window opening, a watchdog stall — the recorder copies the most recent
//! samples out of the retained ring into a preallocated dump slot. The
//! sample ring keeps rolling; the dump freezes the lead-up. All storage
//! (dump slots and their sample vectors) is allocated at construction, so
//! triggering on the hot path allocates nothing.

use crate::config::TelemetryConfig;
use crate::sample::TelemetrySample;
use hostcc_trace::SampleRing;

/// What fired a flight dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Host drops in one sampling window crossed the burst threshold.
    DropBurst,
    /// A fault-injection window opened.
    FaultWindow,
    /// The watchdog declared the run stalled.
    Stall,
}

impl TriggerKind {
    fn tag(&self) -> u8 {
        match self {
            TriggerKind::DropBurst => 0,
            TriggerKind::FaultWindow => 1,
            TriggerKind::Stall => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, hostcc_sim::SnapError> {
        Ok(match tag {
            0 => TriggerKind::DropBurst,
            1 => TriggerKind::FaultWindow,
            2 => TriggerKind::Stall,
            _ => return Err(hostcc_sim::SnapError::Corrupt("trigger kind out of range")),
        })
    }
}

impl hostcc_sim::Snap for TriggerKind {
    fn save(&self, w: &mut hostcc_sim::SnapWriter) {
        w.u8(self.tag());
    }

    fn load(&mut self, r: &mut hostcc_sim::SnapReader<'_>) -> Result<(), hostcc_sim::SnapError> {
        *self = Self::from_tag(r.u8()?)?;
        Ok(())
    }

    fn blank() -> Option<Self> {
        Some(TriggerKind::DropBurst)
    }
}

/// One captured dump: the trigger, when it fired, and the last N samples
/// leading into it (oldest first).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// What fired the dump.
    pub(crate) trigger: TriggerKind,
    /// Trigger time, nanoseconds.
    pub t_ns: u64,
    /// The retained samples at trigger time, oldest first, at most
    /// `flight_dump_samples` of them.
    pub samples: Vec<TelemetrySample>,
}

hostcc_sim::snap_fields!(FlightDump {
    trigger,
    t_ns,
    samples
});

/// Bounded retroactive dump capture (see module docs). Disabled unless
/// both telemetry and the flight recorder are switched on.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    dump_samples: usize,
    /// Minimum ns between captures, so a sustained drop storm yields one
    /// dump per refilled window rather than one per sample.
    cooldown_ns: u64,
    last_capture_ns: u64,
    captured: usize,
    /// Preallocated dump slots; `captured` of them are live.
    slots: Vec<FlightDump>,
    triggered: u64,
}

// Every preallocated slot is in the image (unfilled ones are empty), and
// loads into the prebuilt slots in place, keeping their capacity.
hostcc_sim::snap_fields!(FlightRecorder { last_capture_ns, triggered, captured, slots }
    skip { enabled, dump_samples, cooldown_ns } check { FlightRecorder::check_restored });

impl FlightRecorder {
    /// A recorder with all dump storage preallocated (no-op slots when the
    /// flight recorder is off).
    pub(crate) fn new(cfg: &TelemetryConfig) -> Self {
        let enabled = cfg.enabled && cfg.flight_recorder;
        let dump_samples = cfg.flight_dump_samples.min(cfg.ring_capacity).max(1);
        let slots = if enabled {
            (0..cfg.flight_max_dumps)
                .map(|_| FlightDump {
                    trigger: TriggerKind::DropBurst,
                    t_ns: 0,
                    samples: Vec::with_capacity(dump_samples),
                })
                .collect()
        } else {
            Vec::new()
        };
        FlightRecorder {
            enabled,
            dump_samples,
            cooldown_ns: cfg.interval_ns.saturating_mul(dump_samples as u64),
            last_capture_ns: 0,
            captured: 0,
            slots,
            triggered: 0,
        }
    }

    /// Record a trigger at `t_ns`, copying the tail of `ring` into the
    /// next free dump slot. Triggers inside the cooldown window, or after
    /// all slots are used, are counted but capture nothing.
    pub(crate) fn trigger(
        &mut self,
        kind: TriggerKind,
        t_ns: u64,
        ring: &SampleRing<TelemetrySample>,
    ) {
        if !self.enabled {
            return;
        }
        self.triggered += 1;
        if self.captured == self.slots.len() {
            return;
        }
        if self.captured > 0 && t_ns.saturating_sub(self.last_capture_ns) < self.cooldown_ns {
            return;
        }
        let slot = &mut self.slots[self.captured];
        slot.trigger = kind;
        slot.t_ns = t_ns;
        slot.samples.clear();
        let skip = ring.len().saturating_sub(self.dump_samples);
        slot.samples.extend(ring.iter().skip(skip).copied());
        self.captured += 1;
        self.last_capture_ns = t_ns;
    }

    /// The captured dumps, in trigger order.
    pub(crate) fn dumps(&self) -> &[FlightDump] {
        &self.slots[..self.captured]
    }

    /// Lifetime trigger count, including triggers that captured nothing
    /// (cooldown or exhausted slots).
    pub(crate) fn triggered(&self) -> u64 {
        self.triggered
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        use hostcc_sim::SnapError;
        if self.captured > self.slots.len() {
            return Err(SnapError::Corrupt("flight dumps exceed slots"));
        }
        if self
            .slots
            .iter()
            .any(|d| d.samples.len() > self.dump_samples)
        {
            return Err(SnapError::Corrupt("flight dump overfull"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TelemetryConfig {
        let mut c = TelemetryConfig::enabled().with_flight_recorder();
        c.flight_dump_samples = 4;
        c.flight_max_dumps = 2;
        c
    }

    fn push_samples(ring: &mut SampleRing<TelemetrySample>, n: u64, t0: u64) {
        for i in 0..n {
            let mut s = crate::sample::TelemetrySample {
                t_ns: t0 + i * 1_000,
                buffer_occupancy_bytes: i,
                buffer_frac: 0.0,
                ring_free_slots: 0,
                delivered: 0,
                drops: 0,
                credit_stalls: 0,
                iotlb_lookups: 0,
                iotlb_misses: 0,
                walks: 0,
                packets: 0,
                host_delay_ns: 0,
                cpu_ns: 0,
                acks: 0,
                fabric_delay_ns: 0,
                mem_util: 0.0,
                mem_latency_ns: 0.0,
            };
            s.buffer_occupancy_bytes = i;
            ring.push(s);
        }
    }

    #[test]
    fn captures_ring_tail_oldest_first() {
        let c = cfg();
        let mut rec = FlightRecorder::new(&c);
        let mut ring = SampleRing::new(c.ring_capacity);
        push_samples(&mut ring, 10, 0);
        rec.trigger(TriggerKind::DropBurst, 9_000, &ring);
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, TriggerKind::DropBurst);
        assert_eq!(dumps[0].samples.len(), 4);
        let ts: Vec<u64> = dumps[0].samples.iter().map(|s| s.t_ns).collect();
        assert_eq!(ts, vec![6_000, 7_000, 8_000, 9_000]);
    }

    #[test]
    fn cooldown_and_slot_bounds_are_enforced() {
        let c = cfg();
        let cooldown = c.interval_ns * c.flight_dump_samples as u64;
        let mut rec = FlightRecorder::new(&c);
        let mut ring = SampleRing::new(c.ring_capacity);
        push_samples(&mut ring, 8, 0);
        rec.trigger(TriggerKind::DropBurst, 7_000, &ring);
        // Inside the cooldown: counted, not captured.
        rec.trigger(TriggerKind::DropBurst, 7_000 + cooldown / 2, &ring);
        assert_eq!(rec.dumps().len(), 1);
        // Past the cooldown: second slot fills.
        rec.trigger(TriggerKind::Stall, 7_000 + cooldown, &ring);
        assert_eq!(rec.dumps().len(), 2);
        // Slots exhausted: counted, not captured.
        rec.trigger(TriggerKind::FaultWindow, 7_000 + 10 * cooldown, &ring);
        assert_eq!(rec.dumps().len(), 2);
        assert_eq!(rec.triggered(), 4);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut c = cfg();
        c.flight_recorder = false;
        let mut rec = FlightRecorder::new(&c);
        let mut ring = SampleRing::new(4);
        push_samples(&mut ring, 4, 0);
        rec.trigger(TriggerKind::Stall, 3_000, &ring);
        assert!(rec.dumps().is_empty());
        assert_eq!(rec.triggered(), 0);
    }
}

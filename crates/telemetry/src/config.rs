//! Telemetry configuration: sampling cadence, detector thresholds and
//! flight-recorder bounds. Mirrors the `TraceConfig` builder idiom.

/// Configuration for the telemetry subsystem. Disabled by default: a run
/// with telemetry off schedules no sampling events and is bit-identical
/// to a build without the telemetry layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch.
    pub enabled: bool,
    /// Sampling interval, nanoseconds. The sampler rides the simulation's
    /// timing wheel like every other event, so its instants depend only
    /// on the configuration. Must be non-zero
    /// (`TestbedConfig::validate` rejects 0).
    pub interval_ns: u64,
    /// Retained-sample ring capacity (the flight recorder dumps from this
    /// window; the streaming sink sees every sample regardless).
    pub(crate) ring_capacity: usize,
    /// Whether the flight recorder captures dumps on triggers.
    pub flight_recorder: bool,
    /// Samples copied into each flight dump (bounded by `ring_capacity`).
    pub flight_dump_samples: usize,
    /// Maximum dumps captured per run (storage is preallocated).
    pub flight_max_dumps: usize,
    /// Buffer-occupancy fraction at/above which a sample counts toward
    /// episode onset.
    pub(crate) onset_buffer_frac: f64,
    /// Buffer-occupancy fraction at/below which a sample counts toward
    /// episode clear (hysteresis: strictly below `onset_buffer_frac`).
    pub(crate) clear_buffer_frac: f64,
    /// Credit-stall events in one sampling window at/above which a sample
    /// counts toward onset. Loaded hosts see steady stall backgrounds in
    /// the low hundreds per 5 µs window; the default only fires on
    /// multi-x bursts (sustained posted-credit starvation).
    pub(crate) onset_stall_events: u64,
    /// Consecutive onset-qualifying samples before an episode opens.
    pub(crate) onset_samples: u32,
    /// Consecutive clear-qualifying samples before an episode closes.
    pub(crate) clear_samples: u32,
    /// Z-score at/above which a cause signal's deviation from the
    /// episode-free baseline attributes the episode.
    pub(crate) z_threshold: f64,
    /// Baseline samples required before z-scores are trusted.
    pub(crate) baseline_min_samples: u64,
    /// Episode-table capacity (preallocated; overflow is counted).
    pub(crate) max_episodes: usize,
    /// Drops in one sampling window at/above which the flight recorder
    /// fires a drop-burst dump.
    pub drop_burst_threshold: u64,
}

impl TelemetryConfig {
    /// Telemetry off (the default).
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            ..Self::enabled()
        }
    }

    /// Telemetry on with the default cadence and thresholds: 5 µs
    /// sampling (well below the 100 µs Swift host target the paper shows
    /// is too slow), a 4096-sample window, detector hysteresis at
    /// 60%/30% buffer occupancy.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            interval_ns: 5_000,
            ring_capacity: 4096,
            flight_recorder: false,
            flight_dump_samples: 256,
            flight_max_dumps: 8,
            onset_buffer_frac: 0.6,
            clear_buffer_frac: 0.3,
            onset_stall_events: 512,
            onset_samples: 3,
            clear_samples: 5,
            z_threshold: 3.0,
            baseline_min_samples: 16,
            max_episodes: 64,
            drop_burst_threshold: 16,
        }
    }

    /// Override the sampling interval (clamped to ≥ 1 ns).
    pub fn with_interval_ns(mut self, ns: u64) -> Self {
        self.interval_ns = ns.max(1);
        self
    }

    /// Enable the flight recorder.
    pub fn with_flight_recorder(mut self) -> Self {
        self.flight_recorder = true;
        self
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let c = TelemetryConfig::enabled()
            .with_interval_ns(2_500)
            .with_flight_recorder();
        assert!(c.enabled && c.flight_recorder);
        assert_eq!(c.interval_ns, 2_500);
        assert!(!TelemetryConfig::default().enabled);
        assert_eq!(
            TelemetryConfig::enabled().with_interval_ns(0).interval_ns,
            1
        );
    }
}

//! Typed failures for the panic-free run API.

use crate::config::ConfigError;
use hostcc_sim::SimTime;
use hostcc_telemetry::TelemetrySample;

/// Why a simulation run could not produce metrics. The library's
/// top-level entry points (`experiment::run`, `run_traced`, `sweep`)
/// return this instead of panicking on bad input or spinning forever on a
/// stalled world.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The configuration failed [`TestbedConfig::validate`](crate::TestbedConfig::validate)
    /// before the testbed was built.
    InvalidConfig(ConfigError),
    /// The engine's progress watchdog tripped: the simulation dispatched
    /// an implausible number of events without the clock advancing.
    Stalled {
        /// The instant progress stopped at.
        at: SimTime,
        /// Events still queued when the run was aborted.
        pending: usize,
        /// Which fleet host stalled (`None` on single-host runs, where
        /// there is nothing to disambiguate).
        host: Option<usize>,
        /// The stalled host's home shard under the current placement,
        /// when known; a stolen host may have run on another worker.
        shard: Option<usize>,
        /// The final telemetry sample before the stall, when the run had
        /// telemetry enabled — the host signals at the moment progress
        /// stopped, so the trip is diagnosable without re-running. Boxed
        /// to keep the error (and every `Result` carrying it) small.
        telemetry: Option<Box<TelemetrySample>>,
    },
    /// A sweep worker panicked while running one grid point. The panic is
    /// caught at the point boundary so the remaining points still
    /// complete; the payload says which point died.
    WorkerPanicked {
        /// Index of the grid point whose worker panicked.
        point: usize,
        /// The point's label (whatever the sweep called it).
        label: String,
        /// The panic payload rendered to text, when it was a string.
        message: String,
    },
    /// A checkpoint could not be written or restored (corrupt, truncated,
    /// wrong version, mismatched config, or save-side refusal).
    Checkpoint(hostcc_sim::SnapError),
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::InvalidConfig(e)
    }
}

impl From<hostcc_sim::SnapError> for RunError {
    fn from(e: hostcc_sim::SnapError) -> Self {
        RunError::Checkpoint(e)
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            RunError::Stalled {
                at,
                pending,
                host,
                shard,
                telemetry,
            } => {
                write!(
                    f,
                    "simulation stalled at t={}ns with {pending} events pending \
                     (the clock stopped advancing; see RunOutcome::Stalled)",
                    at.as_nanos()
                )?;
                if let Some(h) = host {
                    write!(f, "; host {h}")?;
                    if let Some(s) = shard {
                        write!(f, " (shard {s})")?;
                    }
                }
                if let Some(s) = telemetry {
                    write!(
                        f,
                        "; final telemetry: buffer {:.0}% full, {} drops/window, \
                         {} credit stalls/window, {:.2} walks/packet",
                        s.buffer_frac * 100.0,
                        s.drops,
                        s.credit_stalls,
                        s.walks_per_packet()
                    )?;
                }
                Ok(())
            }
            RunError::WorkerPanicked {
                point,
                label,
                message,
            } => {
                write!(f, "sweep worker panicked on point {point} ({label})")?;
                if !message.is_empty() {
                    write!(f, ": {message}")?;
                }
                Ok(())
            }
            RunError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidConfig(e) => Some(e),
            RunError::Stalled { .. } => None,
            RunError::WorkerPanicked { .. } => None,
            RunError::Checkpoint(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = RunError::from(ConfigError::ZeroSenders);
        assert!(e.to_string().contains("senders"));
        let e = RunError::Stalled {
            at: SimTime::from_nanos(99),
            pending: 3,
            host: None,
            shard: None,
            telemetry: None,
        };
        let msg = e.to_string();
        assert!(msg.contains("99") && msg.contains("3 events"), "{msg}");
        assert!(!msg.contains("host"), "{msg}");
    }

    #[test]
    fn stall_display_names_the_host_and_shard() {
        let e = RunError::Stalled {
            at: SimTime::from_nanos(50),
            pending: 1,
            host: Some(5),
            shard: Some(1),
            telemetry: None,
        };
        let msg = e.to_string();
        assert!(msg.contains("host 5"), "{msg}");
        assert!(msg.contains("shard 1"), "{msg}");
    }

    #[test]
    fn worker_panic_names_the_point() {
        let e = RunError::WorkerPanicked {
            point: 7,
            label: "threads=16".to_string(),
            message: "boom".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("point 7"), "{msg}");
        assert!(msg.contains("threads=16"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn checkpoint_errors_wrap_snap_errors() {
        let e = RunError::from(hostcc_sim::SnapError::Checksum);
        assert!(matches!(e, RunError::Checkpoint(_)));
        assert!(e.to_string().contains("checkpoint failed"), "{e}");
    }

    #[test]
    fn stall_display_includes_final_telemetry() {
        let sample = TelemetrySample {
            t_ns: 95,
            buffer_occupancy_bytes: 900,
            buffer_frac: 0.9,
            ring_free_slots: 0,
            delivered: 0,
            drops: 7,
            credit_stalls: 12,
            iotlb_lookups: 40,
            iotlb_misses: 30,
            walks: 120,
            packets: 10,
            host_delay_ns: 0,
            cpu_ns: 0,
            acks: 0,
            fabric_delay_ns: 0,
            mem_util: 0.5,
            mem_latency_ns: 200.0,
        };
        let e = RunError::Stalled {
            at: SimTime::from_nanos(99),
            pending: 3,
            host: None,
            shard: None,
            telemetry: Some(Box::new(sample)),
        };
        let msg = e.to_string();
        assert!(msg.contains("90% full"), "{msg}");
        assert!(msg.contains("7 drops"), "{msg}");
        assert!(msg.contains("12.00 walks/packet"), "{msg}");
    }
}

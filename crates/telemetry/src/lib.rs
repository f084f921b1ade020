//! # hostcc-telemetry
//!
//! Continuous host-congestion telemetry for the hostcc testbed: the
//! paper's argument is that the congestion signals that matter (IOTLB
//! misses per packet, PCIe credit stalls, memory-bandwidth saturation)
//! live *below* the RTT and are never surfaced to the congestion
//! controller. This crate surfaces them, in three layers:
//!
//! 1. **Signal sampler** — a periodic collector (scheduled through the
//!    simulation's own timing wheel like every other event) of NIC
//!    buffer occupancy and drop rate, Rx-ring availability, PCIe
//!    posted-credit stalls, IOTLB hit rate and walks/packet,
//!    memory-controller utilization and queued-read latency, and
//!    per-flow host vs fabric delay. Samples are compact
//!    `Copy` records in a fixed-capacity ring, optionally streamed as
//!    JSONL to a sink so long fleet runs keep bounded telemetry memory.
//! 2. **Episode detector** — online segmentation of the run into
//!    host-congestion episodes (onset/peak/clear, hysteresis on buffer
//!    occupancy, drops and credit stalls), each attributed to a root
//!    cause (IOTLB pressure, memory-bandwidth contention, PCIe credit
//!    starvation, core preemption) by comparing episode signal means
//!    against episode-free Welford baselines via z-scores, with an
//!    absolute-threshold fallback for runs that are congested from the
//!    first sample (no clean baseline ever forms).
//! 3. **Flight recorder** — on drop bursts, fault-window opens or
//!    watchdog stalls, the last N samples are copied into a bounded,
//!    preallocated dump so chaos regressions are diagnosable post-hoc.
//!
//! Everything is bit-deterministic (no wall clock, no RNG, pure f64
//! arithmetic over a deterministic sample stream) and allocation-free at
//! steady state: rings, dump slots and the JSONL line buffer are sized at
//! construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod detector;
mod recorder;
mod sample;

pub use config::TelemetryConfig;
pub(crate) use detector::EpisodeDetector;
pub use detector::{EpisodeRecord, RootCause};
pub use recorder::TriggerKind;
pub(crate) use recorder::{FlightDump, FlightRecorder};
pub use sample::{SignalInputs, TelemetrySample};

use hostcc_trace::SampleRing;
use std::fmt::Write as _;
use std::io::Write;

/// End-of-run telemetry digest: sample/episode totals plus the episode
/// table itself. `Some` on [`RunMetrics`](index.html) only when telemetry
/// ran, so telemetry-off exports stay byte-identical to pre-telemetry
/// builds.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Samples taken over the run.
    pub samples: u64,
    /// Sampling interval, nanoseconds.
    pub interval_ns: u64,
    /// Detected host-congestion episodes (an episode still open at the
    /// end of the run is closed non-destructively into the summary with
    /// `open = true`).
    pub episodes: Vec<EpisodeRecord>,
    /// Episodes dropped because the episode table was full.
    pub dropped_episodes: u64,
    /// Flight-recorder dumps triggered.
    pub flight_dumps: u64,
    /// The most recent sample (the "final signals" a stall diagnosis
    /// wants).
    pub last: Option<TelemetrySample>,
}

/// The telemetry runtime: sampler + detector + flight recorder. Owned by
/// the testbed; disabled instances cost one branch per hook and schedule
/// no events, so a telemetry-off run is bit-identical to a build without
/// the telemetry layer.
pub struct Telemetry {
    cfg: TelemetryConfig,
    ring: SampleRing<TelemetrySample>,
    detector: EpisodeDetector,
    recorder: FlightRecorder,
    // Lifetime-counter bases from the previous sample: the sampler stores
    // per-window deltas, which is what rates and attribution want.
    base_delivered: u64,
    base_drops: u64,
    base_stalls: u64,
    base_lookups: u64,
    base_misses: u64,
    base_walks: u64,
    // Window accumulators fed by the per-packet / per-ACK hooks.
    win_packets: u64,
    win_host_delay_ns: u64,
    win_cpu_ns: u64,
    win_acks: u64,
    win_fabric_ns: u64,
    samples_taken: u64,
    last: Option<TelemetrySample>,
    /// Streaming JSONL sink (one line per sample, appended incrementally).
    sink: Option<Box<dyn Write + Send>>,
    /// Reusable line buffer for the sink: sized once, never grown on the
    /// steady-state path.
    line_buf: String,
}

// The sink and its line buffer are transient I/O, never checkpointed.
hostcc_sim::snap_fields!(Telemetry {
    ring, detector, recorder, base_delivered, base_drops, base_stalls, base_lookups, base_misses,
    base_walks, win_packets, win_host_delay_ns, win_cpu_ns, win_acks, win_fabric_ns,
    samples_taken, last,
} skip { cfg, sink, line_buf });

impl std::fmt::Debug for Telemetry {
    // Manual: `dyn Write` sinks are not `Debug`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("cfg", &self.cfg)
            .field("samples_taken", &self.samples_taken)
            .field("last", &self.last)
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A disabled instance: hooks are no-ops, no events are scheduled.
    #[cfg(test)]
    pub(crate) fn disabled() -> Self {
        Self::new(TelemetryConfig::disabled())
    }

    /// Build from a configuration. All storage (sample ring, episode
    /// table, flight-dump slots, JSONL line buffer) is allocated here;
    /// nothing grows afterwards.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let cap = if cfg.enabled {
            cfg.ring_capacity.max(1)
        } else {
            1
        };
        Telemetry {
            ring: SampleRing::new(cap),
            detector: EpisodeDetector::new(&cfg),
            recorder: FlightRecorder::new(&cfg),
            base_delivered: 0,
            base_drops: 0,
            base_stalls: 0,
            base_lookups: 0,
            base_misses: 0,
            base_walks: 0,
            win_packets: 0,
            win_host_delay_ns: 0,
            win_cpu_ns: 0,
            win_acks: 0,
            win_fabric_ns: 0,
            samples_taken: 0,
            last: None,
            sink: None,
            line_buf: String::with_capacity(if cfg.enabled { 640 } else { 0 }),
            cfg,
        }
    }

    /// Whether the sampler is active (hooks and ticks do work).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Sampling interval in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.cfg.interval_ns
    }

    /// Install a streaming sink: every subsequent sample is appended to
    /// it as one JSONL line. The simulation never reads the sink, so
    /// installing one cannot perturb a run.
    pub fn set_sink(&mut self, sink: Box<dyn Write + Send>) {
        self.sink = Some(sink);
    }

    /// Per-delivered-packet hook (CPU-done time): accumulates the window's
    /// host-delay and CPU-stage sums. `cpu_ns` includes core queueing, so
    /// preemption shows up here.
    #[inline]
    pub fn on_packet(&mut self, host_delay_ns: u64, cpu_ns: u64) {
        self.win_packets += 1;
        self.win_host_delay_ns += host_delay_ns;
        self.win_cpu_ns += cpu_ns;
    }

    /// Per-ACK hook (sender side): `fabric_ns` is the ACK's RTT minus its
    /// echoed host delay — the fabric share of the round trip.
    #[inline]
    pub fn on_ack(&mut self, fabric_ns: u64) {
        self.win_acks += 1;
        self.win_fabric_ns += fabric_ns;
    }

    /// Take one sample at `t_ns` from the given instantaneous gauges and
    /// lifetime counters, run the episode detector, check the drop-burst
    /// flight trigger, and stream the sample if a sink is installed.
    pub fn sample(&mut self, t_ns: u64, inputs: SignalInputs) {
        debug_assert!(self.cfg.enabled);
        let s = TelemetrySample {
            t_ns,
            buffer_occupancy_bytes: inputs.buffer_occupancy_bytes,
            buffer_frac: if inputs.buffer_capacity_bytes > 0 {
                inputs.buffer_occupancy_bytes as f64 / inputs.buffer_capacity_bytes as f64
            } else {
                0.0
            },
            ring_free_slots: inputs.min_ring_free,
            delivered: inputs.delivered_total - self.base_delivered,
            drops: inputs.drops_total - self.base_drops,
            credit_stalls: inputs.credit_stalls_total - self.base_stalls,
            iotlb_lookups: inputs.iotlb_lookups_total - self.base_lookups,
            iotlb_misses: inputs.iotlb_misses_total - self.base_misses,
            walks: inputs.walks_total - self.base_walks,
            packets: self.win_packets,
            host_delay_ns: self.win_host_delay_ns,
            cpu_ns: self.win_cpu_ns,
            acks: self.win_acks,
            fabric_delay_ns: self.win_fabric_ns,
            mem_util: inputs.mem_util,
            mem_latency_ns: inputs.mem_latency_ns,
        };
        self.base_delivered = inputs.delivered_total;
        self.base_drops = inputs.drops_total;
        self.base_stalls = inputs.credit_stalls_total;
        self.base_lookups = inputs.iotlb_lookups_total;
        self.base_misses = inputs.iotlb_misses_total;
        self.base_walks = inputs.walks_total;
        self.win_packets = 0;
        self.win_host_delay_ns = 0;
        self.win_cpu_ns = 0;
        self.win_acks = 0;
        self.win_fabric_ns = 0;

        self.ring.push(s);
        self.samples_taken += 1;
        self.detector.on_sample(&s);
        if s.drops >= self.cfg.drop_burst_threshold {
            self.recorder
                .trigger(TriggerKind::DropBurst, t_ns, &self.ring);
        }
        self.last = Some(s);
        self.stream(&s);
    }

    /// Fault-window-open hook (called by the host's fault plan): snapshot the
    /// telemetry leading into the window.
    pub fn on_fault_window(&mut self, t_ns: u64) {
        if self.cfg.enabled {
            self.recorder
                .trigger(TriggerKind::FaultWindow, t_ns, &self.ring);
        }
    }

    /// Watchdog-stall hook: dump the samples leading into the stall so
    /// the trip is diagnosable without re-running.
    pub fn on_stall(&mut self, t_ns: u64) {
        if self.cfg.enabled {
            self.recorder.trigger(TriggerKind::Stall, t_ns, &self.ring);
        }
    }

    /// The most recent sample (the final signals, for stall diagnosis).
    pub fn last_sample(&self) -> Option<TelemetrySample> {
        self.last
    }

    /// Samples taken over the run so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// The retained sample window, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TelemetrySample> {
        self.ring.iter()
    }

    /// The episode detector (closed episodes so far).
    pub fn detector(&self) -> &EpisodeDetector {
        &self.detector
    }

    /// The flight recorder's captured dumps.
    pub fn flight_dumps(&self) -> &[FlightDump] {
        self.recorder.dumps()
    }

    /// Build the end-of-run summary. Non-destructive: an episode still
    /// open at `end_ns` is closed *in the summary copy only*, so calling
    /// this twice yields identical results.
    pub fn summary(&self, end_ns: u64) -> TelemetrySummary {
        let mut episodes = self.detector.episodes().to_vec();
        if let Some(open) = self.detector.open_episode(end_ns) {
            if episodes.len() < self.cfg.max_episodes {
                episodes.push(open);
            }
        }
        TelemetrySummary {
            samples: self.samples_taken,
            interval_ns: self.cfg.interval_ns,
            episodes,
            dropped_episodes: self.detector.dropped_episodes(),
            flight_dumps: self.recorder.triggered(),
            last: self.last,
        }
    }

    /// Append one JSONL line for `s` to the sink, if any. Uses the
    /// preallocated line buffer; the steady-state path allocates nothing.
    fn stream(&mut self, s: &TelemetrySample) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let b = &mut self.line_buf;
        b.clear();
        let _ = writeln!(
            b,
            "{{\"t_ns\":{},\"buffer_bytes\":{},\"buffer_frac\":{:.6},\"ring_free\":{},\
             \"delivered\":{},\"drops\":{},\"credit_stalls\":{},\
             \"iotlb_lookups\":{},\"iotlb_misses\":{},\"walks\":{},\
             \"packets\":{},\"host_delay_ns\":{},\"cpu_ns\":{},\
             \"acks\":{},\"fabric_delay_ns\":{},\
             \"mem_util\":{:.6},\"mem_latency_ns\":{:.3}}}",
            s.t_ns,
            s.buffer_occupancy_bytes,
            s.buffer_frac,
            s.ring_free_slots,
            s.delivered,
            s.drops,
            s.credit_stalls,
            s.iotlb_lookups,
            s.iotlb_misses,
            s.walks,
            s.packets,
            s.host_delay_ns,
            s.cpu_ns,
            s.acks,
            s.fabric_delay_ns,
            s.mem_util,
            s.mem_latency_ns,
        );
        let _ = sink.write_all(b.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm(t_ns: u64) -> SignalInputs {
        SignalInputs {
            buffer_occupancy_bytes: 1024,
            buffer_capacity_bytes: 1 << 20,
            min_ring_free: 100,
            delivered_total: t_ns / 1000,
            drops_total: 0,
            credit_stalls_total: 0,
            iotlb_lookups_total: t_ns / 250,
            iotlb_misses_total: 0,
            walks_total: 0,
            mem_util: 0.2,
            mem_latency_ns: 90.0,
        }
    }

    #[test]
    fn disabled_instance_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.samples_taken(), 0);
        assert!(t.last_sample().is_none());
        let s = t.summary(1_000);
        assert_eq!(s.samples, 0);
        assert!(s.episodes.is_empty());
    }

    #[test]
    fn sampler_stores_window_deltas() {
        let mut t = Telemetry::new(TelemetryConfig::enabled());
        t.on_packet(10_000, 3_000);
        t.on_packet(12_000, 3_000);
        t.on_ack(8_000);
        t.sample(5_000, calm(5_000));
        let s = t.last_sample().unwrap();
        assert_eq!(s.packets, 2);
        assert_eq!(s.host_delay_ns, 22_000);
        assert_eq!(s.acks, 1);
        assert_eq!(s.delivered, 5);
        // Second window: deltas restart from the new bases.
        t.sample(10_000, calm(10_000));
        let s = t.last_sample().unwrap();
        assert_eq!(s.packets, 0);
        assert_eq!(s.delivered, 5);
        assert_eq!(t.samples_taken(), 2);
    }

    #[test]
    fn sink_receives_one_json_line_per_sample() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut t = Telemetry::new(TelemetryConfig::enabled());
        t.set_sink(Box::new(buf.clone()));
        t.sample(1_000, calm(1_000));
        t.sample(2_000, calm(2_000));
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = hostcc_trace::json::parse(line).expect("JSONL line parses");
            assert!(v.get("t_ns").is_some());
            assert!(v.get("buffer_frac").is_some());
        }
    }

    #[test]
    fn summary_is_idempotent() {
        let mut t = Telemetry::new(TelemetryConfig::enabled());
        for i in 1..20 {
            t.sample(i * 1_000, calm(i * 1_000));
        }
        assert_eq!(t.summary(20_000), t.summary(20_000));
    }
}

//! Online episode detection and root-cause attribution.
//!
//! The detector segments the telemetry stream into host-congestion
//! episodes with onset/peak/clear timestamps using hysteresis (an episode
//! opens only after `onset_samples` consecutive congested samples and
//! closes only after `clear_samples` consecutive clear ones), then
//! attributes each episode to the resource whose signal deviated most
//! from its episode-free baseline:
//!
//! * **IOTLB pressure** — page walks per packet;
//! * **memory-bandwidth contention** — queued-read memory latency;
//! * **PCIe credit starvation** — posted-credit stall events per window;
//! * **core preemption** — CPU-stage time (queueing included) per packet.
//!
//! Baselines are Welford mean/variance accumulators fed only by
//! episode-free samples, so attribution compares "during" against
//! "normal" — the z-score framing of the HPC congestion-characterization
//! literature. Runs congested from the first sample never form a
//! baseline; a normalized absolute-threshold fallback attributes those
//! (the cc_blindspot case: walks/packet far above 1 with the IOMMU on).

use crate::config::TelemetryConfig;
use crate::sample::TelemetrySample;

/// The host-side resource an episode is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootCause {
    /// IOTLB working set exceeds capacity: page walks per packet spike.
    IotlbPressure,
    /// Memory-bandwidth contention: queued-read latency spikes.
    MemBandwidth,
    /// PCIe posted-credit starvation: admission stalls spike.
    PcieCredit,
    /// Receiver-core preemption: CPU-stage time per packet spikes.
    CorePreempt,
    /// No signal deviated enough to name a culprit.
    Unknown,
}

impl RootCause {
    /// Stable kebab-case name for exports and assertions.
    pub fn name(&self) -> &'static str {
        match self {
            RootCause::IotlbPressure => "iotlb-pressure",
            RootCause::MemBandwidth => "mem-bandwidth",
            RootCause::PcieCredit => "pcie-credit",
            RootCause::CorePreempt => "core-preempt",
            RootCause::Unknown => "unknown",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            RootCause::IotlbPressure => 0,
            RootCause::MemBandwidth => 1,
            RootCause::PcieCredit => 2,
            RootCause::CorePreempt => 3,
            RootCause::Unknown => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, hostcc_sim::SnapError> {
        Ok(match tag {
            0 => RootCause::IotlbPressure,
            1 => RootCause::MemBandwidth,
            2 => RootCause::PcieCredit,
            3 => RootCause::CorePreempt,
            4 => RootCause::Unknown,
            _ => return Err(hostcc_sim::SnapError::Corrupt("root cause out of range")),
        })
    }
}

impl hostcc_sim::Snap for RootCause {
    fn save(&self, w: &mut hostcc_sim::SnapWriter) {
        w.u8(self.tag());
    }

    fn load(&mut self, r: &mut hostcc_sim::SnapReader<'_>) -> Result<(), hostcc_sim::SnapError> {
        *self = Self::from_tag(r.u8()?)?;
        Ok(())
    }

    fn blank() -> Option<Self> {
        Some(RootCause::Unknown)
    }
}

/// One detected host-congestion episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeRecord {
    /// First congested sample's timestamp, ns.
    pub onset_ns: u64,
    /// Timestamp of the episode's peak buffer occupancy, ns.
    pub peak_ns: u64,
    /// Timestamp the episode cleared (or the run ended, if `open`), ns.
    pub clear_ns: u64,
    /// Whether the episode was still open when the run ended.
    pub open: bool,
    /// Samples spanned.
    pub samples: u32,
    /// Host drops over the episode.
    pub drops: u64,
    /// Peak buffer-occupancy fraction.
    pub peak_buffer_frac: f64,
    /// Attributed root cause.
    pub cause: RootCause,
    /// Winning z-score (0 when attribution fell back to absolute
    /// thresholds).
    pub z: f64,
    /// Episode mean: page walks per packet.
    pub walks_per_packet: f64,
    /// Episode mean: memory-controller utilization.
    pub mem_util: f64,
    /// Episode mean: queued-read memory latency, ns.
    pub mem_latency_ns: f64,
    /// Credit-stall events over the episode.
    pub credit_stalls: u64,
    /// Episode mean: CPU-stage ns per packet.
    pub cpu_ns_per_packet: f64,
}

hostcc_sim::snap_fields!(EpisodeRecord {
    onset_ns, peak_ns, clear_ns, open, samples, drops, peak_buffer_frac, cause, z,
    walks_per_packet, mem_util, mem_latency_ns, credit_stalls, cpu_ns_per_packet,
} blank {
    EpisodeRecord {
        onset_ns: 0, peak_ns: 0, clear_ns: 0, open: false, samples: 0, drops: 0,
        peak_buffer_frac: 0.0, cause: RootCause::Unknown, z: 0.0, walks_per_packet: 0.0,
        mem_util: 0.0, mem_latency_ns: 0.0, credit_stalls: 0, cpu_ns_per_packet: 0.0,
    }
});

/// Welford online mean/variance.
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

hostcc_sim::snap_fields!(Welford { count, mean, m2 } blank { Welford::default() });

impl Welford {
    fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
    }

    fn std(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        (self.m2 / (self.count - 1) as f64).sqrt()
    }
}

/// Running accumulation over the episode under construction.
#[derive(Debug, Clone, Copy, Default)]
struct EpisodeAcc {
    onset_ns: u64,
    peak_ns: u64,
    peak_frac: f64,
    samples: u32,
    packets: u64,
    walks: u64,
    drops: u64,
    stalls: u64,
    cpu_ns: u64,
    mem_latency_sum: f64,
    mem_util_sum: f64,
}

hostcc_sim::snap_fields!(EpisodeAcc {
    onset_ns,
    peak_ns,
    peak_frac,
    samples,
    packets,
    walks,
    drops,
    stalls,
    cpu_ns,
    mem_latency_sum,
    mem_util_sum,
});

impl EpisodeAcc {
    fn reset(&mut self, onset_ns: u64) {
        *self = EpisodeAcc {
            onset_ns,
            peak_ns: onset_ns,
            ..EpisodeAcc::default()
        };
    }

    fn absorb(&mut self, s: &TelemetrySample) {
        self.samples += 1;
        self.packets += s.packets;
        self.walks += s.walks;
        self.drops += s.drops;
        self.stalls += s.credit_stalls;
        self.cpu_ns += s.cpu_ns;
        self.mem_latency_sum += s.mem_latency_ns;
        self.mem_util_sum += s.mem_util;
        if s.buffer_frac > self.peak_frac {
            self.peak_frac = s.buffer_frac;
            self.peak_ns = s.t_ns;
        }
    }
}

/// Cause-signal order shared by the baseline array, the z-score vector
/// and the fallback scores: [iotlb, mem, pcie, cpu].
const CAUSES: [RootCause; 4] = [
    RootCause::IotlbPressure,
    RootCause::MemBandwidth,
    RootCause::PcieCredit,
    RootCause::CorePreempt,
];

/// Online episode segmentation + attribution (see module docs).
#[derive(Debug)]
pub struct EpisodeDetector {
    cfg: TelemetryConfig,
    in_episode: bool,
    onset_run: u32,
    clear_run: u32,
    acc: EpisodeAcc,
    /// Episode-free baselines in `CAUSES` order.
    baselines: [Welford; 4],
    episodes: Vec<EpisodeRecord>,
    dropped: u64,
}

hostcc_sim::snap_fields!(EpisodeDetector {
    in_episode, onset_run, clear_run, acc, baselines, episodes, dropped,
} skip { cfg } check { EpisodeDetector::check_restored });

impl EpisodeDetector {
    /// A detector with thresholds from `cfg`; episode storage is
    /// preallocated to `cfg.max_episodes`.
    pub(crate) fn new(cfg: &TelemetryConfig) -> Self {
        EpisodeDetector {
            cfg: *cfg,
            in_episode: false,
            onset_run: 0,
            clear_run: 0,
            acc: EpisodeAcc::default(),
            baselines: [Welford::default(); 4],
            episodes: Vec::with_capacity(if cfg.enabled { cfg.max_episodes } else { 0 }),
            dropped: 0,
        }
    }

    /// Feed one sample through the segmentation state machine.
    pub(crate) fn on_sample(&mut self, s: &TelemetrySample) {
        let congested = s.buffer_frac >= self.cfg.onset_buffer_frac
            || s.drops > 0
            || s.credit_stalls >= self.cfg.onset_stall_events;
        let clear = s.buffer_frac <= self.cfg.clear_buffer_frac && s.drops == 0;
        if self.in_episode {
            self.acc.absorb(s);
            if clear {
                self.clear_run += 1;
                if self.clear_run >= self.cfg.clear_samples {
                    let rec = self.attribute(s.t_ns, false);
                    if self.episodes.len() < self.cfg.max_episodes {
                        self.episodes.push(rec);
                    } else {
                        self.dropped += 1;
                    }
                    self.in_episode = false;
                    self.onset_run = 0;
                    self.clear_run = 0;
                }
            } else {
                self.clear_run = 0;
            }
        } else if congested {
            if self.onset_run == 0 {
                self.acc.reset(s.t_ns);
            }
            self.acc.absorb(s);
            self.onset_run += 1;
            if self.onset_run >= self.cfg.onset_samples {
                self.in_episode = true;
                self.clear_run = 0;
            }
        } else {
            self.onset_run = 0;
            // Episode-free sample: feed the baselines the four cause
            // signals attribution will compare against.
            self.baselines[0].push(s.walks_per_packet());
            self.baselines[1].push(s.mem_latency_ns);
            self.baselines[2].push(s.credit_stalls as f64);
            self.baselines[3].push(s.cpu_ns_per_packet());
        }
    }

    /// Closed episodes so far, in onset order.
    pub fn episodes(&self) -> &[EpisodeRecord] {
        &self.episodes
    }

    /// Episodes discarded because the table was full.
    pub(crate) fn dropped_episodes(&self) -> u64 {
        self.dropped
    }

    /// If an episode is open, attribute it as of `end_ns` without
    /// mutating detector state (for end-of-run summaries).
    pub fn open_episode(&self, end_ns: u64) -> Option<EpisodeRecord> {
        self.in_episode.then(|| self.attribute(end_ns, true))
    }

    /// Attribute the accumulated episode: z-scores against episode-free
    /// baselines first, normalized absolute thresholds as fallback.
    fn attribute(&self, clear_ns: u64, open: bool) -> EpisodeRecord {
        let a = &self.acc;
        let n = a.samples.max(1) as f64;
        let pkts = a.packets.max(1) as f64;
        let wpp = if a.packets == 0 {
            0.0
        } else {
            a.walks as f64 / pkts
        };
        let mem_latency = a.mem_latency_sum / n;
        let mem_util = a.mem_util_sum / n;
        let stalls_per_sample = a.stalls as f64 / n;
        let cpp = if a.packets == 0 {
            0.0
        } else {
            a.cpu_ns as f64 / pkts
        };
        let during = [wpp, mem_latency, stalls_per_sample, cpp];

        // Primary: largest z-score over a trusted baseline.
        let mut best = 0usize;
        let mut best_z = f64::NEG_INFINITY;
        for (i, b) in self.baselines.iter().enumerate() {
            let z = if b.count < self.cfg.baseline_min_samples {
                0.0
            } else {
                // Std floor: a near-constant baseline (e.g. zero stalls
                // everywhere) must not turn a tiny absolute bump into an
                // unbounded z.
                let sd = b.std().max(0.02 * b.mean.abs()).max(1e-9);
                (during[i] - b.mean) / sd
            };
            if z > best_z {
                best_z = z;
                best = i;
            }
        }
        let (cause, z) = if best_z >= self.cfg.z_threshold {
            (CAUSES[best], best_z)
        } else {
            // Fallback: normalized absolute pressure ratios, for runs with
            // no episode-free baseline (congested from the start). A ratio
            // ≥ 1 names the resource; the scales are the mechanisms'
            // natural units (≥1 walk per packet means the IOTLB thrashes,
            // ≥90% bus utilization means bandwidth contention, ~100 credit
            // stalls per admitted packet means starvation rather than the
            // endemic background, and ~7× the per-packet CPU cost means
            // cores are being held).
            let spp = if a.packets == 0 {
                0.0
            } else {
                a.stalls as f64 / pkts
            };
            let scores = [wpp / 1.0, mem_util / 0.9, spp / 100.0, cpp / 20_000.0];
            let mut fb = 0usize;
            for (i, sc) in scores.iter().enumerate() {
                if *sc > scores[fb] {
                    fb = i;
                }
            }
            if scores[fb] >= 1.0 {
                (CAUSES[fb], 0.0)
            } else {
                (RootCause::Unknown, 0.0)
            }
        };

        EpisodeRecord {
            onset_ns: a.onset_ns,
            peak_ns: a.peak_ns,
            clear_ns,
            open,
            samples: a.samples,
            drops: a.drops,
            peak_buffer_frac: a.peak_frac,
            cause,
            z,
            walks_per_packet: wpp,
            mem_util,
            mem_latency_ns: mem_latency,
            credit_stalls: a.stalls,
            cpu_ns_per_packet: cpp,
        }
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        if self.cfg.enabled && self.episodes.len() > self.cfg.max_episodes {
            return Err(hostcc_sim::SnapError::Corrupt("episode table overfull"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TelemetryConfig {
        TelemetryConfig::enabled()
    }

    fn sample(t_ns: u64, buffer_frac: f64) -> TelemetrySample {
        TelemetrySample {
            t_ns,
            buffer_occupancy_bytes: (buffer_frac * 1e6) as u64,
            buffer_frac,
            ring_free_slots: 64,
            delivered: 10,
            drops: 0,
            credit_stalls: 0,
            iotlb_lookups: 40,
            iotlb_misses: 0,
            walks: 0,
            packets: 10,
            host_delay_ns: 100_000,
            cpu_ns: 28_500,
            acks: 10,
            fabric_delay_ns: 80_000,
            mem_util: 0.3,
            mem_latency_ns: 100.0,
        }
    }

    #[test]
    fn brief_spikes_below_hysteresis_do_not_open_episodes() {
        let mut d = EpisodeDetector::new(&cfg());
        for i in 0..50 {
            let frac = if i == 20 || i == 30 { 0.9 } else { 0.1 };
            d.on_sample(&sample(i * 1_000, frac));
        }
        assert!(d.episodes().is_empty());
        assert!(d.open_episode(50_000).is_none());
    }

    #[test]
    fn sustained_iotlb_pressure_is_detected_and_attributed() {
        let mut d = EpisodeDetector::new(&cfg());
        // Baseline: calm, walk-free.
        for i in 0..40 {
            d.on_sample(&sample(i * 1_000, 0.05));
        }
        // Episode: buffer high, walks spike.
        for i in 40..60 {
            let mut s = sample(i * 1_000, 0.85);
            s.walks = 60;
            s.drops = 3;
            d.on_sample(&s);
        }
        // Clear tail.
        for i in 60..70 {
            d.on_sample(&sample(i * 1_000, 0.05));
        }
        let eps = d.episodes();
        assert_eq!(eps.len(), 1, "one episode: {eps:?}");
        let e = eps[0];
        assert_eq!(e.cause, RootCause::IotlbPressure, "{e:?}");
        assert!(e.z >= 3.0, "z {}", e.z);
        assert_eq!(e.onset_ns, 40_000);
        assert!(e.clear_ns > e.peak_ns && e.peak_ns >= e.onset_ns);
        assert!(!e.open);
        assert!(e.drops > 0);
    }

    #[test]
    fn mem_latency_deviation_attributes_to_bandwidth() {
        let mut d = EpisodeDetector::new(&cfg());
        for i in 0..40 {
            d.on_sample(&sample(i * 1_000, 0.05));
        }
        for i in 40..60 {
            let mut s = sample(i * 1_000, 0.9);
            s.mem_latency_ns = 900.0;
            s.mem_util = 0.97;
            d.on_sample(&s);
        }
        for i in 60..70 {
            d.on_sample(&sample(i * 1_000, 0.05));
        }
        assert_eq!(d.episodes().len(), 1);
        assert_eq!(d.episodes()[0].cause, RootCause::MemBandwidth);
    }

    #[test]
    fn baseline_free_runs_fall_back_to_absolute_thresholds() {
        let mut d = EpisodeDetector::new(&cfg());
        // Congested from the very first sample: no baseline ever forms.
        for i in 0..30 {
            let mut s = sample(i * 1_000, 0.95);
            s.walks = 55; // 5.5 walks/packet
            s.drops = 2;
            d.on_sample(&s);
        }
        let open = d.open_episode(30_000).expect("episode still open");
        assert!(open.open);
        assert_eq!(open.cause, RootCause::IotlbPressure);
        assert_eq!(open.z, 0.0, "fallback attribution carries no z-score");
        assert!(open.walks_per_packet > 5.0);
        // Non-destructive: the detector state is unchanged.
        assert_eq!(d.episodes().len(), 0);
        assert_eq!(d.open_episode(30_000), Some(open));
    }

    #[test]
    fn episode_table_overflow_is_counted_not_grown() {
        let mut c = cfg();
        c.max_episodes = 1;
        let mut d = EpisodeDetector::new(&c);
        for round in 0..3u64 {
            let base = round * 100;
            for i in 0..20 {
                d.on_sample(&sample((base + i) * 1_000, 0.05));
            }
            for i in 20..30 {
                let mut s = sample((base + i) * 1_000, 0.9);
                s.drops = 1;
                d.on_sample(&s);
            }
            for i in 30..40 {
                d.on_sample(&sample((base + i) * 1_000, 0.05));
            }
        }
        assert_eq!(d.episodes().len(), 1);
        assert_eq!(d.dropped_episodes(), 2);
    }
}

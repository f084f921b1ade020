//! Deterministic fault injection for the host-congestion testbed.
//!
//! A [`FaultPlan`] is part of the experiment configuration: a list of
//! [`FaultSpec`] windows (one-shot or recurring) whose start/end edges are
//! scheduled through the same timing wheel as every other event, so a run
//! with a fault plan is exactly as reproducible as one without — identical
//! seeds give bit-identical metrics, faults included.
//!
//! The plan is pure data; the *effects* live in the host testbed, which
//! consults a [`FaultState`] on the datapath (is the access link down? by
//! what factor is memory bandwidth throttled?) and charges what happened
//! to [`FaultCounters`]. A [`RecoveryTracker`] samples goodput before,
//! during and after fault windows to answer the question the transport
//! machinery exists for: does the system actually come back?

use hostcc_sim::SimDuration;

/// What to break. Each variant targets one datapath layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// PCIe link-layer errors: each TLP crossing the link during the
    /// window is NAKed with this probability and must be replayed from
    /// the replay buffer after a replay-timer backoff (the real PCIe
    /// DLLP ACK/NAK retry mechanism).
    PcieReplay {
        /// Probability in [0, 1] that a TLP is NAKed and replayed.
        nak_rate: f64,
    },
    /// Access-link blackout: every packet arriving at the NIC during the
    /// window is lost on the wire. Recovery is the transport's job
    /// (dup-ACKs and RTO backoff).
    LinkFlap,
    /// NIC descriptor-refill stall: receiver threads stop re-posting Rx
    /// descriptors, so the ring drains and packets drop descriptor-starved
    /// until the window ends and the deferred refills are posted.
    DescriptorStall,
    /// IOTLB invalidation storm: the IOMMU's IOTLB and page-walk cache
    /// are flushed every `flush_period` during the window, forcing a
    /// page-walk burst on every translation after each flush.
    IotlbStorm {
        /// Interval between successive full flushes inside the window.
        flush_period: SimDuration,
    },
    /// Memory-bandwidth throttle step: the bandwidth the memory
    /// controller grants the NIC is multiplied by this factor for the
    /// duration of the window (models thermal/RAPL throttling or a
    /// bully workload beyond the modeled antagonist).
    MemThrottle {
        /// Multiplier in (0, 1] applied to the NIC's memory-bandwidth share.
        factor: f64,
    },
    /// Receiver-core preemption: the first `cores` receiver threads are
    /// descheduled for the window (their `core_free_at` horizon is pushed
    /// out), stalling packet processing on those queues.
    CorePreempt {
        /// Number of receiver cores preempted (clamped to the thread count).
        cores: u32,
    },
}

impl FaultKind {
    /// Stable lower-case name used in counters, traces and CLI flags.
    #[cfg(test)]
    pub(crate) fn name(&self) -> &'static str {
        FaultCounters::KIND_NAMES[FaultCounters::kind_index(self)]
    }
}

/// One fault window (or a train of them): `kind` holds from `at` for
/// `duration`, repeating every `period` for `repeats` occurrences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Start of the first window, measured from simulation start.
    pub(crate) at: SimDuration,
    /// How long each window lasts.
    pub(crate) duration: SimDuration,
    /// Start-to-start interval between consecutive windows.
    pub(crate) period: SimDuration,
    /// Total number of windows (>= 1).
    pub(crate) repeats: u32,
}

impl FaultSpec {
    /// Start offsets of every window in this spec.
    pub fn occurrences(&self) -> impl Iterator<Item = SimDuration> + '_ {
        (0..self.repeats.max(1)).map(move |r| {
            SimDuration::from_nanos(self.at.as_nanos() + self.period.as_nanos() * r as u64)
        })
    }
}

/// A deterministic schedule of fault windows. Empty by default: a testbed
/// built with an empty plan takes the exact same code paths (no fault
/// events scheduled, no fault RNG draws) and produces bit-identical
/// metrics to a build without the fault layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into the fault RNG stream (kept separate from the
    /// testbed seed so adding faults never perturbs workload arrivals).
    pub(crate) seed: u64,
    /// The fault windows.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a single window of `kind` starting at `at` for `duration`.
    pub fn one_shot(mut self, kind: FaultKind, at: SimDuration, duration: SimDuration) -> Self {
        self.specs.push(FaultSpec {
            kind,
            at,
            duration,
            period: SimDuration::ZERO,
            repeats: 1,
        });
        self
    }

    /// Add a train of `repeats` windows of `kind`, the first at `at`,
    /// each lasting `duration`, starting every `period`.
    pub fn recurring(
        mut self,
        kind: FaultKind,
        at: SimDuration,
        duration: SimDuration,
        period: SimDuration,
        repeats: u32,
    ) -> Self {
        self.specs.push(FaultSpec {
            kind,
            at,
            duration,
            period,
            repeats,
        });
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Total number of fault windows across all specs.
    pub fn window_count(&self) -> u64 {
        self.specs.iter().map(|s| s.repeats.max(1) as u64).sum()
    }
}

/// Lifetime counters for everything the fault layer did. The host
/// testbed exports them under `faults.*` next to the datapath
/// components' own counters, so chaos runs are diagnosable from the same
/// JSON export.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FaultCounters {
    /// Fault windows opened, per kind (indexed by kind order above).
    pub(crate) windows_opened: [u64; 6],
    /// Packets dropped on the wire by link-flap windows.
    pub(crate) link_dropped_packets: u64,
    /// Rx descriptor refills deferred by descriptor-stall windows.
    pub(crate) deferred_refills: u64,
    /// Full IOTLB/PWC flushes issued by invalidation storms.
    pub(crate) iotlb_flushes: u64,
    /// Receiver-core time stolen by preemption windows, in ns.
    pub(crate) preempt_ns: u64,
    /// Memory-throttle windows applied.
    pub(crate) throttle_windows: u64,
}

hostcc_sim::snap_fields!(FaultCounters {
    windows_opened,
    link_dropped_packets,
    deferred_refills,
    iotlb_flushes,
    preempt_ns,
    throttle_windows,
});

impl FaultCounters {
    const KIND_NAMES: [&'static str; 6] = [
        "pcie_replay",
        "link_flap",
        "descriptor_stall",
        "iotlb_storm",
        "mem_throttle",
        "core_preempt",
    ];

    fn kind_index(kind: &FaultKind) -> usize {
        match kind {
            FaultKind::PcieReplay { .. } => 0,
            FaultKind::LinkFlap => 1,
            FaultKind::DescriptorStall => 2,
            FaultKind::IotlbStorm { .. } => 3,
            FaultKind::MemThrottle { .. } => 4,
            FaultKind::CorePreempt { .. } => 5,
        }
    }

    /// `(kind name, windows opened)` for every kind, in kind order.
    pub(crate) fn windows_by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Self::KIND_NAMES.into_iter().zip(self.windows_opened)
    }

    /// Total fault windows opened across all kinds.
    pub(crate) fn total_windows(&self) -> u64 {
        self.windows_opened.iter().sum()
    }
}

/// Runtime fault state: which windows are currently open, and the
/// aggregate datapath effects the testbed consults on its hot path. The
/// aggregates are recomputed only on window edges, so the per-packet cost
/// of a wired-but-empty fault layer is a couple of field reads.
#[derive(Debug, Clone)]
pub struct FaultState {
    specs: Vec<FaultSpec>,
    /// Open-window count per spec (a recurring spec's windows can overlap
    /// when `period < duration`).
    open: Vec<u32>,
    /// Lifetime counters.
    pub(crate) counters: FaultCounters,
}

hostcc_sim::snap_fields!(FaultState { open, counters } skip { specs }
    check { FaultState::check_restored });

impl FaultState {
    /// Runtime state for `plan`.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        FaultState {
            open: vec![0; plan.specs.len()],
            specs: plan.specs.clone(),
            counters: FaultCounters::default(),
        }
    }

    /// The spec behind index `idx`.
    pub(crate) fn spec(&self, idx: usize) -> &FaultSpec {
        &self.specs[idx]
    }

    /// Open a window of spec `idx`. Returns the kind for convenience.
    pub(crate) fn begin(&mut self, idx: usize) -> FaultKind {
        self.open[idx] += 1;
        let kind = self.specs[idx].kind;
        self.counters.windows_opened[FaultCounters::kind_index(&kind)] += 1;
        kind
    }

    /// Close a window of spec `idx`.
    pub(crate) fn end(&mut self, idx: usize) -> FaultKind {
        debug_assert!(self.open[idx] > 0, "fault window closed twice");
        self.open[idx] = self.open[idx].saturating_sub(1);
        self.specs[idx].kind
    }

    /// Is any window of spec `idx` currently open?
    pub(crate) fn is_open(&self, idx: usize) -> bool {
        self.open[idx] > 0
    }

    /// Total open windows across all specs.
    pub fn open_windows(&self) -> u32 {
        self.open.iter().sum()
    }

    /// Is the access link currently blacked out?
    pub(crate) fn link_down(&self) -> bool {
        self.any_open(|k| matches!(k, FaultKind::LinkFlap))
    }

    /// Are descriptor refills currently stalled?
    pub(crate) fn refill_stalled(&self) -> bool {
        self.any_open(|k| matches!(k, FaultKind::DescriptorStall))
    }

    /// Current PCIe NAK probability (max over open replay windows; 0 when
    /// none are open).
    pub(crate) fn nak_rate(&self) -> f64 {
        self.specs
            .iter()
            .zip(&self.open)
            .filter(|(_, &n)| n > 0)
            .filter_map(|(s, _)| match s.kind {
                FaultKind::PcieReplay { nak_rate } => Some(nak_rate),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Current memory-bandwidth multiplier (product over open throttle
    /// windows; exactly 1.0 when none are open).
    pub(crate) fn throttle_factor(&self) -> f64 {
        self.specs
            .iter()
            .zip(&self.open)
            .filter(|(_, &n)| n > 0)
            .filter_map(|(s, _)| match s.kind {
                FaultKind::MemThrottle { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    fn any_open(&self, pred: impl Fn(&FaultKind) -> bool) -> bool {
        self.specs
            .iter()
            .zip(&self.open)
            .any(|(s, &n)| n > 0 && pred(&s.kind))
    }

    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        if self.open.len() != self.specs.len() {
            return Err(hostcc_sim::SnapError::Corrupt("fault spec count mismatch"));
        }
        Ok(())
    }
}

/// Goodput accounting around fault windows: bytes delivered per unit time
/// before the first window opens, while any window is open, and after the
/// last window closes. "Recovered" means the post-fault delivery rate is
/// back within 10% of the pre-fault mean.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecoveryTracker {
    open_windows: u32,
    first_start_ns: Option<u64>,
    last_end_ns: Option<u64>,
    before: PhaseAccum,
    during: PhaseAccum,
    after: PhaseAccum,
    last_sample_ns: Option<u64>,
}

hostcc_sim::snap_fields!(RecoveryTracker {
    open_windows,
    first_start_ns,
    last_end_ns,
    before,
    during,
    after,
    last_sample_ns,
});

#[derive(Debug, Clone, Copy, Default)]
struct PhaseAccum {
    bytes: u64,
    ns: u64,
}

hostcc_sim::snap_fields!(PhaseAccum { bytes, ns });

impl PhaseAccum {
    fn rate(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.bytes as f64 / self.ns as f64
        }
    }
}

impl RecoveryTracker {
    /// Fresh tracker (call once per run, at metrics arm time).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A fault window opened at `now_ns`.
    pub(crate) fn on_window_start(&mut self, now_ns: u64) {
        self.open_windows += 1;
        if self.first_start_ns.is_none() {
            self.first_start_ns = Some(now_ns);
        }
    }

    /// A fault window closed at `now_ns`.
    pub(crate) fn on_window_end(&mut self, now_ns: u64) {
        self.open_windows = self.open_windows.saturating_sub(1);
        if self.open_windows == 0 {
            self.last_end_ns = Some(now_ns);
        }
    }

    /// Periodic goodput sample: `delivered_bytes_delta` bytes were
    /// delivered since the previous sample. Attributes the interval to the
    /// before/during/after phase by the tracker's current window state.
    pub(crate) fn sample(&mut self, now_ns: u64, delivered_bytes_delta: u64) {
        let prev = self.last_sample_ns.replace(now_ns);
        let Some(prev) = prev else { return };
        let dt = now_ns.saturating_sub(prev);
        if dt == 0 {
            return;
        }
        let phase = if self.open_windows > 0 {
            &mut self.during
        } else if self.first_start_ns.is_none() {
            &mut self.before
        } else {
            &mut self.after
        };
        phase.bytes += delivered_bytes_delta;
        phase.ns += dt;
    }

    /// Time from the last window closing until goodput was measured again,
    /// or 0 if no window ever closed.
    fn recovery_ns(&self) -> u64 {
        // The tracker samples at a fixed cadence, so the first post-fault
        // sample bounds recovery detection latency; report the span from
        // window close to the end of the sampled "after" phase as the
        // recovery observation window.
        match self.last_end_ns {
            Some(_) => self.after.ns,
            None => 0,
        }
    }

    /// Summarise for [`FaultSummary`]. `counters` supplies the per-kind
    /// injection counts.
    pub(crate) fn summarize(&self, counters: &FaultCounters) -> FaultSummary {
        let before = self.before.rate();
        let after = self.after.rate();
        FaultSummary {
            windows_injected: counters.total_windows(),
            link_dropped_packets: counters.link_dropped_packets,
            deferred_refills: counters.deferred_refills,
            iotlb_flushes: counters.iotlb_flushes,
            preempt_ns: counters.preempt_ns,
            goodput_before_bps: before * 8e9,
            goodput_during_bps: self.during.rate() * 8e9,
            goodput_after_bps: after * 8e9,
            recovery_observation_ns: self.recovery_ns(),
            recovered: self.after.ns > 0 && before > 0.0 && after >= 0.9 * before,
        }
    }
}

/// What a fault run did to goodput, reported in `RunMetrics` (only when a
/// plan was actually present — zero-fault runs carry no summary so their
/// metrics stay byte-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSummary {
    /// Fault windows opened during the run.
    pub windows_injected: u64,
    /// Packets lost to link-flap blackouts.
    pub link_dropped_packets: u64,
    /// Descriptor refills deferred by stall windows.
    pub deferred_refills: u64,
    /// Full IOTLB flushes issued by invalidation storms.
    pub iotlb_flushes: u64,
    /// Receiver-core time stolen by preemption, ns.
    pub preempt_ns: u64,
    /// Mean delivered goodput before the first fault window, bits/sec.
    pub goodput_before_bps: f64,
    /// Mean delivered goodput while any window was open, bits/sec.
    pub goodput_during_bps: f64,
    /// Mean delivered goodput after the last window closed, bits/sec.
    pub goodput_after_bps: f64,
    /// Length of the sampled post-fault observation window, ns.
    pub(crate) recovery_observation_ns: u64,
    /// Post-fault goodput back within 10% of the pre-fault mean.
    pub recovered: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn plan_builders_compose() {
        let plan = FaultPlan::new()
            .one_shot(FaultKind::LinkFlap, ms(1), ms(2))
            .recurring(
                FaultKind::PcieReplay { nak_rate: 0.25 },
                ms(5),
                ms(1),
                ms(3),
                4,
            );
        assert!(!plan.is_empty());
        assert_eq!(plan.window_count(), 5);
        let occ: Vec<u64> = plan.specs[1].occurrences().map(|d| d.as_nanos()).collect();
        assert_eq!(
            occ,
            vec![5_000_000, 8_000_000, 11_000_000, 14_000_000],
            "recurring occurrences are start + k*period"
        );
    }

    #[test]
    fn empty_plan_has_identity_aggregates() {
        let state = FaultState::new(&FaultPlan::new());
        assert!(!state.link_down());
        assert!(!state.refill_stalled());
        assert_eq!(state.nak_rate(), 0.0);
        assert_eq!(state.throttle_factor(), 1.0, "no-throttle must be exact");
        assert_eq!(state.counters.total_windows(), 0);
    }

    #[test]
    fn window_edges_toggle_aggregates() {
        let plan = FaultPlan::new()
            .one_shot(FaultKind::LinkFlap, ms(1), ms(1))
            .one_shot(FaultKind::MemThrottle { factor: 0.5 }, ms(1), ms(1))
            .one_shot(FaultKind::PcieReplay { nak_rate: 0.3 }, ms(1), ms(1));
        let mut state = FaultState::new(&plan);
        assert!(!state.link_down());
        state.begin(0);
        state.begin(1);
        state.begin(2);
        assert!(state.link_down());
        assert_eq!(state.throttle_factor(), 0.5);
        assert_eq!(state.nak_rate(), 0.3);
        state.end(0);
        state.end(1);
        state.end(2);
        assert!(!state.link_down());
        assert_eq!(state.throttle_factor(), 1.0);
        assert_eq!(state.nak_rate(), 0.0);
        assert_eq!(state.counters.total_windows(), 3);
    }

    #[test]
    fn overlapping_windows_of_one_spec_refcount() {
        let plan = FaultPlan::new().recurring(FaultKind::DescriptorStall, ms(0), ms(3), ms(1), 2);
        let mut state = FaultState::new(&plan);
        state.begin(0);
        state.begin(0);
        state.end(0);
        assert!(
            state.refill_stalled(),
            "still one window open after the first closes"
        );
        state.end(0);
        assert!(!state.refill_stalled());
    }

    #[test]
    fn counters_export_stable_names() {
        let mut c = FaultCounters::default();
        c.windows_opened[1] = 2;
        let by_kind: Vec<_> = c.windows_by_kind().collect();
        assert_eq!(
            by_kind,
            [
                ("pcie_replay", 0),
                ("link_flap", 2),
                ("descriptor_stall", 0),
                ("iotlb_storm", 0),
                ("mem_throttle", 0),
                ("core_preempt", 0),
            ]
        );
        assert_eq!(
            FaultKind::MemThrottle { factor: 0.5 }.name(),
            "mem_throttle"
        );
    }

    #[test]
    fn recovery_tracker_detects_recovery() {
        let mut t = RecoveryTracker::new();
        // 1 byte/ns before the fault.
        t.sample(0, 0);
        t.sample(100, 100);
        t.sample(200, 100);
        t.on_window_start(200);
        t.sample(300, 10); // degraded during
        t.on_window_end(300);
        t.sample(400, 95); // back to 0.95 byte/ns
        t.sample(500, 95);
        let s = t.summarize(&FaultCounters::default());
        assert!(s.goodput_before_bps > s.goodput_during_bps);
        assert!(s.recovered, "0.95 >= 0.9 * 1.0");
        assert_eq!(s.recovery_observation_ns, 200);
    }

    #[test]
    fn recovery_tracker_flags_failure() {
        let mut t = RecoveryTracker::new();
        t.sample(0, 0);
        t.sample(100, 100);
        t.on_window_start(100);
        t.sample(200, 10);
        t.on_window_end(200);
        t.sample(300, 50); // only half the pre-fault rate
        let s = t.summarize(&FaultCounters::default());
        assert!(!s.recovered);
    }
}

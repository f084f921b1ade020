//! Fault path stage: how open fault windows act on the datapath. The
//! public [`FaultState`] tracks which windows are open and counts what
//! they did; this stage holds the hot-path aggregates cached from them,
//! the NAK draws and PCIe replay channel, deferred refills, the throttle
//! input and the recovery goodput tracker.

use super::dma_path::DmaPath;
use super::receiver::Receiver;
use crate::config::TestbedConfig;
use crate::faults::{FaultState, FaultSummary, RecoveryTracker};
use crate::nic::Nic;
use crate::replay::{ReplayChannel, ReplayConfig};
use hostcc_sim::{stream_seed, SimRng, SimTime, SnapError};

/// The fault path.
pub(crate) struct FaultPath {
    /// Dedicated RNG stream for fault coin flips (NAK draws). Kept apart
    /// from the workload RNG so wiring the fault layer never perturbs a
    /// zero-fault run's draws.
    rng: SimRng,
    /// PCIe DLLP ACK/NAK replay state (exercised only during replay
    /// windows; an idle channel costs one branch per DMA).
    replay: ReplayChannel,
    /// Goodput before/during/after fault windows.
    recovery: RecoveryTracker,
    /// Cached aggregates, refreshed on window edges (hot-path reads).
    link_down: bool,
    nak_rate: f64,
    refill_stalled: bool,
    throttle: f64,
    /// Refills deferred per thread while a descriptor stall is open.
    pending_refills: Vec<u32>,
    /// Last NIC memory-bandwidth grant computed by the mem tick (so a
    /// throttle edge can re-rate the pipe immediately, between ticks).
    last_nic_avail: f64,
    /// Delivered-byte watermark for recovery goodput sampling.
    last_delivered_bytes: u64,
    /// Diagnostic counterfactual switch (campaign bisect): when set, fault
    /// windows that have not yet opened are skipped, so a replay from a
    /// checkpoint shows what the run would have done without the fault.
    suppressed: bool,
}

// The cached aggregates are saved rather than re-derived: re-deriving
// re-rates the memory pipe, which would perturb the restored busy
// horizon. `suppressed` is a transient diagnostic switch: a checkpoint
// taken after suppression restores with faults active again.
hostcc_sim::snap_fields!(FaultPath {
    rng, replay, recovery, link_down, nak_rate, refill_stalled, throttle, pending_refills,
    last_nic_avail, last_delivered_bytes,
} skip { suppressed } check { FaultPath::check_restored });

impl FaultPath {
    pub(crate) fn new(cfg: &TestbedConfig) -> FaultPath {
        FaultPath {
            rng: SimRng::new(stream_seed(cfg.seed ^ cfg.faults.seed, 0xFA017)),
            replay: ReplayChannel::new(ReplayConfig::default()),
            recovery: RecoveryTracker::new(),
            link_down: false,
            nak_rate: 0.0,
            refill_stalled: false,
            throttle: 1.0,
            pending_refills: vec![0; cfg.receiver_threads as usize],
            last_nic_avail: cfg.memsys.achievable_bytes_per_sec(),
            last_delivered_bytes: 0,
            suppressed: false,
        }
    }

    fn check_restored(&mut self) -> Result<(), SnapError> {
        if !(0.0..=1.0).contains(&self.nak_rate) {
            return Err(SnapError::Corrupt("nak rate out of range"));
        }
        if !self.throttle.is_finite() || self.throttle < 0.0 {
            return Err(SnapError::Corrupt("invalid throttle factor"));
        }
        if !self.last_nic_avail.is_finite() || self.last_nic_avail < 0.0 {
            return Err(SnapError::Corrupt("invalid nic bandwidth"));
        }
        Ok(())
    }

    /// Receiver threads tracked (restore cross-check).
    pub(crate) fn threads(&self) -> usize {
        self.pending_refills.len()
    }

    pub(crate) fn suppress(&mut self) {
        self.suppressed = true;
    }

    pub(crate) fn suppressed(&self) -> bool {
        self.suppressed
    }

    // ---- window edges ----

    /// Begin measuring recovery at `now`. Windows already open carry
    /// over (their closing edges must still balance the tracker).
    pub(crate) fn arm(&mut self, now: SimTime, faults: &FaultState) {
        self.recovery = RecoveryTracker::new();
        for _ in 0..faults.open_windows() {
            self.recovery.on_window_start(now.as_nanos());
        }
        self.last_delivered_bytes = 0;
    }

    /// A window opened (or closed) at `now`: mark the recovery phase and
    /// recompute the cached hot-path aggregates.
    pub(crate) fn edge(
        &mut self,
        now: SimTime,
        open: bool,
        faults: &FaultState,
        path: &mut DmaPath,
    ) {
        if open {
            self.recovery.on_window_start(now.as_nanos());
        } else {
            self.recovery.on_window_end(now.as_nanos());
        }
        self.link_down = faults.link_down();
        self.nak_rate = faults.nak_rate();
        self.refill_stalled = faults.refill_stalled();
        let throttle = faults.throttle_factor();
        if throttle != self.throttle {
            // Re-rate the memory stage immediately rather than waiting for
            // the next mem tick; the tick will keep it fresh afterwards.
            self.throttle = throttle;
            path.set_memory_rate(now, (self.last_nic_avail * throttle).max(1.0));
        }
    }

    // ---- datapath ----

    /// Whether a link-flap blackout is losing packets on the wire.
    pub(crate) fn link_down(&self) -> bool {
        self.link_down
    }

    /// Replay delay for one TLP, ns: during a PCIe link-layer error
    /// window the DLLP layer NAKs it with probability `nak_rate` and the
    /// write replays after a backed-off replay timer.
    pub(crate) fn nak_delay(&mut self) -> u64 {
        if self.nak_rate > 0.0 {
            if self.rng.next_f64() < self.nak_rate {
                return self.replay.nak();
            }
            self.replay.ack();
        }
        0
    }

    /// Whether an open descriptor stall defers refills.
    pub(crate) fn refill_stalled(&self) -> bool {
        self.refill_stalled
    }

    /// Owe `thread` a descriptor refill if a descriptor stall is open;
    /// `true` when the refill is deferred.
    pub(crate) fn defer_refill(&mut self, thread: usize, faults: &mut FaultState) -> bool {
        if self.refill_stalled {
            self.pending_refills[thread] += 1;
            faults.counters.deferred_refills += 1;
        }
        self.refill_stalled
    }

    /// Post every refill deferred during a descriptor-stall window;
    /// `true` if any buffer was posted.
    pub(crate) fn drain_deferred_refills(
        &mut self,
        receiver: &mut Receiver,
        nic: &mut Nic,
    ) -> bool {
        let mut posted = false;
        for (t, pending) in self.pending_refills.iter_mut().enumerate() {
            while *pending > 0 && receiver.refill(t, nic) {
                *pending -= 1;
                posted = true;
            }
            // Whatever could not be posted (ring full / pool drained) is
            // owed nothing further: the normal per-packet refill path
            // keeps the ring fed from here on.
            *pending = 0;
        }
        posted
    }

    /// The NIC's memory-bus grant under an open throttle window, given
    /// what the bus leaves it. The guard keeps the zero-fault path free
    /// of any f64 op, so its grants stay bit-identical to a build without
    /// the fault layer.
    pub(crate) fn grant(&mut self, nic_avail: f64) -> f64 {
        self.last_nic_avail = nic_avail;
        if self.throttle == 1.0 {
            nic_avail
        } else {
            nic_avail * self.throttle
        }
    }

    // ---- observation ----

    /// Attribute the goodput delivered since the last sample to the
    /// before / during / after phase.
    pub(crate) fn sample_recovery(&mut self, now: SimTime, delivered_bytes: u64) {
        let delta = delivered_bytes - self.last_delivered_bytes;
        self.last_delivered_bytes = delivered_bytes;
        self.recovery.sample(now.as_nanos(), delta);
    }

    pub(crate) fn summary(&self, faults: &FaultState) -> FaultSummary {
        self.recovery.summarize(&faults.counters)
    }

    pub(crate) fn replay(&self) -> &ReplayChannel {
        &self.replay
    }
}

//! Memory-demand window stage: the DMA traffic measured between memory
//! ticks, the smoothed NIC and application demands the memory controller
//! is told at each tick, and the DDIO leak — the fraction of DMA writes
//! that reach DRAM rather than coalescing in the LLC slice (paper §3.2).

use crate::config::TestbedConfig;
use hostcc_sim::{Ewma, SimTime, SnapError};

/// The memory-demand window.
pub(crate) struct DemandWindow {
    /// Payload bytes DMA-ed since the last tick.
    window_payload: u64,
    /// Page-walk memory accesses since the last tick.
    window_walks: u64,
    last_tick: SimTime,
    nic_demand: Ewma,
    app_demand: Ewma,
    /// Fraction of DMA writes currently reaching DRAM, refreshed every
    /// tick.
    ddio_leak: f64,
}

hostcc_sim::snap_fields!(DemandWindow {
    window_payload, window_walks, last_tick, nic_demand, app_demand, ddio_leak,
} check { DemandWindow::check_restored });

impl DemandWindow {
    pub(crate) fn new() -> DemandWindow {
        DemandWindow {
            window_payload: 0,
            window_walks: 0,
            last_tick: SimTime::ZERO,
            nic_demand: Ewma::new(0.3),
            app_demand: Ewma::new(0.3),
            ddio_leak: 1.0,
        }
    }

    fn check_restored(&mut self) -> Result<(), SnapError> {
        if !(0.0..=1.0).contains(&self.ddio_leak) {
            return Err(SnapError::Corrupt("ddio leak out of range"));
        }
        Ok(())
    }

    pub(crate) fn add_payload(&mut self, bytes: u64) {
        self.window_payload += bytes;
    }

    pub(crate) fn add_walks(&mut self, accesses: u64) {
        self.window_walks += accesses;
    }

    pub(crate) fn ddio_leak(&self) -> f64 {
        self.ddio_leak
    }

    /// Smoothed measured NIC memory traffic, bytes/sec.
    pub(crate) fn nic_demand(&self) -> f64 {
        self.nic_demand.get()
    }

    /// Seconds the window has been open at `now`.
    pub(crate) fn elapsed(&self, now: SimTime) -> f64 {
        now.saturating_since(self.last_tick).as_secs_f64()
    }

    /// Fold the window's `dt` seconds of traffic into the smoothed
    /// demands and refresh the DDIO leak for a buffer working set of
    /// `hot_ws` bytes. Returns the `(nic, app)` demands to register with
    /// the memory controller, bytes/sec.
    ///
    /// Measured NIC traffic is payload writes plus page-walk reads (64 B
    /// lines). The NIC demand registered is anchored at its line-rate
    /// potential: a hardware DMA engine keeps issuing at its
    /// credit-limited pace regardless of recent goodput, and anchoring
    /// prevents a measured-demand death spiral (delivered rate dips ->
    /// controller hands the antagonist more -> rate dips further). The
    /// fraction of DMA writes (and of the application's copy reads) that
    /// reaches DRAM depends on whether the working set fits the LLC slice.
    pub(crate) fn measure(&mut self, dt: f64, hot_ws: u64, cfg: &TestbedConfig) -> (f64, f64) {
        let ddio_write = cfg.ddio.write_traffic_factor(hot_ws);
        self.ddio_leak = cfg.ddio.leak_fraction(hot_ws);
        let payload = self.window_payload as f64;
        let nic_rate = (payload * ddio_write + self.window_walks as f64 * 64.0) / dt;
        let app_rate = payload * cfg.app_copy_read_fraction * self.ddio_leak / dt;
        self.nic_demand.record(nic_rate);
        self.app_demand.record(app_rate);
        let nic_potential = (cfg.access_link_bps / 8.0).max(self.nic_demand.get());
        (nic_potential, self.app_demand.get())
    }

    /// Open a fresh window at `now`.
    pub(crate) fn restart(&mut self, now: SimTime) {
        self.window_payload = 0;
        self.window_walks = 0;
        self.last_tick = now;
    }
}

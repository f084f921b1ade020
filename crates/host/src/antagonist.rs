//! A STREAM-like memory-bandwidth antagonist.
//!
//! §3.2 antagonises the memory bus with one STREAM instance per physical
//! core, up to 15 cores; the paper reports ~90 GB/s of achievable STREAM
//! bandwidth per NUMA node (65 GB/s reads + 25 GB/s writes). We model the
//! antagonist as a CPU-class agent whose *offered* demand grows with core
//! count; the *achieved* bandwidth is whatever the memory controller
//! allocates, so the sublinear per-core scaling the paper observes from ~6
//! cores emerges from the capacity clamp rather than being baked in.

use crate::controller::{AgentClass, AgentId, MemorySystem};

/// Antagonist configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Offered demand per core, bytes/sec. A single Skylake core running
    /// STREAM sustains ~10 GB/s of combined read+write traffic.
    pub per_core_bytes_per_sec: f64,
    /// Fraction of the antagonist's traffic that is reads (~65/90).
    pub read_fraction: f64,
    /// Fraction of the antagonist's traffic that lands on the NIC-local
    /// NUMA node's memory controller. 1.0 = the paper's setup (antagonist
    /// pinned to the NIC's node). §4 proposes "scheduling applications on
    /// NUMA nodes different from the one where the NIC is connected": a
    /// remote placement leaves only cross-socket spill (snoops, shared
    /// pages) on the local node.
    pub local_fraction: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            per_core_bytes_per_sec: 10e9,
            read_fraction: 65.0 / 90.0,
            local_fraction: 1.0,
        }
    }
}

/// The antagonist: a bundle of STREAM cores registered as one CPU agent.
#[derive(Debug)]
pub(crate) struct StreamAntagonist {
    config: StreamConfig,
    agent: AgentId,
    cores: u32,
}

hostcc_sim::snap_fields!(StreamAntagonist { cores } skip { config, agent });

impl StreamAntagonist {
    /// Register the antagonist with the memory system (initially 0 cores).
    pub(crate) fn new(mem: &mut MemorySystem, config: StreamConfig) -> Self {
        let agent = mem.register_agent(AgentClass::Cpu);
        StreamAntagonist {
            config,
            agent,
            cores: 0,
        }
    }

    /// Set the number of antagonist cores and publish the new demand.
    pub(crate) fn set_cores(&mut self, mem: &mut MemorySystem, cores: u32) {
        self.cores = cores;
        mem.set_demand(self.agent, self.offered_demand());
    }

    /// Offered (not necessarily achieved) demand on the NIC-local NUMA
    /// node, bytes/sec.
    pub(crate) fn offered_demand(&self) -> f64 {
        self.cores as f64
            * self.config.per_core_bytes_per_sec
            * self.config.local_fraction.clamp(0.0, 1.0)
    }

    /// Achieved bandwidth under the current allocation, bytes/sec.
    pub(crate) fn achieved(&self, mem: &mut MemorySystem) -> f64 {
        mem.allocation(self.agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys_config::MemSysConfig;

    #[test]
    fn zero_cores_zero_demand() {
        let mut mem = MemorySystem::new(MemSysConfig::default());
        let s = StreamAntagonist::new(&mut mem, StreamConfig::default());
        assert_eq!(s.offered_demand(), 0.0);
        assert_eq!(s.achieved(&mut mem), 0.0);
    }

    #[test]
    fn few_cores_scale_linearly() {
        let mut mem = MemorySystem::new(MemSysConfig::default());
        let mut s = StreamAntagonist::new(&mut mem, StreamConfig::default());
        s.set_cores(&mut mem, 2);
        let two = s.achieved(&mut mem);
        s.set_cores(&mut mem, 4);
        let four = s.achieved(&mut mem);
        assert!((four / two - 2.0).abs() < 1e-6, "below capacity: linear");
    }

    #[test]
    fn many_cores_saturate_at_achievable_bandwidth() {
        let mut mem = MemorySystem::new(MemSysConfig::default());
        let mut s = StreamAntagonist::new(&mut mem, StreamConfig::default());
        s.set_cores(&mut mem, 15);
        let achieved = s.achieved(&mut mem);
        let cap = mem.config().achievable_bytes_per_sec();
        assert!(achieved <= cap * (1.0 + 1e-9));
        assert!(
            achieved > 0.95 * cap,
            "15 cores should saturate: {achieved} of {cap}"
        );
        // Per-core achieved bandwidth is now well below the solo figure.
        let per_core = achieved / 15.0;
        assert!(per_core < 10e9 * 0.75);
    }

    #[test]
    fn remote_numa_placement_spares_the_local_node() {
        let mut mem = MemorySystem::new(MemSysConfig::default());
        let mut local = StreamAntagonist::new(&mut mem, StreamConfig::default());
        local.set_cores(&mut mem, 15);
        let local_demand = local.offered_demand();

        let mut mem2 = MemorySystem::new(MemSysConfig::default());
        let mut remote = StreamAntagonist::new(
            &mut mem2,
            StreamConfig {
                local_fraction: 0.15,
                ..StreamConfig::default()
            },
        );
        remote.set_cores(&mut mem2, 15);
        assert!(
            remote.offered_demand() < local_demand * 0.2,
            "remote placement leaves only spill traffic locally"
        );
        assert!(mem2.offered_utilization() < 0.5);
    }

    #[test]
    fn antagonist_inflates_nic_dma_latency() {
        // The Fig. 6 mechanism: the NIC's modest demand survives max-min
        // arbitration, but per-access latency explodes once the offered
        // load saturates the bus — and that latency is what throttles the
        // credit-limited DMA pipeline.
        let mut mem = MemorySystem::new(MemSysConfig::default());
        let nic = mem.register_agent(AgentClass::Io);
        mem.set_demand(nic, 15e9); // ~11.8 GB/s writes + 3.3 GB/s reads
        let mut s = StreamAntagonist::new(&mut mem, StreamConfig::default());

        s.set_cores(&mut mem, 4);
        let idle_latency = mem.access_latency_ns();
        let with_4 = mem.allocation(nic);
        assert!((with_4 - 15e9).abs() < 1e7, "plenty of headroom at 4 cores");

        s.set_cores(&mut mem, 15);
        // Max-min keeps the small NIC demand satisfied in *bandwidth*...
        let with_15 = mem.allocation(nic);
        assert!(with_15 > 14e9, "max-min floor protects the NIC: {with_15}");
        // ...but the offered load is now > capacity, so latency saturates.
        assert!(mem.offered_utilization() > 1.0);
        let loaded_latency = mem.access_latency_ns();
        assert!(
            loaded_latency > 4.0 * idle_latency,
            "latency must blow up: {idle_latency} -> {loaded_latency}"
        );
    }
}

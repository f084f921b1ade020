//! The memory controller: bandwidth arbitration and latency export.
//!
//! Components (the NIC's root-complex pipeline, receiver-thread copies, the
//! STREAM antagonist) register as *agents* and publish their offered demand
//! in bytes/sec. The controller resolves the allocation with weighted
//! max-min fairness — CPU agents carry a higher weight, reproducing §3.2's
//! observation that under contention "CPUs are able to acquire a larger
//! fraction of memory bus bandwidth than NIC" — and exports a
//! utilisation-dependent access latency that the DMA pipeline folds into
//! every PCIe write and page-table walk.

use crate::curve::LoadLatencyCurve;
use crate::memsys_config::MemSysConfig;

/// What kind of traffic an agent generates (determines arbitration weight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AgentClass {
    /// CPU-originated loads/stores (applications, copies, STREAM).
    Cpu,
    /// Device DMA through the root complex (the NIC).
    Io,
}

/// Handle to a registered agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AgentId(usize);

#[derive(Debug, Clone)]
struct Agent {
    class: AgentClass,
    demand: f64,
    allocation: f64,
}

// Class is configuration; allocations are re-derived from the restored
// demands on the next access.
hostcc_sim::snap_fields!(Agent { demand } skip { class, allocation });

/// The per-NUMA-node memory subsystem.
#[derive(Debug)]
pub(crate) struct MemorySystem {
    config: MemSysConfig,
    curve: LoadLatencyCurve,
    agents: Vec<Agent>,
    dirty: bool,
    /// Memoised `access_latency_ns` result. Demand only changes at memory
    /// ticks, but the latency is charged on every DMA in between — caching
    /// skips the sigmoid (`exp`) on the unchanged-demand fast path.
    latency_cache: Option<f64>,
    /// Bumped whenever an input of the latency model changes (agent set or
    /// any demand). Callers that derive values from `access_latency_ns`
    /// can cache them keyed on this epoch instead of re-deriving per DMA.
    epoch: u64,
}

hostcc_sim::snap_fields!(MemorySystem { agents, epoch } skip { config, curve, dirty, latency_cache }
    check { MemorySystem::check_restored });

impl MemorySystem {
    /// Build from a configuration.
    pub(crate) fn new(config: MemSysConfig) -> Self {
        let curve = LoadLatencyCurve {
            base_ns: config.base_latency_ns,
            center: config.latency_ramp_center,
            width: config.latency_ramp_width,
            max_factor: config.max_latency_factor,
        };
        MemorySystem {
            config,
            curve,
            agents: Vec::new(),
            dirty: false,
            latency_cache: None,
            epoch: 0,
        }
    }

    /// The active configuration.
    pub(crate) fn config(&self) -> &MemSysConfig {
        &self.config
    }

    /// Register a traffic source. Demand starts at zero.
    pub(crate) fn register_agent(&mut self, class: AgentClass) -> AgentId {
        self.agents.push(Agent {
            class,
            demand: 0.0,
            allocation: 0.0,
        });
        self.dirty = true;
        self.latency_cache = None;
        self.epoch += 1;
        AgentId(self.agents.len() - 1)
    }

    /// Publish an agent's offered demand in bytes/sec.
    pub(crate) fn set_demand(&mut self, id: AgentId, bytes_per_sec: f64) {
        debug_assert!(bytes_per_sec >= 0.0, "negative demand");
        let a = &mut self.agents[id.0];
        if (a.demand - bytes_per_sec).abs() > f64::EPSILON {
            a.demand = bytes_per_sec.max(0.0);
            self.dirty = true;
            self.latency_cache = None;
            self.epoch += 1;
        }
    }

    /// Monotone counter of latency-model input changes. Two calls to
    /// `access_latency_ns` bracketed by equal epochs return the same
    /// value, so derived quantities cached against this epoch stay valid.
    pub(crate) fn demand_epoch(&self) -> u64 {
        self.epoch
    }

    fn weight_of(&self, class: AgentClass) -> f64 {
        match class {
            AgentClass::Cpu => self.config.cpu_weight,
            AgentClass::Io => 1.0,
        }
    }

    /// Weighted max-min (water-filling) allocation of the achievable
    /// bandwidth across agents. Agents never receive more than they ask.
    fn recompute(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let capacity = self.config.achievable_bytes_per_sec();
        let total: f64 = self.agents.iter().map(|a| a.demand).sum();
        if total <= capacity {
            for a in &mut self.agents {
                a.allocation = a.demand;
            }
            return;
        }
        // Water-filling: grow the fair share until capacity is exhausted.
        let mut unsatisfied: Vec<usize> = (0..self.agents.len())
            .filter(|&i| self.agents[i].demand > 0.0)
            .collect();
        for a in &mut self.agents {
            a.allocation = 0.0;
        }
        let mut remaining = capacity;
        while !unsatisfied.is_empty() && remaining > 1.0 {
            let weight_sum: f64 = unsatisfied
                .iter()
                .map(|&i| self.weight_of(self.agents[i].class))
                .sum();
            // The smallest normalised headroom decides this round's level.
            let mut level = f64::INFINITY;
            for &i in &unsatisfied {
                let a = &self.agents[i];
                let w = self.weight_of(a.class);
                let headroom = (a.demand - a.allocation) / w;
                level = level.min(headroom);
            }
            let round_max = remaining / weight_sum;
            let level = level.min(round_max);
            for &i in &unsatisfied {
                let w = self.weight_of(self.agents[i].class);
                self.agents[i].allocation += level * w;
                remaining -= level * w;
            }
            // Retain agents still below their demand (with tolerance).
            unsatisfied.retain(|&i| {
                let a = &self.agents[i];
                a.allocation + 1.0 < a.demand
            });
            if level >= round_max {
                break; // capacity exhausted this round
            }
        }
    }

    /// Bandwidth granted to an agent, bytes/sec.
    pub(crate) fn allocation(&mut self, id: AgentId) -> f64 {
        self.recompute();
        self.agents[id.0].allocation
    }

    /// Total granted bandwidth across agents, bytes/sec.
    pub(crate) fn total_allocated(&mut self) -> f64 {
        self.recompute();
        self.agents.iter().map(|a| a.allocation).sum()
    }

    /// Bus utilisation ρ = allocated / achievable (never exceeds 1).
    pub(crate) fn utilization(&mut self) -> f64 {
        self.total_allocated() / self.config.achievable_bytes_per_sec()
    }

    /// Offered load relative to achievable capacity (may exceed 1 when the
    /// bus is oversubscribed). Queued-but-unserved demand still inflates
    /// access latency, so the latency curve is driven by this figure.
    pub(crate) fn offered_utilization(&self) -> f64 {
        let total: f64 = self.agents.iter().map(|a| a.demand).sum();
        total / self.config.achievable_bytes_per_sec()
    }

    /// Per-access latency (ns) at the current *offered* load. This is the
    /// figure charged to page-table walks and folded into the per-DMA
    /// service time; §3.2's load-latency mechanism.
    pub(crate) fn access_latency_ns(&mut self) -> f64 {
        if let Some(ns) = self.latency_cache {
            return ns;
        }
        let rho = self.offered_utilization();
        let ns = self.curve.latency_ns(rho);
        self.latency_cache = Some(ns);
        ns
    }

    /// Reject invalid restored demands and mark the derived allocation
    /// and latency state for recomputation.
    fn check_restored(&mut self) -> Result<(), hostcc_sim::SnapError> {
        for a in &mut self.agents {
            if !a.demand.is_finite() || a.demand < 0.0 {
                return Err(hostcc_sim::SnapError::Corrupt("invalid memory demand"));
            }
            a.allocation = 0.0;
        }
        self.dirty = true;
        self.latency_cache = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemSysConfig::default())
    }

    #[test]
    fn under_capacity_everyone_gets_their_demand() {
        let mut m = sys();
        let nic = m.register_agent(AgentClass::Io);
        let app = m.register_agent(AgentClass::Cpu);
        m.set_demand(nic, 15e9);
        m.set_demand(app, 20e9);
        assert!((m.allocation(nic) - 15e9).abs() < 1.0);
        assert!((m.allocation(app) - 20e9).abs() < 1.0);
        let rho = m.utilization();
        assert!((rho - 35e9 / m.config().achievable_bytes_per_sec()).abs() < 1e-9);
    }

    #[test]
    fn over_capacity_cpu_wins_share() {
        let mut m = sys();
        let nic = m.register_agent(AgentClass::Io);
        let cpu = m.register_agent(AgentClass::Cpu);
        // Both want the whole bus.
        let cap = m.config().achievable_bytes_per_sec();
        m.set_demand(nic, cap);
        m.set_demand(cpu, cap);
        let nic_alloc = m.allocation(nic);
        let cpu_alloc = m.allocation(cpu);
        // Weighted shares: CPU weight 2, NIC weight 1 -> 2:1 split.
        assert!(
            (cpu_alloc / nic_alloc - 2.0).abs() < 0.01,
            "cpu {cpu_alloc} nic {nic_alloc}"
        );
        assert!((nic_alloc + cpu_alloc - cap).abs() < cap * 1e-6);
    }

    #[test]
    fn small_demand_fully_satisfied_even_under_contention() {
        // Max-min property: an agent asking for little gets all of it.
        let mut m = sys();
        let small = m.register_agent(AgentClass::Io);
        let hog = m.register_agent(AgentClass::Cpu);
        let cap = m.config().achievable_bytes_per_sec();
        m.set_demand(small, 1e9);
        m.set_demand(hog, 10.0 * cap);
        assert!((m.allocation(small) - 1e9).abs() < 1e7);
        assert!((m.allocation(hog) - (cap - 1e9)).abs() < cap * 1e-3);
    }

    #[test]
    fn total_never_exceeds_capacity() {
        let mut m = sys();
        let ids: Vec<_> = (0..8)
            .map(|i| {
                m.register_agent(if i % 2 == 0 {
                    AgentClass::Cpu
                } else {
                    AgentClass::Io
                })
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            m.set_demand(*id, (i as f64 + 1.0) * 20e9);
        }
        let cap = m.config().achievable_bytes_per_sec();
        assert!(m.total_allocated() <= cap * (1.0 + 1e-9));
        assert!(m.utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn latency_rises_with_contention() {
        let mut m = sys();
        let nic = m.register_agent(AgentClass::Io);
        m.set_demand(nic, 10e9);
        let idle = m.access_latency_ns();
        let cpu = m.register_agent(AgentClass::Cpu);
        m.set_demand(cpu, 100e9);
        let loaded = m.access_latency_ns();
        assert!(
            loaded > idle * 2.0,
            "saturated latency {loaded} should dwarf idle {idle}"
        );
    }

    #[test]
    fn zero_demand_agents_get_zero() {
        let mut m = sys();
        let a = m.register_agent(AgentClass::Cpu);
        let b = m.register_agent(AgentClass::Io);
        m.set_demand(b, 5e9);
        assert_eq!(m.allocation(a), 0.0);
        assert!((m.allocation(b) - 5e9).abs() < 1.0);
    }

    #[test]
    fn demand_epoch_tracks_latency_inputs() {
        let mut m = sys();
        let e0 = m.demand_epoch();
        let a = m.register_agent(AgentClass::Cpu);
        assert!(m.demand_epoch() > e0, "registration changes the model");
        let e1 = m.demand_epoch();
        m.set_demand(a, 5e9);
        assert!(m.demand_epoch() > e1, "new demand changes the model");
        let e2 = m.demand_epoch();
        m.set_demand(a, 5e9);
        assert_eq!(m.demand_epoch(), e2, "unchanged demand keeps the epoch");
        let before = m.access_latency_ns();
        assert_eq!(m.demand_epoch(), e2, "reading latency keeps the epoch");
        assert_eq!(m.access_latency_ns(), before);
    }

    #[test]
    fn demand_update_recomputes() {
        let mut m = sys();
        let a = m.register_agent(AgentClass::Cpu);
        m.set_demand(a, 5e9);
        assert!((m.allocation(a) - 5e9).abs() < 1.0);
        m.set_demand(a, 7e9);
        assert!((m.allocation(a) - 7e9).abs() < 1.0);
    }
}

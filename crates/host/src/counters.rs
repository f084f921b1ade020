//! The names of every exported counter, one function per component.
//!
//! `Testbed::collect_counters` calls these; nothing else names a counter.
//! Each function publishes its component's counters straight from that
//! component's stats. Memory bandwidths are truncated to integer
//! bytes/sec; the registry holds `u64`s.

use crate::controller::MemorySystem;
use crate::credits::CreditState;
use crate::device::Iommu;
use crate::faults::FaultCounters;
use crate::flow::FlowStats;
use crate::nic::Nic;
use crate::replay::ReplayChannel;
use hostcc_trace::CounterRegistry;

pub(crate) fn export_nic(c: &mut CounterRegistry, nic: &Nic) {
    c.set("nic.delivered_packets", nic.stats.delivered_packets);
    c.set(
        "nic.delivered_payload_bytes",
        nic.stats.delivered_payload_bytes,
    );
    c.set("nic.drops.buffer_full", nic.stats.drops_buffer_full);
    c.set("nic.drops.no_descriptor", nic.stats.drops_no_descriptor);
    c.set("nic.descriptor_starvation", nic.descriptor_starvation());
    c.set("nic.buffer.peak_bytes", nic.input.peak_bytes());
    c.set("nic.buffer.occupancy_bytes", nic.input.occupancy_bytes());
    c.set("nic.buffer.enqueued", nic.input.enqueued());
}

pub(crate) fn export_credits(c: &mut CounterRegistry, credits: &CreditState) {
    let (header, data) = credits.available();
    c.set("pcie.credits.admissions", credits.admissions());
    c.set("pcie.credits.stalls", credits.stalls());
    c.set("pcie.credits.header_available", header as u64);
    c.set("pcie.credits.data_available", data as u64);
}

pub(crate) fn export_iommu(c: &mut CounterRegistry, iommu: &Iommu) {
    let (s, t) = (iommu.stats(), iommu.iotlb_stats());
    c.set("iommu.translations", s.translations);
    c.set("iommu.faults", s.faults);
    c.set("iommu.walk_memory_accesses", s.walk_memory_accesses);
    c.set("iommu.iotlb.lookups", t.lookups);
    c.set("iommu.iotlb.hits", t.hits);
    c.set("iommu.iotlb.misses", t.misses);
    c.set("iommu.iotlb.evictions", t.evictions);
    c.set("iommu.iotlb.invalidations", t.invalidations);
    c.set("iommu.mapped_pages", iommu.mapped_pages());
}

pub(crate) fn export_memsys(c: &mut CounterRegistry, mem: &MemorySystem) {
    let cap = mem.config().achievable_bytes_per_sec();
    let offered = mem.offered_utilization();
    c.set("memsys.achievable_bytes_per_sec", cap as u64);
    c.set("memsys.offered_bytes_per_sec", (offered * cap) as u64);
    c.set(
        "memsys.offered_utilization_per_mille",
        (offered * 1000.0) as u64,
    );
}

pub(crate) fn export_flows(c: &mut CounterRegistry, flows: &FlowStats) {
    c.set("transport.data_sent", flows.data_sent);
    c.set("transport.acked", flows.acked);
    c.set("transport.retransmits", flows.retransmits);
    c.set("transport.fast_retransmits", flows.fast_retransmits);
    c.set("transport.timeouts", flows.timeouts);
}

/// The `faults.*` and `pcie.replay.*` families. Only called when a fault
/// plan is present, so a zero-fault run's export stays byte-identical to
/// a build without the fault layer.
pub(crate) fn export_faults(c: &mut CounterRegistry, f: &FaultCounters, replay: &ReplayChannel) {
    for (kind, n) in f.windows_by_kind() {
        c.set(&format!("faults.injected.{kind}"), n);
    }
    c.set("faults.link.dropped_packets", f.link_dropped_packets);
    c.set("faults.desc.deferred_refills", f.deferred_refills);
    c.set("faults.iotlb.flushes", f.iotlb_flushes);
    c.set("faults.cpu.preempt_ns", f.preempt_ns);
    c.set("faults.mem.throttle_windows", f.throttle_windows);
    c.set("pcie.replay.naks", replay.naks());
    c.set("pcie.replay.replays", replay.replays());
    c.set("pcie.replay.ns", replay.replay_ns());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::AgentClass;
    use crate::credits::CreditConfig;
    use crate::device::IommuConfig;
    use crate::memsys_config::MemSysConfig;
    use crate::nic::NicConfig;

    #[test]
    fn credit_state_exports_admissions_and_stalls() {
        let mut cs = CreditState::new(CreditConfig {
            posted_header: 2,
            posted_data: 8,
        });
        assert!(cs.try_admit(1, 4));
        assert!(
            !cs.try_admit(1, 8),
            "second write exceeds remaining data credits"
        );
        let mut reg = CounterRegistry::new();
        export_credits(&mut reg, &cs);
        assert_eq!(reg.lifetime("pcie.credits.admissions"), 1);
        assert_eq!(reg.lifetime("pcie.credits.stalls"), 1);
        assert_eq!(reg.lifetime("pcie.credits.header_available"), 1);
        assert_eq!(reg.lifetime("pcie.credits.data_available"), 4);
    }

    #[test]
    fn iommu_exports_translation_and_iotlb_counters() {
        let iommu = Iommu::new(IommuConfig::default());
        let mut reg = CounterRegistry::new();
        export_iommu(&mut reg, &iommu);
        assert_eq!(reg.lifetime("iommu.translations"), 0);
        assert_eq!(reg.lifetime("iommu.iotlb.misses"), 0);
        assert_eq!(reg.len(), 9);
    }

    #[test]
    fn memsys_exports_capacity_and_offered_load() {
        let mut m = MemorySystem::new(MemSysConfig::default());
        let id = m.register_agent(AgentClass::Io);
        m.set_demand(id, 10e9);
        let mut reg = CounterRegistry::new();
        export_memsys(&mut reg, &m);
        assert!(reg.lifetime("memsys.achievable_bytes_per_sec") > 0);
        assert_eq!(reg.lifetime("memsys.offered_bytes_per_sec"), 10_000_000_000);
    }

    #[test]
    fn nic_exports_delivery_and_drop_counters() {
        let nic = Nic::new(NicConfig::default());
        let mut reg = CounterRegistry::new();
        export_nic(&mut reg, &nic);
        assert_eq!(reg.lifetime("nic.delivered_packets"), 0);
        assert_eq!(reg.lifetime("nic.drops.buffer_full"), 0);
        assert_eq!(reg.len(), 8);
    }
}

//! Coupled multi-host fleets on the deterministic parallel engine.
//!
//! A [`Fleet`] is N [`Testbed`] hosts joined through inter-host fabric
//! links with a configurable minimum latency — the conservative parallel
//! engine's lookahead — so cross-host incast and fan-in workloads become
//! expressible. The [`FleetTopology`] decides who talks to whom:
//!
//! * **Fan-in ring** (`ring:K`) — host `b` receives a remote flow from
//!   each of its `K` upstream neighbours `(b+1) % N … (b+K) % N`, on top
//!   of its own local sender population. The original PR 8 topology.
//! * **Incast tree** (`tree:K`) — host `i > 0` sends to its parent
//!   `(i-1) / K`; interior hosts aggregate up to `K` children, the root
//!   aggregates the whole fleet's traffic.
//! * **Rack fabric** (`rack:K`) — hosts group into racks of `K`; rack
//!   members send to their rack head (a top-of-rack hop), and every rack
//!   head forwards to host 0 (the aggregation layer). `rack:1` is a pure
//!   N→1 incast star.
//!
//! Remote data serialises through the sender's access link, crosses the
//! fabric, and traverses the destination's *full* receive datapath
//! (incast switch → NIC buffer → PCIe/IOMMU DMA → receiver core →
//! fabric ACK), so the paper's host-congestion effects compose across
//! hosts. Remote flows that converge on one host contend in that host's
//! shared incast switch and NIC buffer — the shared-switch contention
//! link of the tree and rack fabrics. (Cross-host switch state would
//! break conservative parallelism; convergence points are where sharing
//! is observable, and that is exactly where the model places it.)
//!
//! Determinism: each host's RNG seed derives from the fleet seed through
//! [`stream_seed`] under `HOST_SEED_DOMAIN` — a pure function of
//! `(fleet_seed, host_id)`. Neither shard count nor host→shard placement
//! is an input anywhere in the build or wiring path, and the parallel
//! engine's epoch/merge rules are shard-count- and placement-invariant,
//! so `RunMetrics`, golden digests and telemetry streams are
//! bit-identical at any `--shards` value and under any placement —
//! including the measured-cost rebalanced one ([`Fleet::rebalance`]).
//! `tests/parallel.rs` pins both invariants.

use crate::experiment::RunPlan;
use hostcc_host::ConfigError;
use hostcc_host::{FleetHost, RunError, RunMetrics, Simulation, Testbed, TestbedConfig};
use hostcc_sim::{
    check_resave, fnv1a_64, stream_seed, ParallelEngine, SimDuration, SimTime, Snap, SnapError,
    SnapReader, SnapWriter, WorkerProfile,
};

/// Domain constant separating per-host seed derivation from every other
/// `stream_seed` consumer (per-thread recycling streams use the raw
/// config seed; fault RNGs use the `0xFA017` stream). XORed into the
/// fleet seed before the per-host stream split.
pub(crate) const HOST_SEED_DOMAIN: u64 = 0x48_4F_53_54_43_43_u64; // "HOSTCC"

/// Who sends to whom in a fleet. Every variant yields a deterministic
/// edge list (sender → receiver) in receiver-major order; receiver
/// threads are assigned round-robin per receiving host in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTopology {
    /// Host `b` receives from its `fanin` upstream ring neighbours
    /// `(b+1) % N … (b+fanin) % N`. `fanin: 0` = uncoupled hosts (no
    /// fabric traffic at all — the sparse extreme).
    FaninRing {
        /// Remote flows terminating at each host.
        fanin: u32,
    },
    /// Host `i > 0` sends to its parent `(i-1) / fanout`: interior
    /// hosts aggregate up to `fanout` children through their shared
    /// incast switch, the root aggregates the fleet.
    IncastTree {
        /// Maximum children per interior host.
        fanout: u32,
    },
    /// Racks of `hosts_per_rack`; members send to their rack head
    /// (hosts `0, K, 2K, …`), rack heads forward to host 0. With
    /// `hosts_per_rack: 1` every host is a head — an N→1 incast star.
    RackFabric {
        /// Hosts per rack, including the head.
        hosts_per_rack: u32,
    },
}

impl FleetTopology {
    /// Parse the CLI/manifest spelling: `ring:K`, `tree:K`, `rack:K`,
    /// or the bare names with their defaults (`ring` = ring:2, `tree` =
    /// tree:4, `rack` = rack:16).
    pub fn parse(s: &str) -> Result<FleetTopology, String> {
        let (kind, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        let parse_param = |default: u32| -> Result<u32, String> {
            match param {
                None => Ok(default),
                Some(p) => p
                    .parse::<u32>()
                    .map_err(|_| format!("invalid topology parameter '{p}' in '{s}'")),
            }
        };
        match kind {
            "ring" => Ok(FleetTopology::FaninRing {
                fanin: parse_param(2)?,
            }),
            "tree" => Ok(FleetTopology::IncastTree {
                fanout: parse_param(4)?,
            }),
            "rack" => Ok(FleetTopology::RackFabric {
                hosts_per_rack: parse_param(16)?,
            }),
            _ => Err(format!(
                "unknown topology '{s}' (expected ring:K, tree:K, or rack:K)"
            )),
        }
    }

    /// The cross-host edges `(sender, receiver)` for an `n`-host fleet,
    /// in receiver-major deterministic order. Wiring order is part of
    /// the topology (it fixes flow ids and thread assignment), never of
    /// the execution schedule.
    pub(crate) fn edges(&self, n: u32) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        match *self {
            FleetTopology::FaninRing { fanin } => {
                for b in 0..n {
                    for k in 1..=fanin {
                        edges.push(((b + k) % n, b));
                    }
                }
            }
            FleetTopology::IncastTree { fanout } => {
                let fanout = fanout.max(1) as u64;
                for b in 0..n as u64 {
                    let first = b * fanout + 1;
                    let last = (b + 1) * fanout;
                    for c in first..=last.min(n as u64 - 1) {
                        edges.push((c as u32, b as u32));
                    }
                }
            }
            FleetTopology::RackFabric { hosts_per_rack } => {
                let k = hosts_per_rack.max(1);
                for b in (0..n).step_by(k as usize) {
                    for c in (b + 1)..(b + k).min(n) {
                        edges.push((c, b));
                    }
                    if b == 0 {
                        let mut head = k;
                        while head < n {
                            edges.push((head, 0));
                            head += k;
                        }
                    }
                }
            }
        }
        edges
    }

    fn validate(&self, hosts: u32) -> Result<(), ConfigError> {
        match *self {
            FleetTopology::FaninRing { fanin } => {
                if fanin > 0 && hosts < 2 {
                    return Err(ConfigError::InvalidFleet {
                        reason: "fan-in needs at least 2 hosts",
                    });
                }
                if fanin >= hosts && fanin > 0 {
                    return Err(ConfigError::InvalidFleet {
                        reason: "fanin must be smaller than the host count",
                    });
                }
            }
            FleetTopology::IncastTree { fanout } => {
                if fanout == 0 {
                    return Err(ConfigError::InvalidFleet {
                        reason: "tree fanout must be at least 1",
                    });
                }
            }
            FleetTopology::RackFabric { hosts_per_rack } => {
                if hosts_per_rack == 0 {
                    return Err(ConfigError::InvalidFleet {
                        reason: "rack size must be at least 1",
                    });
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for FleetTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FleetTopology::FaninRing { fanin } => write!(f, "ring:{fanin}"),
            FleetTopology::IncastTree { fanout } => write!(f, "tree:{fanout}"),
            FleetTopology::RackFabric { hosts_per_rack } => write!(f, "rack:{hosts_per_rack}"),
        }
    }
}

/// A multi-host fleet description: topology + per-host template.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of hosts.
    pub hosts: u32,
    /// Fleet-level seed; per-host seeds derive from it via
    /// [`stream_seed`] under `HOST_SEED_DOMAIN`.
    pub seed: u64,
    /// Worker threads for the parallel engine (1 = serial execution of
    /// the identical epoch schedule). Validation bounds it by the host
    /// count — a shard with no hosts does no work.
    pub shards: u32,
    /// Minimum inter-host fabric latency — the engine's lookahead. Must
    /// be positive; larger values mean longer epochs (more parallelism)
    /// and slower cross-host control loops, exactly as in real fabrics.
    pub fabric_latency: SimDuration,
    /// Who sends to whom (see [`FleetTopology`]).
    pub topology: FleetTopology,
    /// Per-host configuration template. `seed` is overwritten per host;
    /// everything else (including telemetry and fault plans) applies to
    /// every host, modulated by `heterogeneous`.
    pub base: TestbedConfig,
    /// Vary host shapes around the template (receiver threads and
    /// antagonist load, in a fixed pattern keyed on host id) so the
    /// fleet reproduces the paper's Fig. 1 spread of host conditions.
    pub heterogeneous: bool,
}

impl FleetConfig {
    /// The default coupled-fleet scenario: 8 heterogeneous hosts in a
    /// fan-in-2 ring over a 8 µs fabric — every host both serves local
    /// senders and terminates two remote flows. This is the workload the
    /// differential suite and the `parallel_fleet` bench entries run.
    pub fn coupled_fleet() -> Self {
        FleetConfig {
            hosts: 8,
            seed: 0xF1EE7,
            shards: 1,
            fabric_latency: SimDuration::from_micros(8),
            topology: FleetTopology::FaninRing { fanin: 2 },
            base: TestbedConfig {
                senders: 12,
                receiver_threads: 8,
                ..TestbedConfig::default()
            },
            heterogeneous: true,
        }
    }

    /// A scale-out fleet of light-weight hosts (see
    /// [`TestbedConfig::light`]) in a fan-out-4 incast tree — the
    /// configuration the scaling bench and CI smoke push to 1k/10k
    /// hosts. Heterogeneity stays on: host shapes vary in a period-4
    /// pattern, which under round-robin placement at 4 shards aligns
    /// every heavy host onto the same worker — precisely the imbalance
    /// measured-cost rebalancing exists to fix.
    pub fn light_fleet(hosts: u32, shards: u32) -> Self {
        FleetConfig {
            hosts,
            seed: 0x11647,
            shards,
            fabric_latency: SimDuration::from_micros(8),
            topology: FleetTopology::IncastTree { fanout: 4 },
            base: TestbedConfig::light(1),
            heterogeneous: true,
        }
    }

    /// The configuration host `host` runs, with its derived seed.
    pub fn host_config(&self, host: u32) -> TestbedConfig {
        let mut cfg = self.base.clone();
        cfg.seed = stream_seed(self.seed ^ HOST_SEED_DOMAIN, host as u64);
        if self.heterogeneous {
            match host % 4 {
                1 => {
                    cfg.receiver_threads += 2;
                    cfg.antagonist_cores = 2;
                }
                2 => cfg.antagonist_cores = 4,
                3 => cfg.receiver_threads += 4,
                _ => {}
            }
        }
        cfg
    }

    /// Check the fleet-level knobs (hosts ≥ 1, 1 ≤ shards ≤ hosts,
    /// positive lookahead, topology constraints such as fanin < hosts),
    /// then every host configuration. Violations surface as the typed
    /// [`ConfigError::InvalidFleet`], which the CLI renders as
    /// `error: …` with exit 2.
    pub fn validate(&self) -> Result<(), RunError> {
        if self.hosts == 0 {
            return Err(ConfigError::InvalidFleet {
                reason: "hosts must be at least 1",
            }
            .into());
        }
        if self.shards == 0 {
            return Err(ConfigError::InvalidFleet {
                reason: "shards must be at least 1",
            }
            .into());
        }
        if self.shards > self.hosts {
            return Err(ConfigError::InvalidFleet {
                reason: "shards must not exceed the host count",
            }
            .into());
        }
        if self.fabric_latency.as_nanos() == 0 {
            return Err(ConfigError::InvalidFleet {
                reason: "fabric_latency must be positive (it is the lookahead)",
            }
            .into());
        }
        self.topology.validate(self.hosts)?;
        for h in 0..self.hosts {
            self.host_config(h).validate()?;
        }
        Ok(())
    }

    /// Identity hash over everything that determines the fleet's event
    /// evolution. The shard count is deliberately *excluded*: the engine
    /// is shard-count- and placement-invariant, so a checkpoint taken at
    /// `--shards 1` must restore at `--shards 4` (and vice versa)
    /// bit-identically.
    pub fn fingerprint(&self) -> u64 {
        let id = format!(
            "hosts={};seed={};fabric_latency_ns={};topology={};heterogeneous={};base={:?}",
            self.hosts,
            self.seed,
            self.fabric_latency.as_nanos(),
            self.topology,
            self.heterogeneous,
            self.base,
        );
        fnv1a_64(id.as_bytes())
    }
}

/// Build every host testbed and wire the cross-host flows, in
/// deterministic host-id order, without starting anything. `Fleet::new`
/// starts these; checkpoint restore instead overwrites their state.
fn build_wired_testbeds(cfg: &FleetConfig) -> Vec<Testbed> {
    let n = cfg.hosts;
    let mut testbeds: Vec<Testbed> = (0..n)
        .map(|h| {
            let mut tb = Testbed::new(cfg.host_config(h));
            tb.enable_fabric(h, cfg.fabric_latency);
            tb
        })
        .collect();
    // Topology wiring, edge by edge in the topology's deterministic
    // receiver-major order; each receiving host spreads its remote flows
    // round-robin over its receiver threads. The receiver half needs the
    // sender's return address up front, so the sender's upcoming flow
    // index is read before either side is allocated.
    let mut rx_count = vec![0u32; n as usize];
    for (a, b) in cfg.topology.edges(n) {
        let thread = rx_count[b as usize] % testbeds[b as usize].config().receiver_threads.max(1);
        rx_count[b as usize] += 1;
        let src_flow = testbeds[a as usize].next_remote_flow();
        let (_, dst_id, frontier) = testbeds[b as usize].add_remote_receiver(a, src_flow, thread);
        let got = testbeds[a as usize].add_remote_sender(b, dst_id, frontier);
        debug_assert_eq!(got, src_flow, "sender slot prediction out of sync");
    }
    testbeds
}

/// A built fleet, ready to run in epoch slices on the parallel engine.
pub struct Fleet {
    engine: ParallelEngine<FleetHost>,
    cfg: FleetConfig,
}

impl Fleet {
    /// Build every host, wire the cross-host flows (in deterministic
    /// host-id order — wiring is part of the topology, never of the
    /// execution schedule), and start the simulations.
    pub fn new(cfg: &FleetConfig) -> Result<Fleet, RunError> {
        cfg.validate()?;
        let hosts: Vec<FleetHost> = build_wired_testbeds(cfg)
            .into_iter()
            .map(|tb| FleetHost::new(Simulation::from_testbed(tb)))
            .collect();
        Ok(Fleet {
            engine: ParallelEngine::new(hosts, cfg.shards as usize, cfg.fabric_latency),
            cfg: cfg.clone(),
        })
    }

    /// Serialize the whole fleet — epoch counters plus every host's clock,
    /// pending events and world — into one self-validating envelope. Call only between
    /// `run_to` slices (a slot boundary: cross-host messages are drained
    /// into destination queues, so there is no engine message state to
    /// save). Refuses, typed, when any host's watchdog has tripped.
    ///
    /// Bit-exact resume requires the comparison run to share the same
    /// `run_to` slice schedule: every deadline clamps the epoch grid,
    /// which fixes how same-timestamp cross-host envelopes interleave
    /// with local events. The campaign runner therefore slices fleets at
    /// its checkpoint cadence whether or not a checkpoint is written.
    pub fn save_checkpoint(&self) -> Result<Vec<u8>, SnapError> {
        for h in self.engine.hosts() {
            if h.stalled_at().is_some() {
                return Err(SnapError::Unsupported("checkpoint of a stalled fleet"));
            }
            h.sim().ensure_checkpointable()?;
        }
        let mut w = SnapWriter::new();
        w.u64(self.cfg.fingerprint());
        self.engine.save(&mut w);
        Ok(w.into_envelope())
    }

    /// Rebuild a fleet from [`save_checkpoint`](Self::save_checkpoint)
    /// output and the identical configuration — except `shards`, which
    /// may differ freely (determinism is shard-count-invariant, so a
    /// resume may use more or fewer workers than the original run). Any
    /// corruption, truncation, version or config mismatch is a typed
    /// error, never a panic. Debug builds also re-save the restored fleet
    /// and require the identical image.
    pub fn restore_checkpoint(cfg: &FleetConfig, bytes: &[u8]) -> Result<Fleet, RunError> {
        cfg.validate()?;
        let mut r = SnapReader::open(bytes)?;
        if r.u64()? != cfg.fingerprint() {
            return Err(SnapError::Corrupt("fleet fingerprint mismatch").into());
        }
        let hosts = build_wired_testbeds(cfg)
            .into_iter()
            .map(|tb| FleetHost::new(Simulation::unstarted(tb)))
            .collect();
        let mut engine = ParallelEngine::new(hosts, cfg.shards as usize, cfg.fabric_latency);
        // Hosts are shape-fixed: an image with another host count fails.
        engine.load(&mut r)?;
        r.finish()?;
        let fleet = Fleet {
            engine,
            cfg: cfg.clone(),
        };
        check_resave(bytes, || fleet.save_checkpoint().unwrap_or_default())?;
        Ok(fleet)
    }

    /// Warm up, arm every host's metrics at the same instant, measure,
    /// and snapshot — the fleet analogue of `Simulation::try_run`. A
    /// tripped per-host watchdog surfaces as that host's
    /// [`RunError::Stalled`].
    pub fn run(&mut self, plan: RunPlan) -> Result<Vec<RunMetrics>, RunError> {
        let t0 = self.now();
        let t1 = t0 + plan.warmup;
        self.engine.run_to(t1);
        self.check_stalls()?;
        for h in self.engine.hosts_mut() {
            h.sim_mut().world_mut().arm_metrics(t1);
        }
        let t2 = t1 + plan.measure;
        self.engine.run_to(t2);
        self.check_stalls()?;
        Ok(self
            .engine
            .hosts_mut()
            .iter_mut()
            .map(|h| h.sim_mut().world_mut().snapshot(t2))
            .collect())
    }

    fn check_stalls(&self) -> Result<(), RunError> {
        let placement = self.engine.placement();
        for (i, h) in self.engine.hosts().iter().enumerate() {
            // Attribute the stall: which host froze, and its home shard
            // under the current placement.
            h.check_stalled().map_err(|e| match e {
                RunError::Stalled {
                    at,
                    pending,
                    telemetry,
                    ..
                } => RunError::Stalled {
                    at,
                    pending,
                    host: Some(i),
                    shard: Some(placement[i] as usize),
                    telemetry,
                },
                other => other,
            })?;
        }
        Ok(())
    }

    /// Current fleet time (all host clocks agree between `run_to` slices).
    pub fn now(&self) -> SimTime {
        self.engine
            .hosts()
            .first()
            .map(|h| h.sim().now())
            .unwrap_or(SimTime::ZERO)
    }

    /// The hosts, in fleet-id order.
    pub fn hosts(&self) -> &[FleetHost] {
        self.engine.hosts()
    }

    /// Mutable host access (telemetry sinks, per-host inspection).
    pub fn hosts_mut(&mut self) -> &mut [FleetHost] {
        self.engine.hosts_mut()
    }

    /// Advance the whole fleet to an absolute deadline without arming or
    /// snapshotting anything (bench slices).
    pub fn run_to(&mut self, deadline: SimTime) -> Result<(), RunError> {
        self.engine.run_to(deadline);
        self.check_stalls()
    }

    /// Events dispatched across all hosts over the fleet's lifetime.
    pub fn dispatched_total(&self) -> u64 {
        self.engine
            .hosts()
            .iter()
            .map(|h| h.sim().dispatched_total())
            .sum()
    }

    /// Lookahead-bounded epochs executed (shard-count invariant).
    pub fn epochs(&self) -> u64 {
        self.engine.epochs()
    }

    /// Epochs that batched more than one lookahead window — the barrier
    /// savings super-epoch amortization bought on sparse traffic.
    pub fn super_epochs(&self) -> u64 {
        self.engine.super_epochs()
    }

    /// Worker-thread count the engine runs on.
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// Install an explicit host→shard assignment (len == hosts, every
    /// entry < shards). Call between `run_to` slices. Panics on a
    /// malformed map — callers own validation; the differential tests
    /// use this to pin placement-invariance with adversarial layouts.
    pub fn set_placement(&mut self, placement: Vec<u32>) {
        self.engine.set_placement(placement);
    }

    /// Repartition hosts onto shards by measured per-host event cost
    /// (greedy bin-packing of lifetime dispatched counts). Call between
    /// `run_to` slices — typically after a warmup slice, or on restore
    /// from a checkpoint, when the counters reflect real load.
    /// Observationally a no-op: placement never feeds the simulation.
    /// Idle workers steal unstarted hosts anyway, so a balanced placement
    /// mostly saves steals; it sets each worker's affinity.
    pub fn rebalance(&mut self) -> &[u32] {
        self.engine.rebalance()
    }

    /// Lifetime dispatched events per home shard under the current
    /// placement (a stolen host's events count on its home shard).
    pub fn shard_event_totals(&self) -> Vec<u64> {
        self.engine.shard_event_totals()
    }

    /// Per-worker host wall time (advance-phase busy ns, barrier-wait
    /// ns) and hosts stolen from other workers' home lists, summed over
    /// the fleet's `run_to` slices. Host-side only: not in checkpoints,
    /// digests or metrics, and it varies run to run.
    pub fn worker_profile(&self) -> &[WorkerProfile] {
        self.engine.worker_profile()
    }

    /// Load-balance quality: max/min of per-shard lifetime event totals
    /// (1.0 = perfect). An empty shard counts as 1 event so the ratio
    /// stays finite — an all-but-empty shard reads as a huge ratio, not
    /// a crash.
    pub fn imbalance_ratio(&self) -> f64 {
        let totals = self.shard_event_totals();
        let max = totals.iter().copied().max().unwrap_or(1).max(1);
        let min = totals.iter().copied().min().unwrap_or(1).max(1);
        max as f64 / min as f64
    }

    /// Turn super-epoch batching off (or back on), for bench ablations.
    /// Only the epoch count can change: per-host digests and metrics are
    /// identical either way, because batching only extends epochs across
    /// windows no envelope can occupy. `tests/parallel.rs` pins both on a
    /// fleet with no fabric edges (identical digests, 2 epochs against
    /// more than 100), so comparisons against pinned epoch counts must
    /// hold the switch fixed.
    pub fn set_amortization(&mut self, on: bool) {
        self.engine.set_amortization(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(shards: u32) -> FleetConfig {
        FleetConfig {
            hosts: 4,
            shards,
            base: TestbedConfig {
                senders: 4,
                receiver_threads: 2,
                ..TestbedConfig::default()
            },
            ..FleetConfig::coupled_fleet()
        }
    }

    #[test]
    fn coupled_fleet_moves_cross_host_data() {
        let mut fleet = Fleet::new(&small_fleet(1)).expect("valid fleet");
        let per_host = fleet
            .run(RunPlan {
                warmup: SimDuration::from_millis(1),
                measure: SimDuration::from_millis(3),
            })
            .expect("fleet runs");
        assert_eq!(per_host.len(), 4);
        for (h, m) in per_host.iter().enumerate() {
            assert!(
                m.delivered_packets > 100,
                "host {h} delivered {}",
                m.delivered_packets
            );
        }
        assert!(fleet.epochs() > 0, "coupled hosts must exchange epochs");
    }

    #[test]
    fn fleet_is_deterministic_across_shard_counts() {
        let run = |shards: u32| {
            let mut fleet = Fleet::new(&small_fleet(shards)).expect("valid fleet");
            let m = fleet
                .run(RunPlan {
                    warmup: SimDuration::from_millis(1),
                    measure: SimDuration::from_millis(2),
                })
                .expect("fleet runs");
            let per_host: Vec<(u64, u64, u64)> = m
                .iter()
                .map(|m| {
                    (
                        m.delivered_packets,
                        m.delivered_payload_bytes,
                        m.host_drops(),
                    )
                })
                .collect();
            (per_host, fleet.epochs(), fleet.dispatched_total())
        };
        let reference = run(1);
        assert_eq!(run(2), reference, "2 shards");
        assert_eq!(run(3), reference, "3 shards");
    }

    #[test]
    fn fleet_validation_rejects_bad_topologies() {
        let err_of = |cfg: &FleetConfig| match Fleet::new(cfg) {
            Ok(_) => panic!("config must not validate: {cfg:?}"),
            Err(e) => e.to_string(),
        };
        let mut cfg = small_fleet(1);
        cfg.fabric_latency = SimDuration::ZERO;
        assert!(err_of(&cfg).contains("fabric_latency"));
        let mut cfg = small_fleet(1);
        cfg.topology = FleetTopology::FaninRing { fanin: 4 }; // == hosts
        assert!(err_of(&cfg).contains("fanin"));
        let mut cfg = small_fleet(1);
        cfg.hosts = 0;
        assert!(err_of(&cfg).contains("hosts"));
        let mut cfg = small_fleet(0);
        assert!(err_of(&cfg).contains("shards"), "shards = 0");
        cfg = small_fleet(5); // > hosts
        assert!(err_of(&cfg).contains("shards"), "shards > hosts");
        let mut cfg = small_fleet(1);
        cfg.topology = FleetTopology::IncastTree { fanout: 0 };
        assert!(err_of(&cfg).contains("fanout"));
        let mut cfg = small_fleet(1);
        cfg.topology = FleetTopology::RackFabric { hosts_per_rack: 0 };
        assert!(err_of(&cfg).contains("rack"));
    }

    #[test]
    fn topology_parse_roundtrips() {
        for s in ["ring:2", "tree:4", "rack:16", "ring:0", "tree:1"] {
            let t = FleetTopology::parse(s).expect(s);
            assert_eq!(t.to_string(), s);
        }
        // Bare names take the documented defaults.
        assert_eq!(
            FleetTopology::parse("ring").unwrap(),
            FleetTopology::FaninRing { fanin: 2 }
        );
        assert_eq!(
            FleetTopology::parse("tree").unwrap(),
            FleetTopology::IncastTree { fanout: 4 }
        );
        assert_eq!(
            FleetTopology::parse("rack").unwrap(),
            FleetTopology::RackFabric { hosts_per_rack: 16 }
        );
        assert!(FleetTopology::parse("mesh:3").is_err());
        assert!(FleetTopology::parse("tree:x").is_err());
    }

    #[test]
    fn topology_edges_have_the_documented_shapes() {
        // ring:2 over 4 hosts: each host receives from its next two.
        let ring = FleetTopology::FaninRing { fanin: 2 }.edges(4);
        assert_eq!(ring.len(), 8);
        assert_eq!(&ring[..2], &[(1, 0), (2, 0)]);
        // tree:2 over 7 hosts: a complete binary tree, child -> parent.
        let tree = FleetTopology::IncastTree { fanout: 2 }.edges(7);
        assert_eq!(tree, vec![(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)]);
        // rack:3 over 7 hosts: members -> head, heads -> host 0.
        let rack = FleetTopology::RackFabric { hosts_per_rack: 3 }.edges(7);
        // Heads are 0, 3, 6; head 6's rack has no members left.
        assert_eq!(rack, vec![(1, 0), (2, 0), (3, 0), (6, 0), (4, 3), (5, 3)]);
        // rack:1 degenerates to an incast star on host 0.
        let star = FleetTopology::RackFabric { hosts_per_rack: 1 }.edges(4);
        assert_eq!(star, vec![(1, 0), (2, 0), (3, 0)]);
        // A single host has no edges under any topology.
        for t in [
            FleetTopology::FaninRing { fanin: 0 },
            FleetTopology::IncastTree { fanout: 4 },
            FleetTopology::RackFabric { hosts_per_rack: 16 },
        ] {
            assert!(t.edges(1).is_empty(), "{t}");
        }
    }

    #[test]
    fn tree_and_rack_fleets_move_cross_host_data() {
        for topology in [
            FleetTopology::IncastTree { fanout: 2 },
            FleetTopology::RackFabric { hosts_per_rack: 2 },
        ] {
            let mut cfg = small_fleet(2);
            cfg.topology = topology;
            let mut fleet = Fleet::new(&cfg).expect("valid fleet");
            let per_host = fleet
                .run(RunPlan {
                    warmup: SimDuration::from_millis(1),
                    measure: SimDuration::from_millis(2),
                })
                .expect("fleet runs");
            // Host 0 is the aggregation point in both topologies; it
            // must have terminated remote traffic on top of local load.
            assert!(
                per_host[0].delivered_packets > 100,
                "{topology}: {}",
                per_host[0].delivered_packets
            );
        }
    }

    #[test]
    fn rebalance_preserves_results_and_covers_all_events() {
        let plan = RunPlan {
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(2),
        };
        let digest = |m: &[RunMetrics]| -> Vec<(u64, u64)> {
            m.iter()
                .map(|m| (m.delivered_packets, m.delivered_payload_bytes))
                .collect()
        };
        // Both runs share the slice schedule (probe, warmup end, measure
        // end): every `run_to` deadline clamps the epoch grid, so only
        // runs with identical slices are comparable bit-for-bit. The
        // probe slice gives rebalancing real dispatch counts to pack.
        let probe = SimTime::ZERO + SimDuration::from_micros(300);
        let t1 = SimTime::ZERO + plan.warmup;
        let t2 = t1 + plan.measure;
        let drive = |fleet: &mut Fleet, rebalance: bool| -> Vec<RunMetrics> {
            fleet.run_to(probe).expect("probe slice");
            if rebalance {
                let placement = fleet.rebalance().to_vec();
                assert_eq!(placement.len(), 4);
            }
            fleet.run_to(t1).expect("warmup");
            for h in fleet.hosts_mut() {
                h.sim_mut().world_mut().arm_metrics(t1);
            }
            fleet.run_to(t2).expect("measure");
            fleet
                .hosts_mut()
                .iter_mut()
                .map(|h| h.sim_mut().world_mut().snapshot(t2))
                .collect()
        };
        let mut reference = Fleet::new(&small_fleet(2)).expect("valid fleet");
        let ref_metrics = digest(&drive(&mut reference, false));
        let mut fleet = Fleet::new(&small_fleet(2)).expect("valid fleet");
        let rebalanced = digest(&drive(&mut fleet, true));
        // Moving hosts between shards mid-run changes nothing observable.
        assert_eq!(rebalanced, ref_metrics);
        assert_eq!(
            (fleet.epochs(), fleet.super_epochs()),
            (reference.epochs(), reference.super_epochs())
        );
        let totals = fleet.shard_event_totals();
        assert_eq!(totals.iter().sum::<u64>(), fleet.dispatched_total());
        assert!(fleet.imbalance_ratio() >= 1.0);
        // One self-profile per worker; steal counts depend on thread
        // timing, so only the shape and the presence of work are pinned.
        let profile = fleet.worker_profile();
        assert_eq!(profile.len(), 2);
        assert!(profile.iter().map(|p| p.busy_ns).sum::<u64>() > 0);
    }

    #[test]
    fn uncoupled_fleet_collapses_epochs_into_super_epochs() {
        let mut cfg = small_fleet(1);
        cfg.topology = FleetTopology::FaninRing { fanin: 0 };
        let mut amortized = Fleet::new(&cfg).expect("valid fleet");
        amortized
            .run_to(SimTime::ZERO + SimDuration::from_millis(1))
            .expect("runs");
        let mut classic = Fleet::new(&cfg).expect("valid fleet");
        classic.set_amortization(false);
        classic
            .run_to(SimTime::ZERO + SimDuration::from_millis(1))
            .expect("runs");
        // No envelopes exist, so outcomes agree while the barrier count
        // collapses: one super-epoch per slice instead of one epoch per
        // 8 µs lookahead window.
        assert_eq!(amortized.dispatched_total(), classic.dispatched_total());
        assert_eq!(amortized.epochs(), 1);
        assert_eq!(amortized.super_epochs(), 1);
        assert!(classic.epochs() > 50, "classic: {}", classic.epochs());
        assert_eq!(classic.super_epochs(), 0);
    }

    /// Checkpoint/restore at a `run_to` boundary is bit-exact: a run
    /// that saves and restores mid-warmup (even at a different shard
    /// count) matches a run driven through the *same slice schedule*
    /// without any checkpoint. The slice schedule matters: the epoch
    /// grid (`gmin + lookahead`, clamped at every `run_to` deadline)
    /// fixes how cross-host envelopes interleave with same-timestamp
    /// local events, so the reference must share the cadence — which is
    /// why the campaign runner always drives fleets at its checkpoint
    /// cadence whether or not a checkpoint is actually written.
    #[test]
    fn fleet_checkpoint_roundtrip_is_bit_identical() {
        let plan = RunPlan {
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(2),
        };
        let mid = SimTime::ZERO + SimDuration::from_micros(500);
        let t1 = SimTime::ZERO + plan.warmup;
        let t2 = t1 + plan.measure;
        let finish = |fleet: &mut Fleet| -> Vec<RunMetrics> {
            fleet.run_to(t1).expect("warmup");
            for h in fleet.hosts_mut() {
                h.sim_mut().world_mut().arm_metrics(t1);
            }
            fleet.run_to(t2).expect("measure");
            fleet
                .hosts_mut()
                .iter_mut()
                .map(|h| h.sim_mut().world_mut().snapshot(t2))
                .collect()
        };

        // Reference: same slice schedule, no checkpoint taken.
        let mut reference = Fleet::new(&small_fleet(1)).expect("valid fleet");
        reference.run_to(mid).expect("front half");
        let ref_metrics = finish(&mut reference);

        // Interrupted: checkpoint at `mid`, restore at a DIFFERENT shard
        // count, finish identically.
        let mut front = Fleet::new(&small_fleet(1)).expect("valid fleet");
        front.run_to(mid).expect("front half");
        let snap = front.save_checkpoint().expect("checkpoint");
        drop(front);
        let mut back = Fleet::restore_checkpoint(&small_fleet(4), &snap).expect("restore");
        assert_eq!(back.shards(), 4, "resume honours the new shard count");
        let resumed = finish(&mut back);

        assert_eq!(ref_metrics.len(), resumed.len());
        for (h, (a, b)) in ref_metrics.iter().zip(resumed.iter()).enumerate() {
            assert_eq!(
                a.delivered_packets, b.delivered_packets,
                "host {h} delivered_packets"
            );
            assert_eq!(
                a.delivered_payload_bytes, b.delivered_payload_bytes,
                "host {h} bytes"
            );
            assert_eq!(a.host_drops(), b.host_drops(), "host {h} drops");
            assert_eq!(a.retransmits, b.retransmits, "host {h} retransmits");
            assert_eq!(
                a.host_delay_p99_us().to_bits(),
                b.host_delay_p99_us().to_bits(),
                "host {h} p99"
            );
        }
    }

    #[test]
    fn fleet_checkpoint_rejects_mismatched_config() {
        let mut fleet = Fleet::new(&small_fleet(1)).expect("valid fleet");
        fleet
            .run_to(SimTime::ZERO + SimDuration::from_micros(200))
            .expect("runs");
        let snap = fleet.save_checkpoint().expect("checkpoint");

        // Different seed → fingerprint mismatch, typed error.
        let mut other = small_fleet(1);
        other.seed ^= 1;
        let err = match Fleet::restore_checkpoint(&other, &snap) {
            Ok(_) => panic!("mismatched seed must not restore"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("fingerprint"),
            "unexpected error: {err}"
        );

        // Different shard count alone is NOT a mismatch.
        assert!(Fleet::restore_checkpoint(&small_fleet(2), &snap).is_ok());

        // Corruption → typed error, never a panic.
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(Fleet::restore_checkpoint(&small_fleet(1), &bad).is_err());
        let truncated = &snap[..snap.len() - 9];
        assert!(Fleet::restore_checkpoint(&small_fleet(1), truncated).is_err());
    }

    #[test]
    fn shard_count_does_not_change_host_seeds() {
        // The per-host seed is a pure function of (fleet seed, host id):
        // shard count appears nowhere in the derivation.
        let a = small_fleet(1);
        let b = small_fleet(8);
        for h in 0..a.hosts {
            assert_eq!(a.host_config(h).seed, b.host_config(h).seed);
        }
    }
}

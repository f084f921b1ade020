//! The four workloads. Each round builds every simulation it will run,
//! cold and up front, then runs them serially through hostcc's public
//! API, timing each call.

use crate::check::{combine, digest, Checker};
use crate::spans::Spans;
use crate::stats::{derive_seed, rss_mib};
use hostcc::experiment::RunPlan;
use hostcc::fleet::{Fleet, FleetConfig};
use hostcc::substrate::sim::{DispatchProfile, RunOutcome, SimDuration, SimTime};
use hostcc::{
    metrics_json, scenarios, RunMetrics, Simulation, TelemetryConfig, TestbedConfig, TraceConfig,
};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper figure points at exact 1 ns time, telemetry off.
    PaperPoints,
    /// 400 G / Gen5 hosts at 64 ns coarse time with chain fusion.
    CoarseGen4,
    /// A light-host incast-tree fleet on two shards.
    FleetTree,
    /// The chaos scenarios with telemetry, checkpoints and tracing.
    ObservedChaos,
}

/// Hosts in the `fleet_tree` fleet.
pub const FLEET_HOSTS: u32 = 256;
/// Worker threads (shards) the fleet runs on.
pub const FLEET_SHARDS: u32 = 2;
/// The probe slice before rebalancing, as `hostcc fleet --rebalance` runs it.
const FLEET_PROBE: SimDuration = SimDuration::from_micros(300);
/// Simulated time between in-memory checkpoints in `observed_chaos`.
const CHECKPOINT_CADENCE: SimDuration = SimDuration::from_millis(2);

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperPoints,
        Workload::CoarseGen4,
        Workload::FleetTree,
        Workload::ObservedChaos,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPoints => "paper_points",
            Workload::CoarseGen4 => "coarse_gen4",
            Workload::FleetTree => "fleet_tree",
            Workload::ObservedChaos => "observed_chaos",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated warm-up and measurement of every point (for the fleet,
    /// after the probe slice).
    pub fn plan(self) -> RunPlan {
        let (warmup_us, measure_us) = match self {
            Workload::PaperPoints => (2_000, 3_000),
            Workload::CoarseGen4 => (1_000, 2_000),
            Workload::FleetTree => (200, 500),
            // The chaos fault windows open at 6 and 11 ms; the quick plan
            // (5 + 10 ms) puts both inside the measurement.
            Workload::ObservedChaos => return RunPlan::quick(),
        };
        RunPlan {
            warmup: SimDuration::from_micros(warmup_us),
            measure: SimDuration::from_micros(measure_us),
        }
    }
}

/// The labelled single-host configurations of `w` under benchmark seed
/// `seed` (empty for `fleet_tree`).
pub fn single_host_points(w: Workload, seed: u64) -> Vec<(String, TestbedConfig)> {
    let points: Vec<(&str, TestbedConfig)> = match w {
        Workload::PaperPoints => vec![
            // Fig. 3 and Fig. 5: IOMMU-bound as cores and regions grow.
            ("fig3-8c-iommu", scenarios::fig3(8, true)),
            ("fig3-14c-iommu", scenarios::fig3(14, true)),
            ("fig5-4mib-iommu", scenarios::fig5(4, true)),
            ("fig5-16mib-iommu", scenarios::fig5(16, true)),
            // Fig. 6: memory-bus antagonists.
            ("fig6-4ant", scenarios::fig6(4, false)),
            ("fig6-12ant", scenarios::fig6(12, false)),
            // §3.1: the congestion-control blind spot (transport).
            ("blindspot-14c-25us", scenarios::cc_blindspot(14, 25)),
        ],
        Workload::CoarseGen4 => [4, 8, 12, 16]
            .into_iter()
            .map(|n| {
                let name = match n {
                    4 => "gen4-4c",
                    8 => "gen4-8c",
                    12 => "gen4-12c",
                    _ => "gen4-16c",
                };
                let cfg = scenarios::with_coarse_time(scenarios::with_line_rate_generation(
                    scenarios::fig3(n, true),
                    4,
                ));
                (name, cfg)
            })
            .collect(),
        Workload::FleetTree => Vec::new(),
        Workload::ObservedChaos => vec![
            ("chaos-replay", scenarios::chaos_replay()),
            ("chaos-flap", scenarios::chaos_flap()),
            ("chaos-invalidate", scenarios::chaos_invalidate()),
        ],
    };
    points
        .into_iter()
        .enumerate()
        .map(|(i, (label, mut cfg))| {
            cfg.seed = derive_seed(seed, w.name(), i as u32);
            if w == Workload::ObservedChaos {
                cfg.telemetry = TelemetryConfig::enabled().with_flight_recorder();
            }
            (label.to_string(), cfg)
        })
        .collect()
}

/// The `fleet_tree` fleet under benchmark seed `seed`, as `hostcc fleet
/// --light --topology tree:4` builds it.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed: derive_seed(seed, Workload::FleetTree.name(), 0),
        ..FleetConfig::light_fleet(FLEET_HOSTS, FLEET_SHARDS)
    }
}

/// Trace-ring capacity of the traced chaos passes. Every pass records
/// more than this, so the ring always fills and wraps and the traced
/// passes hold the same memory under every seed.
const TRACE_CAPACITY: usize = 1 << 16;

/// The tracer `observed_chaos` installs, as `hostcc run --json
/// --timeline` does.
fn trace_config() -> TraceConfig {
    TraceConfig::enabled(TRACE_CAPACITY).with_timeline(10_000)
}

/// What one round measured. Times are wall seconds of host time.
#[derive(Debug, Default)]
pub struct Round {
    /// Start of the round to just before its first dispatched event.
    pub setup_s: f64,
    /// Host time of every call on the run path.
    pub run_s: f64,
    /// Simulated milliseconds covered by those calls.
    pub sim_ms: f64,
    /// Events dispatched on the run path.
    pub events: u64,
    /// Simulations (or fleet hosts) constructed.
    pub hosts_built: u64,
    /// Host time inside `Simulation::new`/`with_trace`/`Fleet::new`.
    pub build_s: f64,
    /// Resident-set growth across the setup, MiB.
    pub rss_growth_mib: f64,
    /// Engine dispatch statistics summed over profiled engines.
    pub profile: DispatchProfile,
    /// Fleet: lookahead epochs and super-epochs.
    pub epochs: u64,
    /// Fleet: epochs batching several lookahead windows.
    pub super_epochs: u64,
    /// Fleet: max ÷ mean shard events under round-robin after the probe.
    pub imbalance_rr: f64,
    /// Fleet: the same after `rebalance`.
    pub imbalance_reb: f64,
    /// Fleet: host time in `rebalance`.
    pub rebalance_s: f64,
    /// Fleet: probe + rebalance + run on `FLEET_SHARDS` shards.
    pub t_sharded: f64,
    /// Fleet: the same fleet replayed on one shard (traced runs).
    pub t_one_shard: f64,
    /// Chaos: host time in `save_checkpoint` and `restore_checkpoint`.
    pub save_s: f64,
    /// See `save_s`.
    pub restore_s: f64,
    /// Chaos: checkpoints taken and their total size.
    pub checkpoints: u64,
    /// See `checkpoints`.
    pub snap_bytes: u64,
    /// Chaos: host time of the checkpointed passes.
    pub t_checkpointed: f64,
    /// Chaos: host time of the traced passes.
    pub t_traced: f64,
    /// Chaos (traced runs): the same points with no tracer and no
    /// checkpoints, telemetry on ...
    pub t_plain: f64,
    /// ... and telemetry off.
    pub t_telemetry_off: f64,
    /// Chaos: records the tracer took.
    pub trace_records: u64,
    /// Simulated results of the main pass, kept for the first round only.
    pub metrics: Vec<RunMetrics>,
}

impl Round {
    fn add_profile(&mut self, p: Option<DispatchProfile>) {
        if let Some(p) = p {
            self.profile.events += p.events;
            self.profile.wall_nanos += p.wall_nanos;
            self.profile.batches += p.batches;
            self.profile.max_batch = self.profile.max_batch.max(p.max_batch);
        }
    }
}

/// Options of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundOpts {
    /// Benchmark seed.
    pub seed: u64,
    /// Run the A/B passes the per-layer shares need (traced runs).
    pub ab: bool,
    /// Enable engine dispatch profiling (spans are switched separately).
    pub profile: bool,
    /// Keep the main pass's `RunMetrics`.
    pub keep_metrics: bool,
}

/// Run one round of `w`.
pub fn round(w: Workload, o: RoundOpts, spans: &mut Spans, check: &mut Checker) -> Round {
    match w {
        Workload::PaperPoints | Workload::CoarseGen4 => single_host_round(w, o, spans, check),
        Workload::FleetTree => fleet_round(o, spans, check),
        Workload::ObservedChaos => chaos_round(o, spans, check),
    }
}

fn single_host_round(w: Workload, o: RoundOpts, spans: &mut Spans, check: &mut Checker) -> Round {
    let mut r = Round::default();
    let start = Instant::now();
    let rss0 = rss_mib().1;
    let setup = spans.begin("setup", 0);
    let points = single_host_points(w, o.seed);
    let mut sims = Vec::with_capacity(points.len());
    for (i, (label, cfg)) in points.into_iter().enumerate() {
        let key = format!("{}/{label}", w.name());
        if let Err(e) = cfg.validate() {
            check.error(&key, e);
            continue;
        }
        let (sim, d) = spans.time("Simulation::new", i as u32, || Simulation::new(cfg));
        r.build_s += d.as_secs_f64();
        r.hosts_built += 1;
        sims.push((i as u32, key, sim));
    }
    spans.end(setup);
    r.setup_s = start.elapsed().as_secs_f64();
    r.rss_growth_mib = rss_mib().1 - rss0;

    let plan = w.plan();
    for (i, key, mut sim) in sims {
        if o.profile {
            sim.enable_profiling();
        }
        let (out, d) = spans.time("Simulation::try_run", i, || {
            sim.try_run(plan.warmup, plan.measure)
        });
        r.run_s += d.as_secs_f64();
        r.sim_ms += sim_ms(plan.warmup + plan.measure);
        r.events += sim.dispatched_total();
        r.add_profile(sim.profile());
        match out {
            Ok(m) => {
                check.point(&key, digest(&m, sim.dispatched_total()));
                if o.keep_metrics {
                    r.metrics.push(m);
                }
            }
            Err(e) => check.error(&key, e),
        }
    }
    r
}

fn fleet_round(o: RoundOpts, spans: &mut Spans, check: &mut Checker) -> Round {
    let mut r = Round::default();
    let start = Instant::now();
    let rss0 = rss_mib().1;
    let cfg = fleet_config(o.seed);
    let key = format!(
        "{}/{}h-{}shards",
        Workload::FleetTree.name(),
        cfg.hosts,
        cfg.shards
    );
    let (built, d) = spans.time("Fleet::new", 0, || Fleet::new(&cfg));
    r.setup_s = start.elapsed().as_secs_f64();
    r.rss_growth_mib = rss_mib().1 - rss0;
    r.build_s = d.as_secs_f64();
    r.hosts_built = u64::from(cfg.hosts);
    let mut fleet = match built {
        Ok(f) => f,
        Err(e) => {
            check.error(&key, e);
            return r;
        }
    };
    if o.profile {
        for h in fleet.hosts_mut() {
            h.sim_mut().enable_profiling();
        }
    }
    let sharded = run_fleet(&mut fleet, 0, spans, &mut r);
    r.run_s = r.t_sharded;
    let plan = Workload::FleetTree.plan();
    r.sim_ms = sim_ms(FLEET_PROBE + plan.warmup + plan.measure);
    r.events = fleet.dispatched_total();
    r.epochs = fleet.epochs();
    r.super_epochs = fleet.super_epochs();
    for h in fleet.hosts() {
        r.add_profile(h.sim().profile());
    }
    let sharded_digest = match sharded {
        Ok(ms) => {
            let d = fleet_digest(&fleet, &ms);
            check.point(&key, d);
            if o.keep_metrics {
                r.metrics = ms;
            }
            Some(d)
        }
        Err(e) => {
            check.error(&key, e);
            None
        }
    };
    drop(fleet);

    if o.ab {
        // The same fleet on one shard: the parallel-efficiency baseline,
        // and a shard-count-invariance check.
        let one = FleetConfig { shards: 1, ..cfg };
        let key1 = format!("{}/{}h-1shard", Workload::FleetTree.name(), one.hosts);
        let (built, d) = spans.time("Fleet::new", 1, || Fleet::new(&one));
        r.build_s += d.as_secs_f64();
        r.hosts_built += u64::from(one.hosts);
        let mut scratch = Round::default();
        match built.and_then(|mut f| {
            let ms = run_fleet(&mut f, 1, spans, &mut scratch)?;
            Ok(fleet_digest(&f, &ms))
        }) {
            Ok(d1) => {
                check.point(&key1, d1);
                if let Some(d2) = sharded_digest {
                    check.same(&format!("{key1}=={key}"), d1, d2);
                }
            }
            Err(e) => check.error(&key1, e),
        }
        r.t_one_shard = scratch.t_sharded;
    }
    r
}

/// Probe, rebalance and run a built fleet, as `hostcc fleet --rebalance`
/// does; records the run-path times in `r`.
fn run_fleet(
    fleet: &mut Fleet,
    point: u32,
    spans: &mut Spans,
    r: &mut Round,
) -> Result<Vec<RunMetrics>, hostcc::RunError> {
    let plan = Workload::FleetTree.plan();
    let probe_to = fleet.now() + FLEET_PROBE;
    let (probed, d_probe) = spans.time("Fleet::run_to", point, || fleet.run_to(probe_to));
    probed?;
    r.imbalance_rr = max_over_mean(&fleet.shard_event_totals());
    let ((), d_reb) = spans.time("Fleet::rebalance", point, || {
        fleet.rebalance();
    });
    r.imbalance_reb = max_over_mean(&fleet.shard_event_totals());
    r.rebalance_s = d_reb.as_secs_f64();
    let (out, d_run) = spans.time("Fleet::run", point, || fleet.run(plan));
    r.t_sharded = (d_probe + d_reb + d_run).as_secs_f64();
    out
}

fn fleet_digest(fleet: &Fleet, ms: &[RunMetrics]) -> u64 {
    let hosts = ms
        .iter()
        .zip(fleet.hosts())
        .map(|(m, h)| digest(m, h.sim().dispatched_total()));
    combine(hosts.chain([fleet.epochs(), fleet.super_epochs()]))
}

fn max_over_mean(xs: &[u64]) -> f64 {
    let max = xs.iter().copied().max().unwrap_or(0) as f64;
    let mean = xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// One chaos point's simulations, all built during setup.
struct ChaosSims {
    point: u32,
    label: String,
    cfg: TestbedConfig,
    checkpointed: Simulation,
    traced: Simulation,
    /// Traced runs only: no tracer, no checkpoints; telemetry on and off.
    plain: Option<(Simulation, Simulation)>,
}

fn chaos_round(o: RoundOpts, spans: &mut Spans, check: &mut Checker) -> Round {
    let w = Workload::ObservedChaos;
    let mut r = Round::default();
    let start = Instant::now();
    let rss0 = rss_mib().1;
    let setup = spans.begin("setup", 0);
    let mut points = Vec::new();
    for (i, (label, cfg)) in single_host_points(w, o.seed).into_iter().enumerate() {
        let i = i as u32;
        if let Err(e) = cfg.validate() {
            check.error(&format!("{}/{label}", w.name()), e);
            continue;
        }
        let mut build = |name, f: &dyn Fn() -> Simulation| {
            let (sim, d) = spans.time(name, i, f);
            r.build_s += d.as_secs_f64();
            r.hosts_built += 1;
            sim
        };
        let checkpointed = build("Simulation::new", &|| Simulation::new(cfg.clone()));
        let traced = build("Simulation::with_trace", &|| {
            Simulation::with_trace(cfg.clone(), trace_config())
        });
        let plain = o.ab.then(|| {
            let on = build("Simulation::new", &|| Simulation::new(cfg.clone()));
            let off_cfg = TestbedConfig {
                telemetry: TelemetryConfig::disabled(),
                ..cfg.clone()
            };
            let off = build("Simulation::new", &|| Simulation::new(off_cfg.clone()));
            (on, off)
        });
        points.push(ChaosSims {
            point: i,
            label,
            cfg,
            checkpointed,
            traced,
            plain,
        });
    }
    spans.end(setup);
    r.setup_s = start.elapsed().as_secs_f64();
    r.rss_growth_mib = rss_mib().1 - rss0;

    let plan = w.plan();
    for p in points {
        let key = format!("{}/{}", w.name(), p.label);
        let pass_ms = sim_ms(plan.warmup + plan.measure);

        let ck_key = format!("{key}/checkpointed");
        let t = Instant::now();
        let ck = checkpointed_pass(p.checkpointed, &p.cfg, p.point, o.profile, spans, &mut r);
        r.t_checkpointed += t.elapsed().as_secs_f64();
        let ck_digest = match ck {
            Ok((m, dispatched)) => {
                let d = digest(&m, dispatched);
                check.point(&ck_key, d);
                if o.keep_metrics {
                    r.metrics.push(m);
                }
                Some(d)
            }
            Err(e) => {
                check.error(&ck_key, e);
                None
            }
        };

        // The CLI's `run --json` stack: tracer, timeline and counters,
        // then the JSON export.
        let tr_key = format!("{key}/traced");
        let mut sim = p.traced;
        let (out, d) = spans.time("run_traced", p.point, || {
            let m = sim.try_run(plan.warmup, plan.measure)?;
            let json = metrics_json(&m, &sim.world().counters, sim.profile());
            std::hint::black_box(json.len());
            Ok::<_, hostcc::RunError>(m)
        });
        r.t_traced += d.as_secs_f64();
        r.events += sim.dispatched_total();
        r.add_profile(sim.profile());
        r.trace_records += sim.world().tracer.len() as u64 + sim.world().tracer.evicted();
        match out {
            Ok(m) => {
                let d = digest(&m, sim.dispatched_total());
                check.point(&tr_key, d);
                if let Some(ck) = ck_digest {
                    check.same(&format!("{ck_key}=={tr_key}"), ck, d);
                }
            }
            Err(e) => check.error(&tr_key, e),
        }
        r.sim_ms += 2.0 * pass_ms;

        if let Some((on, off)) = p.plain {
            let plain_key = format!("{key}/plain");
            let (d_on, t_on) = plain_pass(on, &plain_key, p.point, spans, check);
            let off_key = format!("{key}/telemetry_off");
            let (_, t_off) = plain_pass(off, &off_key, p.point, spans, check);
            r.t_plain += t_on;
            r.t_telemetry_off += t_off;
            if let (Some(a), Some(b)) = (d_on, ck_digest) {
                check.same(&format!("{plain_key}=={ck_key}"), a, b);
            }
        }
    }
    r.run_s = r.t_checkpointed + r.t_traced;
    r
}

/// Run a chaos point untraced and in one piece, check its digest under
/// `key`, and return the digest and the host seconds the run took.
fn plain_pass(
    mut sim: Simulation,
    key: &str,
    point: u32,
    spans: &mut Spans,
    check: &mut Checker,
) -> (Option<u64>, f64) {
    let plan = Workload::ObservedChaos.plan();
    let (out, d) = spans.time("Simulation::try_run", point, || {
        sim.try_run(plan.warmup, plan.measure)
    });
    let result = match out {
        Ok(m) => {
            let dg = digest(&m, sim.dispatched_total());
            check.point(key, dg);
            Some(dg)
        }
        Err(e) => {
            check.error(key, e);
            None
        }
    };
    (result, d.as_secs_f64())
}

/// Run a chaos point in `run_to` slices, saving a checkpoint to memory
/// every [`CHECKPOINT_CADENCE`] and continuing from its restore — the
/// campaign `--resume` path without the disk. Returns the metrics and the
/// events dispatched.
fn checkpointed_pass(
    mut sim: Simulation,
    cfg: &TestbedConfig,
    point: u32,
    profile: bool,
    spans: &mut Spans,
    r: &mut Round,
) -> Result<(RunMetrics, u64), String> {
    let plan = Workload::ObservedChaos.plan();
    let arm_at = sim.now() + plan.warmup;
    let end = arm_at + plan.measure;
    let cadence = CHECKPOINT_CADENCE.as_nanos();
    let mut slices: Vec<SimTime> = (1..)
        .map(|k| SimTime::from_nanos(k * cadence))
        .take_while(|&t| t < end)
        .chain([arm_at, end])
        .collect();
    slices.sort_unstable();
    slices.dedup();
    if profile {
        sim.enable_profiling();
    }
    let open = spans.begin("checkpointed_pass", point);
    let result = (|| {
        for t in slices {
            let (out, _) = spans.time("Simulation::run_to", point, || sim.run_to(t));
            if let RunOutcome::Stalled { at } = out {
                return Err(format!("stalled at {at:?}"));
            }
            if t == arm_at {
                sim.world_mut().arm_metrics(t);
            }
            if t < end && t.as_nanos() % cadence == 0 {
                let (saved, d) = spans.time("Simulation::save_checkpoint", point, || {
                    sim.save_checkpoint()
                });
                r.save_s += d.as_secs_f64();
                let bytes = saved.map_err(|e| e.to_string())?;
                r.checkpoints += 1;
                r.snap_bytes += bytes.len() as u64;
                r.add_profile(sim.profile());
                let (restored, d) = spans.time("Simulation::restore_checkpoint", point, || {
                    Simulation::restore_checkpoint(cfg.clone(), &bytes)
                });
                r.restore_s += d.as_secs_f64();
                sim = restored.map_err(|e| e.to_string())?;
                if profile {
                    sim.enable_profiling();
                }
            }
        }
        Ok(())
    })();
    spans.end(open);
    result?;
    r.add_profile(sim.profile());
    r.events += sim.dispatched_total();
    let m = sim.world_mut().snapshot(end);
    Ok((m, sim.dispatched_total()))
}

fn sim_ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

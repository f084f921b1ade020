//! Engine dispatch benchmark.
//!
//! Drives three representative workloads — the paper's incast
//! microbenchmark, the Fig. 6 antagonist sweep, and a heterogeneous
//! cluster fleet — through the full testbed at exact and coarse time,
//! reads the engine's `DispatchProfile`, and writes `BENCH_engine.json`
//! at the repo root.
//!
//! Throughput numbers are a *report* (regressions judged by humans reading
//! the artifact), but two structural properties are hard *gates* that fail
//! this binary — and with it the CI bench-smoke job:
//!
//! 1. `size_of::<Event>()` must stay within the 24-byte handle-size budget
//!    (also enforced at compile time in `hostcc-host`);
//! 2. the steady-state dispatch loop must perform **zero** heap
//!    allocations per event, measured with a counting global allocator
//!    (enabled only in this binary) over an unarmed steady-state segment.
//!
//! Set `HOSTCC_QUICK=1` for a short CI run.

use hostcc::experiment::RunPlan;
use hostcc::fleet::{Fleet, FleetConfig, FleetTopology};
use hostcc::substrate::host::Event;
use hostcc::substrate::sim::SimDuration;
use hostcc::substrate::trace::json::JsonWriter;
use hostcc::{scenarios, Simulation, TelemetryConfig, TestbedConfig};
use hostcc_bench::{plan, quick};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting allocator: every heap allocation (and reallocation) bumps a
/// counter, then delegates to the system allocator. Installed only in
/// this bench binary — the library crates stay `forbid(unsafe_code)`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One scenario: a named bundle of testbed configs run back to back on a
/// single engine profile (events and wall time accumulate across runs).
struct Scenario {
    name: &'static str,
    configs: Vec<TestbedConfig>,
}

/// Time mode: exact 1 ns event timestamps (the library default), or the
/// opt-in coarse 64 ns grid with chain fusion
/// (`scenarios::with_coarse_time`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimeMode {
    Exact,
    Coarse,
}

impl TimeMode {
    fn label(self, name: &str) -> String {
        match self {
            TimeMode::Exact => name.to_string(),
            TimeMode::Coarse => format!("coarse_{name}"),
        }
    }

    fn resolution_ns(self) -> u64 {
        match self {
            TimeMode::Exact => 1,
            TimeMode::Coarse => 64,
        }
    }
}

/// Trimmed stdout of a successful `git` command run in this crate.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

/// Short git revision stamped into every BENCH entry, so a recorded
/// number can always be traced back to the code that produced it. A tree
/// with uncommitted changes to tracked files is marked `-dirty`: its
/// numbers come from code no commit holds.
fn git_revision() -> String {
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if !changes.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// Per-unit cost of an on/off pair: the on run's extra wall time over
/// `count` units. `None` when the on run was not slower (or nothing was
/// counted): the cost is then below run noise, and a single difference
/// cannot say how far below.
fn cost_each(off: &RunStats, on: &RunStats, count: u64) -> Option<f64> {
    (count > 0 && on.wall_nanos > off.wall_nanos)
        .then(|| (on.wall_nanos - off.wall_nanos) as f64 / count as f64)
}

/// Console form of [`cost_each`].
fn show_cost(ns: Option<f64>) -> String {
    ns.map_or_else(
        || "below run noise".to_string(),
        |ns| format!("~{ns:.0} ns"),
    )
}

/// Write a number, or JSON `null` when there is none.
fn opt_num(w: &mut JsonWriter, v: Option<f64>) {
    match v {
        Some(v) => w.num(v),
        None => w.null(),
    };
}

/// Methodology tag recorded next to each measurement: how the number was
/// taken, so future readers don't compare incompatible runs.
const METHODOLOGY: &str =
    "interleaved-chunks warmup=2 measure=8; gate=best-of-retries; shared-runner wall clock";

fn scenarios_under_test() -> Vec<Scenario> {
    // Incast: the paper's §3 microbenchmark at 12 receiver cores.
    let incast = Scenario {
        name: "incast",
        configs: vec![scenarios::fig3(12, true)],
    };
    // Antagonist sweep: Fig. 6 points from idle to saturated memory bus.
    let antagonist_cores: &[u32] = if quick() { &[8] } else { &[0, 8, 15] };
    let antagonist = Scenario {
        name: "antagonist_sweep",
        configs: antagonist_cores
            .iter()
            .map(|&c| scenarios::fig6(c, true))
            .collect(),
    };
    // Cluster fleet: heterogeneous hosts — mixed RPC sizes, varying MTUs,
    // core counts, seeds *and NIC generations* (200/400 G), as in the
    // Fig. 1 fleet scatter. The newer-generation, small-MTU hosts are
    // the fleet's event-dense tail: a 400 G host moving 1-2 KiB packets
    // pushes ~8x the events per simulated nanosecond of the 100 G
    // testbed, where the coarse grid's slot sharing is densest.
    // Per host: (line-rate generation, MTU payload, threads, antagonists).
    let fleet_hosts: &[(u32, u32, u32, u32)] = if quick() {
        &[(4, 1024, 16, 4), (4, 1024, 16, 0)]
    } else {
        &[
            (2, 2048, 12, 0),
            (4, 1024, 16, 4),
            (4, 2048, 12, 8),
            (4, 1024, 16, 0),
        ]
    };
    let fleet = Scenario {
        name: "cluster_fleet",
        configs: fleet_hosts
            .iter()
            .enumerate()
            .map(|(host, &(gen, mtu, threads, ants))| {
                let mut cfg = scenarios::with_mixed_reads(scenarios::baseline());
                cfg.seed = 0xF1EE7 + host as u64;
                cfg.receiver_threads = threads;
                cfg.antagonist_cores = ants;
                cfg.wire.mtu_payload = mtu;
                scenarios::with_line_rate_generation(cfg, gen)
            })
            .collect(),
    };
    vec![incast, antagonist, fleet]
}

/// Accumulated dispatch statistics for one measured configuration.
#[derive(Default)]
struct RunStats {
    events: u64,
    wall_nanos: u64,
    dispatched: u64,
    instants: u64,
    max_run: u64,
}

impl RunStats {
    fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / self.wall_nanos as f64
    }

    /// Mean events dispatched per distinct instant.
    fn mean_run(&self) -> f64 {
        if self.instants == 0 {
            return 0.0;
        }
        self.events as f64 / self.instants as f64
    }
}

fn absorb(sim: &Simulation, stats: &mut RunStats) {
    let p = sim.profile().expect("profiling enabled");
    stats.events += p.events;
    stats.wall_nanos += p.wall_nanos;
    stats.dispatched += sim.dispatched_total();
    stats.instants += p.batches;
    stats.max_run = stats.max_run.max(p.max_batch);
}

/// Warm-up and measurement chunks per phase for the overhead legs: the
/// off and on simulations advance through simulated time *interleaved*
/// in short chunks, so wall-clock noise on a shared machine (frequency
/// drift, co-tenants) averages across both instead of landing on
/// whichever happened to run last.
const WARMUP_CHUNKS: u64 = 2;
const MEASURE_CHUNKS: u64 = 8;

fn run_scenario(sc: &Scenario, plan: &RunPlan) -> RunStats {
    let mut stats = RunStats::default();
    for cfg in &sc.configs {
        let mut sim = Simulation::new(cfg.clone());
        sim.enable_profiling();
        sim.advance(plan.warmup);
        let now = sim.now();
        sim.world_mut().arm_metrics(now);
        sim.advance(plan.measure);
        absorb(&sim, &mut stats);
    }
    stats
}

/// Steady-state allocation audit: warm an incast testbed past every
/// container's peak working set, then count heap allocations across a
/// measurement segment. Runs with metrics *unarmed* (`advance`, not
/// `run`) so the audit sees only the dispatch loop, not the metrics
/// collector's sample vectors. Returns (allocations, events).
fn audit_steady_state_allocs(plan: &RunPlan) -> (u64, u64) {
    let mut sim = Simulation::new(scenarios::fig3(12, true));
    // Warm-up: slabs, rings, flow windows and the wheel arena all grow to
    // their peak here; a second warmup leg catches late growth (e.g. the
    // first RTO-driven window excursion).
    sim.advance(plan.warmup);
    sim.advance(plan.warmup);
    let events_before = sim.dispatched_total();
    let allocs_before = allocs_now();
    sim.advance(plan.measure);
    let allocs = allocs_now() - allocs_before;
    let events = sim.dispatched_total() - events_before;
    (allocs, events)
}

/// Sampler-overhead measurement: the incast workload with telemetry off
/// vs. on (default 5 µs cadence), advanced through simulated time in
/// interleaved chunks. Returns (off, on, samples).
/// The per-sample cost is the wall-clock delta over the sample count —
/// noisy on shared runners, so the throughput gate re-measures on failure
/// rather than trusting one comparison.
fn run_telemetry_overhead(plan: &RunPlan) -> (RunStats, RunStats, u64) {
    let cfg = scenarios::fig3(12, true);
    let mut cfg_on = cfg.clone();
    cfg_on.telemetry = TelemetryConfig::enabled();
    let mut off_sim = Simulation::new(cfg);
    let mut on_sim = Simulation::new(cfg_on);
    off_sim.enable_profiling();
    on_sim.enable_profiling();
    let warm_chunk = plan.warmup / WARMUP_CHUNKS;
    for _ in 0..WARMUP_CHUNKS {
        off_sim.advance(warm_chunk);
        on_sim.advance(warm_chunk);
    }
    let measure_chunk = plan.measure / MEASURE_CHUNKS;
    for _ in 0..MEASURE_CHUNKS {
        off_sim.advance(measure_chunk);
        on_sim.advance(measure_chunk);
    }
    let mut off = RunStats::default();
    let mut on = RunStats::default();
    absorb(&off_sim, &mut off);
    absorb(&on_sim, &mut on);
    (off, on, on_sim.world().telemetry.samples_taken())
}

/// Checkpoint overhead: serializing the full simulation every 5 simulated
/// milliseconds versus an identical run that never checkpoints. Both legs
/// advance through the same interleaved slice schedule (the campaign
/// runner's default cadence), so the wall-clock ratio isolates the
/// serializer itself. Returns (off, on, checkpoints, bytes-per-checkpoint).
fn run_checkpoint_overhead(plan: &RunPlan) -> (RunStats, RunStats, u64, u64) {
    const CADENCE: SimDuration = SimDuration::from_millis(5);
    let cfg = scenarios::fig3(12, true);
    let mut off_sim = Simulation::new(cfg.clone());
    let mut on_sim = Simulation::new(cfg);
    let warm_chunk = plan.warmup / WARMUP_CHUNKS;
    for _ in 0..WARMUP_CHUNKS {
        off_sim.advance(warm_chunk);
        on_sim.advance(warm_chunk);
    }
    let mut off = RunStats::default();
    let mut on = RunStats::default();
    let mut checkpoints = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut remaining = plan.measure;
    while remaining > SimDuration::ZERO {
        let step = remaining.min(CADENCE);

        let before = off_sim.dispatched_total();
        let t = std::time::Instant::now();
        off_sim.advance(step);
        off.wall_nanos += t.elapsed().as_nanos() as u64;
        off.events += off_sim.dispatched_total() - before;

        let before = on_sim.dispatched_total();
        let t = std::time::Instant::now();
        on_sim.advance(step);
        let bytes = on_sim.save_checkpoint().expect("slot-boundary checkpoint");
        on.wall_nanos += t.elapsed().as_nanos() as u64;
        on.events += on_sim.dispatched_total() - before;
        checkpoints += 1;
        checkpoint_bytes = bytes.len() as u64;

        remaining -= step;
    }
    (off, on, checkpoints, checkpoint_bytes)
}

/// Steady-state allocation audit with the telemetry sampler running: the
/// sample path (ring push, detector update, baseline Welford) must stay
/// allocation-free once warm, same as the dispatch loop itself.
fn audit_telemetry_allocs(plan: &RunPlan) -> (u64, u64) {
    let mut cfg = scenarios::fig3(12, true);
    cfg.telemetry = TelemetryConfig::enabled();
    let mut sim = Simulation::new(cfg);
    sim.advance(plan.warmup);
    sim.advance(plan.warmup);
    let samples_before = sim.world().telemetry.samples_taken();
    let allocs_before = allocs_now();
    sim.advance(plan.measure);
    let allocs = allocs_now() - allocs_before;
    let samples = sim.world().telemetry.samples_taken() - samples_before;
    (allocs, samples)
}

/// The parallel-fleet scaling workload: 1,000 light-profile hosts on an
/// incast tree (`tree:4`), the fleet class the scaling runbook in
/// EXPERIMENTS.md is built around.
const FLEET_HOSTS: u32 = 1_000;

/// Simulated spans for the fleet legs. The probe runs under the static
/// round-robin placement to accumulate per-host cost counters before the
/// rebalance; warmup absorbs start-of-run transients; only the measure
/// span is timed.
const FLEET_PROBE: SimDuration = SimDuration::from_micros(100);
const FLEET_WARMUP: SimDuration = SimDuration::from_micros(200);

fn fleet_measure_span() -> SimDuration {
    if quick() {
        SimDuration::from_micros(500)
    } else {
        SimDuration::from_millis(2)
    }
}

/// One measured leg of the parallel-fleet scaling bench: the 1k-light-host
/// tree fleet at `shards` worker threads, probed + cost-rebalanced, warmed
/// up, then timed over the measurement span. Events/epochs are deltas over
/// the measured segment only; the imbalance ratios and per-shard event
/// totals are cumulative over the whole run.
struct FleetStats {
    shards: u32,
    worker_threads: usize,
    events: u64,
    wall_nanos: u64,
    epochs: u64,
    super_epochs: u64,
    /// Cumulative dispatched events per shard under the final placement.
    shard_events: Vec<u64>,
    /// max/min per-shard event ratio under round-robin, measured at the
    /// end of the probe slice (before the rebalance).
    imbalance_round_robin: f64,
    /// max/min per-shard event ratio at the end of the run, after the
    /// cost-based rebalance.
    imbalance_rebalanced: f64,
}

impl FleetStats {
    fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / self.wall_nanos as f64
    }
}

fn run_parallel_fleet(shards: u32) -> FleetStats {
    let cfg = FleetConfig::light_fleet(FLEET_HOSTS, shards);
    let mut fleet = Fleet::new(&cfg).expect("valid fleet config");
    // The slice schedule (probe/warmup/measure boundaries) is identical at
    // every shard count, so the epoch grid — and with it the event totals
    // asserted below — are directly comparable across legs.
    let t0 = fleet.now();
    fleet.run_to(t0 + FLEET_PROBE).expect("fleet probe");
    let imbalance_round_robin = fleet.imbalance_ratio();
    fleet.rebalance();
    let t1 = fleet.now();
    fleet.run_to(t1 + FLEET_WARMUP).expect("fleet warmup");
    let events_before = fleet.dispatched_total();
    let epochs_before = fleet.epochs();
    let super_before = fleet.super_epochs();
    let t2 = fleet.now();
    let start = std::time::Instant::now();
    fleet
        .run_to(t2 + fleet_measure_span())
        .expect("fleet measure");
    let wall_nanos = start.elapsed().as_nanos() as u64;
    FleetStats {
        shards,
        worker_threads: fleet.shards(),
        events: fleet.dispatched_total() - events_before,
        wall_nanos,
        epochs: fleet.epochs() - epochs_before,
        super_epochs: fleet.super_epochs() - super_before,
        shard_events: fleet.shard_event_totals(),
        imbalance_round_robin,
        imbalance_rebalanced: fleet.imbalance_ratio(),
    }
}

/// Super-epoch batching on a sparse fleet: the same light hosts with the
/// fan-in severed (`ring:0`), run once with barrier amortization and once
/// in classic per-lookahead-window mode. Uncoupled hosts can never send
/// across shards, so the amortized run collapses each `run_to` slice into
/// a single super-epoch while dispatching the exact same events.
fn run_sparse_fleet(amortize: bool) -> (u64, u64, u64) {
    let mut cfg = FleetConfig::light_fleet(64, 2);
    cfg.topology = FleetTopology::FaninRing { fanin: 0 };
    let mut fleet = Fleet::new(&cfg).expect("valid fleet config");
    fleet.set_amortization(amortize);
    let t0 = fleet.now();
    fleet
        .run_to(t0 + SimDuration::from_micros(500))
        .expect("sparse fleet slice 1");
    let t1 = fleet.now();
    fleet
        .run_to(t1 + SimDuration::from_micros(500))
        .expect("sparse fleet slice 2");
    (
        fleet.epochs(),
        fleet.super_epochs(),
        fleet.dispatched_total(),
    )
}

fn main() {
    let plan = plan();

    let event_size = std::mem::size_of::<Event>();
    const EVENT_SIZE_BOUND: usize = 24;
    assert!(
        event_size <= EVENT_SIZE_BOUND,
        "size_of::<Event>() = {event_size} exceeds the {EVENT_SIZE_BOUND}-byte budget"
    );

    let (ss_allocs, ss_events) = audit_steady_state_allocs(&plan);
    let allocs_per_event = ss_allocs as f64 / ss_events.max(1) as f64;
    println!(
        "event size {event_size} B (bound {EVENT_SIZE_BOUND}); steady state: {ss_allocs} allocs / {ss_events} events = {allocs_per_event:.6} allocs/event"
    );
    assert_eq!(
        ss_allocs, 0,
        "steady-state dispatch loop allocated {ss_allocs} times over {ss_events} events"
    );

    // Telemetry must obey the same discipline: zero heap allocations per
    // sample once the rings and episode table are warm.
    let (tel_allocs, tel_samples) = audit_telemetry_allocs(&plan);
    println!("telemetry steady state: {tel_allocs} allocs / {tel_samples} samples");
    assert_eq!(
        tel_allocs, 0,
        "telemetry sample path allocated {tel_allocs} times over {tel_samples} samples"
    );

    // Sampler overhead: telemetry-on must keep ≥ 95% of telemetry-off
    // wall-clock speed over the same simulated span. Re-measured on
    // failure — the signal is a few percent, well inside shared-runner
    // jitter for any single comparison.
    const OVERHEAD_FLOOR: f64 = 0.95;
    const OVERHEAD_RETRIES: u32 = 4;
    let (mut t_off, mut t_on, mut t_samples) = run_telemetry_overhead(&plan);
    let speed_ratio = |off: &RunStats, on: &RunStats| {
        if on.wall_nanos == 0 {
            0.0
        } else {
            off.wall_nanos as f64 / on.wall_nanos as f64
        }
    };
    let mut tel_best = speed_ratio(&t_off, &t_on);
    let mut tel_retries = 0;
    while tel_best < OVERHEAD_FLOOR
        && tel_retries < OVERHEAD_RETRIES
        && std::env::var_os("HOSTCC_BENCH_NO_GATE").is_none()
    {
        tel_retries += 1;
        let (o, n, s) = run_telemetry_overhead(&plan);
        let ratio = speed_ratio(&o, &n);
        println!("  overhead retry {tel_retries}: on/off speed = {ratio:.3}");
        if ratio > tel_best {
            (t_off, t_on, t_samples) = (o, n, s);
            tel_best = ratio;
        }
    }
    let tel_ns_per_sample = cost_each(&t_off, &t_on, t_samples);
    println!(
        "telemetry overhead: {t_samples} samples, on/off speed {tel_best:.3} (floor {OVERHEAD_FLOOR}), {} per sample",
        show_cost(tel_ns_per_sample)
    );
    assert!(
        std::env::var_os("HOSTCC_BENCH_NO_GATE").is_some() || tel_best >= OVERHEAD_FLOOR,
        "telemetry-on run slower than {OVERHEAD_FLOOR}x telemetry-off across {} attempts (best {tel_best:.3}x)",
        tel_retries + 1
    );

    // Checkpoint overhead: a full-state serialization every 5 simulated
    // ms (the campaign runner's default cadence) must keep ≥ 95% of
    // checkpoint-off wall-clock speed. Same retry discipline as the
    // telemetry gate — the signal is a few percent against shared-runner
    // jitter — with the same HOSTCC_BENCH_NO_GATE escape hatch.
    const CKPT_FLOOR: f64 = 0.95;
    const CKPT_RETRIES: u32 = 4;
    let (mut c_off, mut c_on, mut c_count, mut c_bytes) = run_checkpoint_overhead(&plan);
    let mut ckpt_best = speed_ratio(&c_off, &c_on);
    let mut ckpt_retries = 0;
    while ckpt_best < CKPT_FLOOR
        && ckpt_retries < CKPT_RETRIES
        && std::env::var_os("HOSTCC_BENCH_NO_GATE").is_none()
    {
        ckpt_retries += 1;
        let (o, n, c, b) = run_checkpoint_overhead(&plan);
        let ratio = speed_ratio(&o, &n);
        println!("  checkpoint retry {ckpt_retries}: on/off speed = {ratio:.3}");
        if ratio > ckpt_best {
            (c_off, c_on, c_count, c_bytes) = (o, n, c, b);
            ckpt_best = ratio;
        }
    }
    let ckpt_ns_each = cost_each(&c_off, &c_on, c_count);
    println!(
        "checkpoint overhead: {c_count} checkpoint(s) of {c_bytes} B, on/off speed {ckpt_best:.3} (floor {CKPT_FLOOR}), {} each",
        show_cost(ckpt_ns_each)
    );
    assert!(
        std::env::var_os("HOSTCC_BENCH_NO_GATE").is_some() || ckpt_best >= CKPT_FLOOR,
        "checkpoint-on run slower than {CKPT_FLOOR}x checkpoint-off across {} attempts (best {ckpt_best:.3}x)",
        ckpt_retries + 1
    );

    let revision = git_revision();
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("bench").str("engine");
    w.key("revision").str(&revision);
    w.key("methodology").str(METHODOLOGY);
    w.key("quick").bool(quick());
    w.key("warmup_ns").int(plan.warmup.as_nanos());
    w.key("measure_ns").int(plan.measure.as_nanos());
    w.key("event_size_bytes").int(event_size as u64);
    w.key("event_size_bound").int(EVENT_SIZE_BOUND as u64);
    w.key("steady_state_allocs").int(ss_allocs);
    w.key("steady_state_events").int(ss_events);
    w.key("allocs_per_event").num(allocs_per_event);
    w.key("telemetry").begin_obj();
    w.key("samples_per_run").int(t_samples);
    w.key("ns_per_sample");
    opt_num(&mut w, tel_ns_per_sample);
    w.key("on_off_speed_ratio").num(tel_best);
    w.key("speed_floor").num(OVERHEAD_FLOOR);
    w.key("steady_state_allocs").int(tel_allocs);
    w.key("steady_state_samples").int(tel_samples);
    w.key("off_events_per_sec").num(t_off.events_per_sec());
    w.key("on_events_per_sec").num(t_on.events_per_sec());
    w.end_obj();
    w.key("checkpoint").begin_obj();
    w.key("cadence_ms").int(5);
    w.key("checkpoints_per_run").int(c_count);
    w.key("bytes_per_checkpoint").int(c_bytes);
    w.key("ns_per_checkpoint");
    opt_num(&mut w, ckpt_ns_each);
    w.key("on_off_speed_ratio").num(ckpt_best);
    w.key("speed_floor").num(CKPT_FLOOR);
    w.key("off_events_per_sec").num(c_off.events_per_sec());
    w.key("on_events_per_sec").num(c_on.events_per_sec());
    w.end_obj();
    w.key("scenarios").begin_arr();

    println!(
        "{:<24} {:>6} {:>13} {:>11} {:>8}",
        "scenario", "runs", "events/s", "ev/instant", "max run"
    );
    for mode in [TimeMode::Exact, TimeMode::Coarse] {
        for sc in scenarios_under_test() {
            let sc = match mode {
                TimeMode::Exact => sc,
                TimeMode::Coarse => Scenario {
                    name: sc.name,
                    configs: sc
                        .configs
                        .into_iter()
                        .map(scenarios::with_coarse_time)
                        .collect(),
                },
            };
            let label = mode.label(sc.name);
            let stats = run_scenario(&sc, &plan);
            println!(
                "{:<24} {:>6} {:>13.0} {:>11.2} {:>8}",
                label,
                sc.configs.len(),
                stats.events_per_sec(),
                stats.mean_run(),
                stats.max_run
            );
            w.begin_obj();
            w.key("name").str(&label);
            w.key("revision").str(&revision);
            w.key("methodology").str(METHODOLOGY);
            w.key("resolution_ns").int(mode.resolution_ns());
            w.key("fuse_chains").bool(mode == TimeMode::Coarse);
            w.key("runs").int(sc.configs.len() as u64);
            w.key("events").int(stats.events);
            w.key("wall_nanos").int(stats.wall_nanos);
            w.key("events_per_sec").num(stats.events_per_sec());
            w.key("instants").int(stats.instants);
            w.key("events_per_instant").num(stats.mean_run());
            w.key("max_run").int(stats.max_run);
            w.key("dispatched_events").int(stats.dispatched);
            w.end_obj();
        }
    }
    w.end_arr();

    // Parallel-fleet scaling: 1,000 light-profile hosts on an incast tree
    // (`tree:4`, 8 µs fabric lookahead) at increasing shard counts, with a
    // probe slice + measured-cost rebalance before the timed span.
    // Determinism gives identical events/epochs at every shard count —
    // asserted here, not just reported — so the only thing that varies is
    // the wall clock. The ≥1.8x-at-4-shards throughput gate enforces only
    // on machines with at least 4 cores (this container/CI class); on
    // smaller machines the numbers are recorded report-only, with the
    // enforcement status in the artifact so a reader knows which kind of
    // number they are looking at. The post-rebalance imbalance ceiling is
    // deterministic (event counts, not wall clock), so it enforces
    // everywhere gates are on.
    let gated = std::env::var_os("HOSTCC_BENCH_NO_GATE").is_none();
    let avail = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    const FLEET_SPEEDUP_FLOOR: f64 = 1.8;
    const FLEET_IMBALANCE_CEILING: f64 = 1.15;
    const FLEET_GATE_RETRIES: u32 = 4;
    let enforce_fleet_gate = gated && avail >= 4;
    let shard_counts: &[u32] = if quick() { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut fleet_stats: Vec<FleetStats> = shard_counts
        .iter()
        .map(|&s| run_parallel_fleet(s))
        .collect();
    for s in &fleet_stats[1..] {
        assert_eq!(
            s.events, fleet_stats[0].events,
            "parallel_fleet: dispatch totals diverged at {} shards",
            s.shards
        );
        assert_eq!(
            s.epochs, fleet_stats[0].epochs,
            "parallel_fleet: epoch counts diverged at {} shards",
            s.shards
        );
    }
    let fleet_speedup = |stats: &[FleetStats], shards: u32| -> f64 {
        let base = stats
            .iter()
            .find(|s| s.shards == 1)
            .map(FleetStats::events_per_sec);
        let at = stats
            .iter()
            .find(|s| s.shards == shards)
            .map(FleetStats::events_per_sec);
        match (base, at) {
            (Some(b), Some(a)) if b > 0.0 => a / b,
            _ => 0.0,
        }
    };
    let mut best_fleet_speedup = fleet_speedup(&fleet_stats, 4);
    let mut fleet_retries = 0;
    while best_fleet_speedup < FLEET_SPEEDUP_FLOOR
        && fleet_retries < FLEET_GATE_RETRIES
        && enforce_fleet_gate
    {
        fleet_retries += 1;
        let retry: Vec<FleetStats> = [1u32, 4].iter().map(|&s| run_parallel_fleet(s)).collect();
        let ratio = fleet_speedup(&retry, 4);
        println!("  fleet gate retry {fleet_retries}: 4-shard speedup = {ratio:.3}");
        if ratio > best_fleet_speedup {
            best_fleet_speedup = ratio;
            for r in retry {
                if let Some(slot) = fleet_stats.iter_mut().find(|s| s.shards == r.shards) {
                    *slot = r;
                }
            }
        }
    }
    for s in &fleet_stats {
        println!(
            "parallel_fleet shards={:<2} ({} threads) {:>13.0} ev/s  {:>6.2}x  ({} epochs, imbalance {:.3} -> {:.3})",
            s.shards,
            s.worker_threads,
            s.events_per_sec(),
            fleet_speedup(&fleet_stats, s.shards),
            s.epochs,
            s.imbalance_round_robin,
            s.imbalance_rebalanced
        );
    }
    println!(
        "parallel_fleet gate: 4-shard speedup {best_fleet_speedup:.3} (floor {FLEET_SPEEDUP_FLOOR}, {} on {avail}-core machine)",
        if enforce_fleet_gate { "enforced" } else { "report-only" }
    );
    assert!(
        !enforce_fleet_gate || best_fleet_speedup >= FLEET_SPEEDUP_FLOOR,
        "parallel_fleet: 4-shard dispatch throughput below {FLEET_SPEEDUP_FLOOR}x of 1 shard across {} attempts (best {best_fleet_speedup:.3}x)",
        fleet_retries + 1
    );
    let imbalance_at_4 = fleet_stats
        .iter()
        .find(|s| s.shards == 4)
        .map(|s| s.imbalance_rebalanced)
        .unwrap_or(1.0);
    println!(
        "parallel_fleet gate: 4-shard post-rebalance imbalance {imbalance_at_4:.3} (ceiling {FLEET_IMBALANCE_CEILING}, {})",
        if gated { "enforced" } else { "report-only" }
    );
    assert!(
        !gated || imbalance_at_4 <= FLEET_IMBALANCE_CEILING,
        "parallel_fleet: post-rebalance event imbalance {imbalance_at_4:.3} at 4 shards exceeds {FLEET_IMBALANCE_CEILING}"
    );

    // Super-epoch batching on the sparse (uncoupled) fleet: the amortized
    // run must dispatch the same events in strictly fewer epochs. Both
    // counts are deterministic, so this gate holds on any machine.
    let (sparse_classic_epochs, _, sparse_classic_events) = run_sparse_fleet(false);
    let (sparse_amortized_epochs, sparse_super_epochs, sparse_amortized_events) =
        run_sparse_fleet(true);
    println!(
        "parallel_fleet super-epochs: sparse fleet {sparse_classic_epochs} classic epochs -> {sparse_amortized_epochs} amortized ({sparse_super_epochs} super)"
    );
    assert_eq!(
        sparse_classic_events, sparse_amortized_events,
        "parallel_fleet: super-epoch batching changed the sparse fleet's dispatch totals"
    );
    assert!(
        !gated || sparse_amortized_epochs < sparse_classic_epochs,
        "parallel_fleet: super-epoch batching did not reduce epochs on the sparse fleet ({sparse_amortized_epochs} vs {sparse_classic_epochs})"
    );

    w.key("parallel_fleet").begin_obj();
    w.key("hosts").int(FLEET_HOSTS as u64);
    w.key("topology").str("tree:4");
    w.key("host_profile").str("light");
    w.key("lookahead_ns").int(8_000);
    w.key("rebalanced").bool(true);
    w.key("speedup_floor").num(FLEET_SPEEDUP_FLOOR);
    w.key("speedup_at_4_shards").num(best_fleet_speedup);
    w.key("imbalance_ceiling").num(FLEET_IMBALANCE_CEILING);
    w.key("imbalance_at_4_shards").num(imbalance_at_4);
    w.key("gate_enforced").bool(enforce_fleet_gate);
    w.key("available_parallelism").int(avail as u64);
    w.key("entries").begin_arr();
    for s in &fleet_stats {
        w.begin_obj();
        w.key("shards").int(s.shards as u64);
        w.key("worker_threads").int(s.worker_threads as u64);
        w.key("events").int(s.events);
        w.key("wall_nanos").int(s.wall_nanos);
        w.key("events_per_sec").num(s.events_per_sec());
        w.key("epochs").int(s.epochs);
        w.key("super_epochs").int(s.super_epochs);
        w.key("imbalance_round_robin").num(s.imbalance_round_robin);
        w.key("imbalance_rebalanced").num(s.imbalance_rebalanced);
        w.key("events_per_shard").begin_arr();
        for &e in &s.shard_events {
            w.int(e);
        }
        w.end_arr();
        w.key("speedup_vs_1_shard")
            .num(fleet_speedup(&fleet_stats, s.shards));
        w.end_obj();
    }
    w.end_arr();
    w.key("super_epoch_batching").begin_obj();
    w.key("hosts").int(64);
    w.key("topology").str("ring:0");
    w.key("shards").int(2);
    w.key("classic_epochs").int(sparse_classic_epochs);
    w.key("amortized_epochs").int(sparse_amortized_epochs);
    w.key("super_epochs").int(sparse_super_epochs);
    w.key("epoch_reduction")
        .num(sparse_classic_epochs as f64 / sparse_amortized_epochs.max(1) as f64);
    w.end_obj();
    w.end_obj();

    w.end_obj();

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    std::fs::write(&path, w.finish()).expect("write BENCH_engine.json");
    println!("[json] {}", path.canonicalize().unwrap_or(path).display());
}

//! `hostcc` — command-line front end to the host-congestion laboratory.
//!
//! ```text
//! hostcc list                         # available scenarios
//! hostcc run fig3 --threads 14       # run one scenario with overrides
//! hostcc sweep fig3 --threads 2..16  # sweep a parameter
//! hostcc help
//! ```

mod args;
mod registry;

use args::{parse, ArgError, ParsedArgs};
use hostcc::experiment::{sweep as sweep_sims, RunPlan};
use hostcc::fleet::{Fleet, FleetConfig, FleetTopology};
use hostcc::report::{f, pct, Table};
use hostcc::{
    chrome_trace_json, metrics_json, CcKind, FaultKind, RunMetrics, Simulation, TelemetryConfig,
    TestbedConfig, TraceConfig,
};
use hostcc_campaign::{
    bisect as campaign_bisect, execute as campaign_execute, ExecuteOptions, Manifest,
};
use hostcc_sim::SimDuration;
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(argv) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(argv: Vec<String>) -> Result<(), String> {
    let parsed = match parse(argv) {
        Ok(p) => p,
        Err(ArgError::MissingCommand) => {
            print_help();
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    match parsed.command.as_str() {
        "help" | "-h" | "--help" => {
            print_help();
            Ok(())
        }
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => cmd_run(&parsed).map_err(|e| e.to_string()),
        "sweep" => cmd_sweep(&parsed).map_err(|e| e.to_string()),
        "fleet" => cmd_fleet(&parsed).map_err(|e| e.to_string()),
        "campaign" => cmd_campaign(&parsed).map_err(|e| e.to_string()),
        other => Err(format!("unknown command `{other}`; try `hostcc help`")),
    }
}

fn print_help() {
    println!(
        "hostcc — host-interconnect congestion laboratory\n\
         \n\
         USAGE:\n\
         \u{20}  hostcc list\n\
         \u{20}  hostcc run <scenario> [overrides]\n\
         \u{20}  hostcc sweep <scenario> --threads A..B [overrides]\n\
         \u{20}  hostcc fleet [--hosts N] [--shards N] [overrides]\n\
         \u{20}  hostcc campaign run --manifest FILE --out DIR [--resume]\n\
         \u{20}  hostcc campaign bisect --manifest FILE --out DIR --point LABEL\n\
         \n\
         OVERRIDES:\n\
         \u{20}  --threads N         receiver cores\n\
         \u{20}  --senders N         sender machines\n\
         \u{20}  --antagonists N     STREAM antagonist cores\n\
         \u{20}  --iommu on|off      memory protection\n\
         \u{20}  --region-mib N      Rx region per thread\n\
         \u{20}  --host-target-us N  Swift host-delay target\n\
         \u{20}  --seed N            RNG seed\n\
         \u{20}  --warmup-ms N       warm-up (default 25)\n\
         \u{20}  --measure-ms N      measurement (default 25)\n\
         \u{20}  --resolution NS     quantise event time to a power-of-two\n\
         \u{20}                      grid (default 1 = exact; 64 = coarse\n\
         \u{20}                      profile, faster dispatch, not\n\
         \u{20}                      bit-identical to exact runs)\n\
         \u{20}  --fuse-chains       fuse uncontended DMA-complete chains\n\
         \u{20}                      into macro events (implies nothing\n\
         \u{20}                      else; ignored when faults are active)\n\
         \u{20}  --csv               machine-readable output\n\
         \u{20}  --quick             short run (5+10 ms)\n\
         \n\
         FAULT INJECTION:\n\
         \u{20}  --faults LIST       comma-separated faults to inject as\n\
         \u{20}                      recurring windows (1 ms every 5 ms):\n\
         \u{20}                      replay|flap|stall|storm|throttle|preempt\n\
         \u{20}  (or run a canned chaos scenario: chaos-replay, chaos-flap,\n\
         \u{20}   chaos-invalidate — see `hostcc list`)\n\
         \n\
         OBSERVABILITY (run command):\n\
         \u{20}  --trace-out FILE    write a Chrome trace-event JSON file\n\
         \u{20}                      (load in Perfetto / chrome://tracing)\n\
         \u{20}  --trace-cap N       trace ring-buffer capacity (default 200000)\n\
         \u{20}  --sample N          trace 1 in N packet lifecycles (default 1)\n\
         \u{20}  --timeline NS       record time series every NS nanoseconds\n\
         \u{20}  --json              print a JSON metrics snapshot (stage\n\
         \u{20}                      breakdown, counters, engine events/sec)\n\
         \n\
         FLEET (fleet command):\n\
         \u{20}  --hosts N           coupled hosts (default 8; 1000 with\n\
         \u{20}                      --light)\n\
         \u{20}  --shards N          parallel-engine worker threads\n\
         \u{20}                      (default 1; any value gives\n\
         \u{20}                      bit-identical metrics)\n\
         \u{20}  --topology SPEC     who sends to whom: ring:K fan-in ring,\n\
         \u{20}                      tree:K incast tree, rack:K rack fabric\n\
         \u{20}                      (default ring:2)\n\
         \u{20}  --fanin N           shorthand for --topology ring:N\n\
         \u{20}  --light             scale-out light-host template (small\n\
         \u{20}                      rings/buffers, telemetry off) — 10k\n\
         \u{20}                      hosts routinely, 100k as a stretch\n\
         \u{20}  --rebalance         repartition hosts onto shards by\n\
         \u{20}                      measured event cost after a probe\n\
         \u{20}                      slice, so idle workers need to steal\n\
         \u{20}                      fewer hosts (results are bit-identical\n\
         \u{20}                      either way; only wall time changes)\n\
         \u{20}  --fabric-us N       inter-host fabric latency in µs —\n\
         \u{20}                      the engine's lookahead (default 8)\n\
         \u{20}  --json              fleet summary JSON: per-shard event\n\
         \u{20}                      loads, imbalance ratio, super-epochs,\n\
         \u{20}                      per-worker host wall time and steals\n\
         \u{20}  (per-host overrides --threads/--senders/etc. shape the\n\
         \u{20}   base template every host derives from)\n\
         \n\
         TELEMETRY (run command):\n\
         \u{20}  --telemetry-out FILE     stream one JSONL line per sample\n\
         \u{20}                           (host signals + episode inputs)\n\
         \u{20}  --telemetry-interval NS  sampling cadence (default 5000 ns)\n\
         \u{20}  --flight-recorder        capture retroactive sample dumps\n\
         \u{20}                           on drop bursts / faults / stalls\n\
         \u{20}  (any telemetry flag enables the sampler; episodes and\n\
         \u{20}   attributions land in the --json telemetry section)\n\
         \n\
         CAMPAIGN (campaign command):\n\
         \u{20}  campaign run        execute a manifest grid with periodic\n\
         \u{20}                      checkpoints and crash-safe JSONL\n\
         \u{20}                      artifacts under --out\n\
         \u{20}  campaign bisect     replay one point from its pre-fault\n\
         \u{20}                      checkpoint, factual vs faults-suppressed,\n\
         \u{20}                      and report the first divergent slot\n\
         \u{20}  --manifest FILE     campaign manifest (key = value lines;\n\
         \u{20}                      see EXPERIMENTS.md for the format)\n\
         \u{20}  --out DIR           artifact directory (journal.jsonl,\n\
         \u{20}                      points/, checkpoints/, bisect/)\n\
         \u{20}  --resume            skip journaled points and restore\n\
         \u{20}                      in-flight ones from checkpoints\n\
         \u{20}  --point LABEL       grid point to bisect\n\
         \u{20}  --step-us N         bisect replay quantum (default 250)"
    );
}

fn cmd_campaign(p: &ParsedArgs) -> Result<(), String> {
    let sub = p
        .positionals
        .first()
        .map(String::as_str)
        .ok_or_else(|| "campaign needs a subcommand: run or bisect".to_string())?;
    let manifest_path = p
        .flags
        .get("manifest")
        .ok_or_else(|| "campaign needs --manifest FILE".to_string())?;
    let out = p
        .flags
        .get("out")
        .ok_or_else(|| "campaign needs --out DIR".to_string())?;
    let manifest = Manifest::load(Path::new(manifest_path)).map_err(|e| e.to_string())?;
    let out = Path::new(out);
    let mut log = |msg: &str| println!("{msg}");
    match sub {
        "run" => {
            let abort: u64 = p
                .get_parsed("abort-after-slices", 0, "integer")
                .map_err(|e| e.to_string())?;
            let opts = ExecuteOptions {
                resume: p.switch("resume"),
                abort_after_slices: (abort > 0).then_some(abort),
            };
            let report =
                campaign_execute(&manifest, out, &opts, &mut log).map_err(|e| e.to_string())?;
            println!(
                "campaign `{}`: {} completed, {} skipped, {} resumed, \
                 {} checkpoint fallback(s), {} failed{}",
                manifest.name,
                report.completed.len(),
                report.skipped.len(),
                report.resumed.len(),
                report.fallbacks.len(),
                report.failed.len(),
                if report.aborted { " (aborted)" } else { "" },
            );
            for (label, why) in &report.failed {
                eprintln!("error: point `{label}`: {why}");
            }
            if report.failed.is_empty() {
                Ok(())
            } else {
                Err(format!("{} point(s) failed", report.failed.len()))
            }
        }
        "bisect" => {
            let label = p
                .flags
                .get("point")
                .ok_or_else(|| "campaign bisect needs --point LABEL".to_string())?;
            let step_us: u64 = p
                .get_parsed("step-us", 250, "integer")
                .map_err(|e| e.to_string())?;
            let rep = campaign_bisect(
                &manifest,
                out,
                label,
                SimDuration::from_micros(step_us.max(1)),
                &mut log,
            )
            .map_err(|e| e.to_string())?;
            match rep.first_divergence_ns {
                Some(t) => println!(
                    "first divergent slot: {t} ns (replayed {}..{} ns in {} ns quanta, \
                     {} steps; details in bisect/{}.jsonl)",
                    rep.from_ns, rep.until_ns, rep.step_ns, rep.steps, rep.label
                ),
                None => println!(
                    "no state divergence in {}..{} ns — the fault plan left \
                     this run bit-identical",
                    rep.from_ns, rep.until_ns
                ),
            }
            if let Some(at) = rep.stalled_ns {
                println!("factual replica stalled at {at} ns");
            }
            Ok(())
        }
        other => Err(format!(
            "unknown campaign subcommand `{other}`; use run or bisect"
        )),
    }
}

fn cmd_list() {
    let mut t = Table::new(["scenario", "description"]);
    for s in registry::all() {
        t.row([s.name.to_string(), s.description.to_string()]);
    }
    println!("{}", t.render());
}

/// Apply CLI overrides to a scenario's configuration.
fn apply_overrides(cfg: &mut TestbedConfig, p: &ParsedArgs) -> Result<(), ArgError> {
    cfg.receiver_threads = p.get_parsed("threads", cfg.receiver_threads, "integer")?;
    cfg.senders = p.get_parsed("senders", cfg.senders, "integer")?;
    cfg.antagonist_cores = p.get_parsed("antagonists", cfg.antagonist_cores, "integer")?;
    cfg.seed = p.get_parsed("seed", cfg.seed, "integer")?;
    cfg.iommu.enabled = p.get_on_off("iommu", cfg.iommu.enabled)?;
    let region_mib: u64 = p.get_parsed("region-mib", cfg.rx_region_bytes >> 20, "integer")?;
    cfg.rx_region_bytes = region_mib << 20;
    let target_us: u64 = p.get_parsed("host-target-us", 0, "integer")?;
    if target_us > 0 {
        if let CcKind::Swift(ref mut sc) = cfg.cc {
            sc.host_target = SimDuration::from_micros(target_us);
        }
    }
    let res_ns: u64 = p.get_parsed("resolution", cfg.resolution.nanos(), "integer (ns)")?;
    cfg.resolution = hostcc_sim::Resolution::from_nanos(res_ns).ok_or(ArgError::BadValue {
        flag: "resolution".to_string(),
        value: res_ns.to_string(),
        expected: "a power of two between 1 and 65536 ns",
    })?;
    if p.switch("fuse-chains") {
        cfg.fuse_chains = true;
    }
    Ok(())
}

/// Apply the `--faults` flag: each named fault becomes a canned recurring
/// window train (1 ms windows every 5 ms from t=6 ms, nine occurrences —
/// the same cadence as the chaos-* scenarios).
fn apply_faults(cfg: &mut TestbedConfig, p: &ParsedArgs) -> Result<(), String> {
    let Some(list) = p.flags.get("faults") else {
        return Ok(());
    };
    for name in list.split(',').filter(|s| !s.is_empty()) {
        let kind = match name {
            "replay" => FaultKind::PcieReplay { nak_rate: 0.3 },
            "flap" => FaultKind::LinkFlap,
            "stall" => FaultKind::DescriptorStall,
            "storm" => FaultKind::IotlbStorm {
                flush_period: SimDuration::from_micros(50),
            },
            "throttle" => FaultKind::MemThrottle { factor: 0.4 },
            "preempt" => FaultKind::CorePreempt { cores: 2 },
            other => {
                return Err(format!(
                    "--faults: unknown fault `{other}` \
                     (expected replay|flap|stall|storm|throttle|preempt)"
                ))
            }
        };
        cfg.faults = cfg.faults.clone().recurring(
            kind,
            SimDuration::from_millis(6),
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
            9,
        );
        // Blackout-style faults lose whole windows; partial-ACK recovery
        // brings flows back at ACK-clock speed instead of one per RTO.
        cfg.flow.partial_ack_rtx = true;
    }
    Ok(())
}

fn plan_from(p: &ParsedArgs) -> Result<RunPlan, ArgError> {
    if p.switch("quick") {
        return Ok(RunPlan::quick());
    }
    let warmup: u64 = p.get_parsed("warmup-ms", 25, "integer")?;
    let measure: u64 = p.get_parsed("measure-ms", 25, "integer")?;
    Ok(RunPlan {
        warmup: SimDuration::from_millis(warmup),
        measure: SimDuration::from_millis(measure),
    })
}

fn metrics_table(rows: &[(String, &RunMetrics)]) -> Table {
    let mut t = Table::new([
        "scenario",
        "tp_gbps",
        "drop_rate",
        "iotlb_miss_per_pkt",
        "hostdelay_p50_us",
        "hostdelay_p99_us",
        "mem_bw_gbytes",
    ]);
    for (label, m) in rows {
        t.row([
            label.clone(),
            f(m.app_throughput_gbps(), 2),
            pct(m.drop_rate()),
            f(m.iotlb_misses_per_packet(), 2),
            f(m.host_delay_p50_us(), 1),
            f(m.host_delay_p99_us(), 1),
            f(m.memory_bandwidth_gbytes(), 1),
        ]);
    }
    t
}

fn scenario_from(p: &ParsedArgs) -> Result<TestbedConfig, String> {
    let name = p
        .positionals
        .first()
        .ok_or_else(|| "missing scenario name; see `hostcc list`".to_string())?;
    let s = registry::find(name)
        .ok_or_else(|| format!("unknown scenario `{name}`; see `hostcc list`"))?;
    let mut cfg = (s.build)();
    apply_overrides(&mut cfg, p).map_err(|e| e.to_string())?;
    apply_faults(&mut cfg, p)?;
    Ok(cfg)
}

/// Build the trace configuration implied by the observability flags, or
/// `None` when the run should stay completely untraced.
fn trace_config_from(p: &ParsedArgs) -> Result<Option<TraceConfig>, String> {
    let timeline: u64 = p
        .get_parsed("timeline", 0u64, "integer")
        .map_err(|e| e.to_string())?;
    if !p.flags.contains_key("trace-out") && !p.switch("json") && timeline == 0 {
        return Ok(None);
    }
    let cap: usize = p
        .get_parsed("trace-cap", 200_000usize, "integer")
        .map_err(|e| e.to_string())?;
    let sample: u32 = p
        .get_parsed("sample", 1u32, "integer")
        .map_err(|e| e.to_string())?;
    let mut tc = TraceConfig::enabled(cap).with_sampling(sample);
    if timeline > 0 {
        tc = tc.with_timeline(timeline);
    }
    Ok(Some(tc))
}

/// Build the telemetry configuration implied by the telemetry flags, or
/// `None` when the run should stay completely unsampled.
fn telemetry_config_from(p: &ParsedArgs) -> Result<Option<TelemetryConfig>, String> {
    let wants = p.flags.contains_key("telemetry-out")
        || p.flags.contains_key("telemetry-interval")
        || p.switch("flight-recorder");
    if !wants {
        return Ok(None);
    }
    let mut tc = TelemetryConfig::enabled();
    let interval: u64 = p
        .get_parsed("telemetry-interval", tc.interval_ns, "integer (ns)")
        .map_err(|e| e.to_string())?;
    if interval == 0 {
        return Err("--telemetry-interval 0: expected a positive nanosecond interval".into());
    }
    tc = tc.with_interval_ns(interval);
    if p.switch("flight-recorder") {
        tc = tc.with_flight_recorder();
    }
    Ok(Some(tc))
}

fn cmd_run(p: &ParsedArgs) -> Result<(), String> {
    let mut cfg = scenario_from(p)?;
    let plan = plan_from(p).map_err(|e| e.to_string())?;
    let label = p.positionals[0].clone();
    if let Some(tc) = telemetry_config_from(p)? {
        cfg.telemetry = tc;
    }
    let trace = trace_config_from(p)?;
    let traced = trace.is_some();
    // Build the simulation directly (rather than through experiment::run)
    // so the streaming telemetry sink can be installed before the run.
    cfg.validate()
        .map_err(|e| hostcc::RunError::from(e).to_string())?;
    let mut sim = match trace {
        Some(tc) => Simulation::with_trace(cfg, tc),
        None => Simulation::new(cfg),
    };
    if let Some(path) = p.flags.get("telemetry-out") {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        sim.world_mut()
            .telemetry
            .set_sink(Box::new(std::io::BufWriter::new(file)));
    }
    let m = sim
        .try_run(plan.warmup, plan.measure)
        .map_err(|e| e.to_string())?;
    if let Some(path) = p.flags.get("telemetry-out") {
        let t = &sim.world().telemetry;
        eprintln!(
            "wrote {} telemetry samples ({} episodes, {} flight dumps) to {path}",
            t.samples_taken(),
            t.detector().episodes().len(),
            t.flight_dumps().len()
        );
    }
    if traced {
        if let Some(path) = p.flags.get("trace-out") {
            let w = sim.world();
            let doc = chrome_trace_json(w.tracer.events(), &w.timeline);
            std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {} trace events ({} evicted) to {path}",
                w.tracer.len(),
                w.tracer.evicted()
            );
        }
    }
    if p.switch("json") {
        let empty = hostcc::CounterRegistry::new();
        let (counters, profile) = if traced {
            (&sim.world().counters, sim.profile())
        } else {
            (&empty, None)
        };
        println!("{}", metrics_json(&m, counters, profile));
    } else {
        let t = metrics_table(&[(label, &m)]);
        if p.switch("csv") {
            print!("{}", t.to_csv());
        } else {
            println!("{}", t.render());
        }
    }
    Ok(())
}

/// Build a fleet configuration from the fleet command's flags: topology
/// knobs come from `--hosts/--shards/--fanin/--topology/--fabric-us`
/// (`--light` swaps in the scale-out light-host template), the per-host
/// template from the same override flags `run` understands.
fn fleet_config_from(p: &ParsedArgs) -> Result<FleetConfig, String> {
    let mut cfg = if p.switch("light") {
        let base = FleetConfig::light_fleet(1, 1);
        FleetConfig {
            hosts: 1_000,
            shards: 1,
            ..base
        }
    } else {
        FleetConfig::coupled_fleet()
    };
    cfg.hosts = p
        .get_parsed("hosts", cfg.hosts, "integer")
        .map_err(|e| e.to_string())?;
    cfg.shards = p
        .get_parsed("shards", cfg.shards, "integer")
        .map_err(|e| e.to_string())?;
    let fanin: Option<u32> = p
        .flags
        .get("fanin")
        .map(|v| v.parse().map_err(|_| format!("invalid --fanin '{v}'")))
        .transpose()?;
    if let Some(fanin) = fanin {
        cfg.topology = FleetTopology::FaninRing { fanin };
    }
    if let Some(spec) = p.flags.get("topology") {
        if fanin.is_some() {
            return Err("--fanin and --topology are mutually exclusive".to_string());
        }
        cfg.topology = FleetTopology::parse(spec)?;
    }
    let fabric_us: u64 = p
        .get_parsed("fabric-us", 8, "integer (µs)")
        .map_err(|e| e.to_string())?;
    cfg.fabric_latency = SimDuration::from_micros(fabric_us);
    cfg.seed = p
        .get_parsed("seed", cfg.seed, "integer")
        .map_err(|e| e.to_string())?;
    let mut base_overrides = p.clone();
    base_overrides.flags.remove("seed"); // fleet seed, not per-host seed
    apply_overrides(&mut cfg.base, &base_overrides).map_err(|e| e.to_string())?;
    apply_faults(&mut cfg.base, p)?;
    Ok(cfg)
}

fn cmd_fleet(p: &ParsedArgs) -> Result<(), String> {
    let cfg = fleet_config_from(p)?;
    let plan = plan_from(p).map_err(|e| e.to_string())?;
    let mut fleet = Fleet::new(&cfg).map_err(|e| e.to_string())?;
    if p.switch("rebalance") {
        // Probe briefly under round-robin so per-host dispatch counters
        // carry real load, then bin-pack hosts onto shards by measured
        // cost. Placement is unobservable, so results are bit-identical
        // with or without this switch (the probe slice is always run, so
        // the epoch grid — which *is* slice-schedule-dependent — matches
        // too).
        fleet
            .run_to(fleet.now() + SimDuration::from_micros(300))
            .map_err(|e| e.to_string())?;
        fleet.rebalance();
    } else {
        // Identical slice schedule whether or not we rebalance.
        fleet
            .run_to(fleet.now() + SimDuration::from_micros(300))
            .map_err(|e| e.to_string())?;
    }
    let per_host = fleet.run(plan).map_err(|e| e.to_string())?;
    if p.switch("json") {
        println!("{}", fleet_json(&cfg, &fleet, &per_host));
        return Ok(());
    }
    let rows: Vec<(String, &RunMetrics)> = per_host
        .iter()
        .enumerate()
        .map(|(h, m)| (format!("host{h}"), m))
        .collect();
    let t = metrics_table(&rows);
    if p.switch("csv") {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
        let total_gbps: f64 = per_host.iter().map(|m| m.app_throughput_gbps()).sum();
        println!(
            "fleet: {} hosts ({}), {} shards, {} epochs ({} super), imbalance {:.3}, {:.1} Gbps aggregate",
            cfg.hosts,
            cfg.topology,
            fleet.shards(),
            fleet.epochs(),
            fleet.super_epochs(),
            fleet.imbalance_ratio(),
            total_gbps
        );
    }
    Ok(())
}

/// Machine-readable fleet summary: topology, engine/shard load stats
/// (events per shard, imbalance, super-epochs, each worker's host wall
/// time and steals), and a compact per-host
/// metrics array. The single-host `run --json` export stays untouched —
/// this is the fleet-level analogue of its `engine` block.
fn fleet_json(cfg: &FleetConfig, fleet: &Fleet, per_host: &[RunMetrics]) -> String {
    let mut w = hostcc_trace::json::JsonWriter::new();
    w.begin_obj();
    w.key("hosts").int(cfg.hosts as u64);
    w.key("topology").str(&cfg.topology.to_string());
    w.key("aggregate_gbps")
        .num(per_host.iter().map(|m| m.app_throughput_gbps()).sum());
    w.key("engine").begin_obj();
    w.key("shards").int(fleet.shards() as u64);
    w.key("epochs").int(fleet.epochs());
    w.key("super_epochs").int(fleet.super_epochs());
    w.key("dispatched_events").int(fleet.dispatched_total());
    w.key("events_per_shard").begin_arr();
    for events in fleet.shard_event_totals() {
        w.int(events);
    }
    w.end_arr();
    w.key("imbalance_ratio").num(fleet.imbalance_ratio());
    // Host-side self-profile: varies run to run, unlike everything else.
    w.key("workers").begin_arr();
    for p in fleet.worker_profile() {
        w.begin_obj();
        w.key("host_wall_busy_ns").int(p.busy_ns);
        w.key("host_wall_barrier_wait_ns").int(p.wait_ns);
        w.key("hosts_stolen").int(p.steals);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.key("per_host").begin_arr();
    for m in per_host {
        w.begin_obj();
        w.key("delivered_packets").int(m.delivered_packets);
        w.key("app_throughput_gbps").num(m.app_throughput_gbps());
        w.key("drop_rate").num(m.drop_rate());
        w.key("host_delay_p99_us").num(m.host_delay_p99_us());
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// Parse `A..B` (inclusive) range syntax.
fn parse_range(s: &str) -> Option<(u32, u32)> {
    let (a, b) = s.split_once("..")?;
    let a: u32 = a.parse().ok()?;
    let b: u32 = b.parse().ok()?;
    (a <= b).then_some((a, b))
}

fn cmd_sweep(p: &ParsedArgs) -> Result<(), String> {
    let name = p
        .positionals
        .first()
        .cloned()
        .ok_or_else(|| "missing scenario name; see `hostcc list`".to_string())?;
    let s = registry::find(&name)
        .ok_or_else(|| format!("unknown scenario `{name}`; see `hostcc list`"))?;

    // Exactly one swept axis: the flag whose value contains "..".
    let axes = ["threads", "antagonists", "senders", "region-mib"];
    let swept: Vec<&str> = axes
        .iter()
        .copied()
        .filter(|a| p.flags.get(*a).map(|v| v.contains("..")).unwrap_or(false))
        .collect();
    let axis = match swept.as_slice() {
        [one] => *one,
        [] => return Err("sweep needs one ranged flag, e.g. --threads 2..16".into()),
        _ => return Err("sweep supports exactly one ranged flag".into()),
    };
    let (lo, hi) = parse_range(p.flags.get(axis).unwrap())
        .ok_or_else(|| format!("--{axis}: expected A..B with A <= B"))?;

    let plan = plan_from(p).map_err(|e| e.to_string())?;
    let mut points = Vec::new();
    for v in lo..=hi {
        let mut cfg = (s.build)();
        // Apply non-ranged overrides first, then the swept value.
        let mut without_axis = p.clone();
        without_axis.flags.remove(axis);
        apply_overrides(&mut cfg, &without_axis).map_err(|e| e.to_string())?;
        apply_faults(&mut cfg, &without_axis)?;
        match axis {
            "threads" => cfg.receiver_threads = v,
            "antagonists" => cfg.antagonist_cores = v,
            "senders" => cfg.senders = v,
            "region-mib" => cfg.rx_region_bytes = (v as u64) << 20,
            _ => unreachable!(),
        }
        points.push((format!("{name} {axis}={v}"), cfg));
    }
    let results = sweep_sims(points, plan).map_err(|e| e.to_string())?;
    let rows: Vec<(String, &RunMetrics)> = results
        .iter()
        .map(|r| (r.label.clone(), &r.metrics))
        .collect();
    let t = metrics_table(&rows);
    if p.switch("csv") {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range("2..16"), Some((2, 16)));
        assert_eq!(parse_range("5..5"), Some((5, 5)));
        assert_eq!(parse_range("9..2"), None);
        assert_eq!(parse_range("abc"), None);
    }

    #[test]
    fn overrides_apply() {
        let p = parse(
            "run fig3 --threads 14 --iommu off --seed 9 --region-mib 8"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let mut cfg = hostcc::scenarios::fig3(12, true);
        apply_overrides(&mut cfg, &p).unwrap();
        assert_eq!(cfg.receiver_threads, 14);
        assert!(!cfg.iommu.enabled);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.rx_region_bytes, 8 << 20);
    }

    #[test]
    fn resolution_and_fusion_overrides_apply() {
        let p = parse(
            "run fig3 --resolution 64 --fuse-chains"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let mut cfg = hostcc::scenarios::fig3(12, true);
        apply_overrides(&mut cfg, &p).unwrap();
        assert_eq!(cfg.resolution.nanos(), 64);
        assert!(cfg.fuse_chains);
        // Default stays exact with fusion off.
        let p = parse("run fig3".split_whitespace().map(String::from)).unwrap();
        let mut cfg = hostcc::scenarios::fig3(12, true);
        apply_overrides(&mut cfg, &p).unwrap();
        assert!(cfg.resolution.is_exact());
        assert!(!cfg.fuse_chains);
        // Non-power-of-two grids are rejected up front.
        let p = parse(
            "run fig3 --resolution 100"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let mut cfg = hostcc::scenarios::fig3(12, true);
        let e = apply_overrides(&mut cfg, &p).unwrap_err();
        assert!(format!("{e}").contains("power of two"), "{e}");
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let p = parse(["run".to_string(), "nope".to_string()]).unwrap();
        assert!(scenario_from(&p).unwrap_err().contains("unknown scenario"));
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        let e = dispatch(vec!["frobnicate".into()]).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn quick_plan_flag() {
        let p = parse("run baseline --quick".split_whitespace().map(String::from)).unwrap();
        let plan = plan_from(&p).unwrap();
        assert_eq!(plan.measure, SimDuration::from_millis(10));
    }

    #[test]
    fn faults_flag_builds_plan() {
        let p = parse(
            "run baseline --faults replay,storm"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let cfg = scenario_from(&p).unwrap();
        assert_eq!(cfg.faults.specs.len(), 2);
        assert!(matches!(
            cfg.faults.specs[0].kind,
            FaultKind::PcieReplay { .. }
        ));
        assert!(matches!(
            cfg.faults.specs[1].kind,
            FaultKind::IotlbStorm { .. }
        ));
    }

    #[test]
    fn unknown_fault_is_an_error() {
        let p = parse(
            "run baseline --faults gremlins"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(scenario_from(&p).unwrap_err().contains("unknown fault"));
    }

    #[test]
    fn telemetry_flags_build_config() {
        // No telemetry flag: the run stays unsampled.
        let p = parse("run fig3 --quick".split_whitespace().map(String::from)).unwrap();
        assert!(telemetry_config_from(&p).unwrap().is_none());
        // Any telemetry flag enables the sampler.
        let p = parse(
            "run fig3 --telemetry-interval 2500 --flight-recorder"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let tc = telemetry_config_from(&p).unwrap().unwrap();
        assert!(tc.enabled && tc.flight_recorder);
        assert_eq!(tc.interval_ns, 2_500);
        let p = parse(
            "run fig3 --telemetry-out out.jsonl"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let tc = telemetry_config_from(&p).unwrap().unwrap();
        assert!(tc.enabled && !tc.flight_recorder);
        assert_eq!(tc.interval_ns, TelemetryConfig::enabled().interval_ns);
        // Bad values are surfaced, not defaulted.
        let p = parse(
            "run fig3 --telemetry-interval nope"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(telemetry_config_from(&p).unwrap_err().contains("expected"));
        let p = parse(
            "run fig3 --telemetry-interval 0"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(telemetry_config_from(&p)
            .unwrap_err()
            .contains("positive nanosecond interval"));
    }

    #[test]
    fn telemetry_run_streams_jsonl_and_exports_section() {
        // End-to-end through dispatch: a quick blindspot run with the
        // sampler on writes one JSONL line per sample and keeps running.
        let dir = std::env::temp_dir().join("hostcc-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("samples.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        dispatch(
            format!("run blindspot --quick --telemetry-out {path_s} --flight-recorder")
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() > 100,
            "expected many samples, got {}",
            lines.len()
        );
        assert!(lines[0].contains("\"t_ns\":"));
        assert!(lines[0].contains("\"buffer_frac\":"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_flags_build_config() {
        let p = parse(
            "fleet --hosts 4 --shards 2 --fanin 1 --fabric-us 12 --seed 77 --threads 3"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let cfg = fleet_config_from(&p).unwrap();
        assert_eq!(cfg.hosts, 4);
        assert_eq!(cfg.shards, 2);
        assert_eq!(cfg.topology, FleetTopology::FaninRing { fanin: 1 });
        assert_eq!(cfg.fabric_latency, SimDuration::from_micros(12));
        assert_eq!(cfg.seed, 77);
        // --threads shapes the per-host template; --seed stays at the
        // fleet level (per-host seeds derive from it).
        assert_eq!(cfg.base.receiver_threads, 3);
        assert_ne!(cfg.host_config(0).seed, 77);
    }

    #[test]
    fn fleet_topology_and_light_flags_build_config() {
        let p = parse(
            "fleet --light --hosts 64 --shards 4 --topology rack:8"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let cfg = fleet_config_from(&p).unwrap();
        assert_eq!(cfg.hosts, 64);
        assert_eq!(cfg.shards, 4);
        assert_eq!(
            cfg.topology,
            FleetTopology::RackFabric { hosts_per_rack: 8 }
        );
        // The light template shrinks the per-host population.
        assert_eq!(cfg.base.senders, 2);
        assert_eq!(cfg.base.receiver_threads, 1);

        // --fanin and --topology cannot both be given.
        let p = parse(
            "fleet --fanin 2 --topology tree:4"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let e = fleet_config_from(&p).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");

        // Bad topology specs are CLI errors, not panics.
        let p = parse(
            "fleet --topology mesh:3"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(fleet_config_from(&p).unwrap_err().contains("topology"));
    }

    #[test]
    fn fleet_rejects_invalid_topologies() {
        let e = dispatch(
            "fleet --hosts 2 --fanin 2 --quick"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .unwrap_err();
        assert!(e.contains("fanin"), "{e}");
        // Satellite validation: shards outside 1..=hosts is a typed
        // ConfigError surfaced on the `error:` + exit 2 path.
        let e = dispatch(
            "fleet --hosts 2 --shards 4 --quick"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .unwrap_err();
        assert!(e.contains("shards"), "{e}");
        let e = dispatch(
            "fleet --hosts 2 --shards 0 --quick"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .unwrap_err();
        assert!(e.contains("shards"), "{e}");
    }

    #[test]
    fn invalid_config_maps_to_cli_error() {
        // senders=0 passes parsing but fails TestbedConfig::validate();
        // dispatch must surface it as an `error: …` (exit code 2 path),
        // not a panic.
        let e = dispatch(
            "run baseline --senders 0 --quick"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .unwrap_err();
        assert!(e.contains("invalid configuration"), "{e}");
    }
}

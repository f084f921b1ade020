//! `hostcc` — command-line front end to the host-congestion laboratory.
//!
//! ```text
//! hostcc list                         # available scenarios
//! hostcc run fig3 --threads 14       # run one scenario with overrides
//! hostcc sweep fig3 --threads 2..16  # sweep a parameter
//! hostcc run --help                  # the flags one command reads
//! hostcc help                        # every command's flags
//! ```
//!
//! The flags each command reads are its row of `args::COMMANDS`.

mod args;

use args::{parse, ArgError, ParsedArgs};
use hostcc::experiment::{sweep as sweep_sims, RunPlan};
use hostcc::fleet::{Fleet, FleetConfig, FleetTopology};
use hostcc::report::{f, pct, Table};
use hostcc::scenarios;
use hostcc::{
    chrome_trace_json, metrics_json, RunMetrics, Simulation, TelemetryConfig, TestbedConfig,
    TraceConfig,
};
use hostcc_campaign::{
    bisect as campaign_bisect, execute as campaign_execute, ExecuteOptions, Manifest,
};
use hostcc_sim::SimDuration;
use std::error::Error;
use std::path::Path;

/// What a command returns: its error is printed after `error:`.
type Outcome = Result<(), Box<dyn Error>>;

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
    let parsed = match argv.first().map(String::as_str) {
        None | Some("help" | "-h" | "--help") => {
            print!("{}", args::help());
            return Ok(());
        }
        Some(_) => parse(argv)?,
    };
    if parsed.switch("help") {
        print!("{}", parsed.command.usage());
        return Ok(());
    }
    let outcome = match parsed.command.name {
        "list" => cmd_list(),
        "run" => cmd_run(&parsed),
        "sweep" => cmd_sweep(&parsed),
        "fleet" => cmd_fleet(&parsed),
        "campaign run" => cmd_campaign_run(&parsed),
        "campaign bisect" => cmd_campaign_bisect(&parsed),
        other => unreachable!("`{other}` has a row in args::COMMANDS but no command"),
    };
    outcome.map_err(|e| e.to_string())
}

/// The manifest and output directory every campaign subcommand reads.
fn campaign_inputs(p: &ParsedArgs) -> Result<(Manifest, &Path), Box<dyn Error>> {
    let manifest_path = p
        .value("manifest")
        .ok_or_else(|| "campaign needs --manifest FILE".to_string())?;
    let out = p
        .value("out")
        .ok_or_else(|| "campaign needs --out DIR".to_string())?;
    let manifest = Manifest::load(Path::new(manifest_path))?;
    Ok((manifest, Path::new(out)))
}

fn cmd_campaign_run(p: &ParsedArgs) -> Outcome {
    let (manifest, out) = campaign_inputs(p)?;
    let opts = ExecuteOptions {
        resume: p.switch("resume"),
        ..ExecuteOptions::default()
    };
    let report = campaign_execute(&manifest, out, &opts, &mut |msg| println!("{msg}"))?;
    println!(
        "campaign `{}`: {} completed, {} skipped, {} resumed, \
         {} checkpoint fallback(s), {} failed",
        manifest.name,
        report.completed.len(),
        report.skipped.len(),
        report.resumed.len(),
        report.fallbacks.len(),
        report.failed.len(),
    );
    for (label, why) in &report.failed {
        eprintln!("error: point `{label}`: {why}");
    }
    if report.failed.is_empty() {
        Ok(())
    } else {
        Err(format!("{} point(s) failed", report.failed.len()).into())
    }
}

fn cmd_campaign_bisect(p: &ParsedArgs) -> Outcome {
    let (manifest, out) = campaign_inputs(p)?;
    let label = p
        .value("point")
        .ok_or_else(|| "campaign bisect needs --point LABEL".to_string())?;
    let step_us: u64 = p.get_parsed("step-us", 250, "integer")?;
    let rep = campaign_bisect(
        &manifest,
        out,
        label,
        SimDuration::from_micros(step_us.max(1)),
        &mut |msg| println!("{msg}"),
    )?;
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

fn cmd_list() -> Outcome {
    let mut t = Table::new(["scenario", "description"]);
    for &(name, description) in scenarios::NAMED {
        t.row([name.to_string(), description.to_string()]);
    }
    println!("{}", t.render());
    Ok(())
}

/// Apply the override flags (`--threads 4`, `--fuse-chains`, …: the
/// keys of [`scenarios::OVERRIDES`]) to a scenario's configuration.
fn apply_overrides(cfg: &mut TestbedConfig, p: &ParsedArgs) -> Result<(), ArgError> {
    for &(key, ..) in scenarios::OVERRIDES {
        if let Some(value) = p.value(key) {
            scenarios::set(cfg, key, value).map_err(|expected| ArgError::BadValue {
                flag: key.to_string(),
                value: value.clone(),
                expected,
            })?;
        }
    }
    Ok(())
}

/// Apply the `--faults` flag: each named fault becomes the canned
/// recurring window train of [`scenarios::add_fault_train`].
fn apply_faults(cfg: &mut TestbedConfig, p: &ParsedArgs) -> Result<(), String> {
    let Some(list) = p.value("faults") else {
        return Ok(());
    };
    for name in list.split(',').filter(|s| !s.is_empty()) {
        scenarios::add_fault_train(cfg, name).ok_or_else(|| {
            format!(
                "--faults: unknown fault `{name}` \
                 (expected replay|flap|stall|storm|throttle|preempt)"
            )
        })?;
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

/// Print the metrics table, as CSV under `--csv`.
fn print_metrics(p: &ParsedArgs, rows: &[(String, &RunMetrics)]) {
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
    if p.switch("csv") {
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.render());
    }
}

fn scenario_from(p: &ParsedArgs) -> Result<TestbedConfig, String> {
    let name = p
        .positionals
        .first()
        .ok_or_else(|| "missing scenario name; see `hostcc list`".to_string())?;
    let mut cfg = scenarios::named(name)
        .ok_or_else(|| format!("unknown scenario `{name}`; see `hostcc list`"))?;
    apply_overrides(&mut cfg, p)?;
    cfg.seed = p.get_parsed("seed", cfg.seed, "integer")?;
    apply_faults(&mut cfg, p)?;
    Ok(cfg)
}

/// Build the trace configuration implied by the observability flags, or
/// `None` when the run should stay completely untraced.
fn trace_config_from(p: &ParsedArgs) -> Result<Option<TraceConfig>, String> {
    let timeline: u64 = p.get_parsed("timeline", 0u64, "integer")?;
    if p.value("trace-out").is_none() && !p.switch("json") && timeline == 0 {
        if let Some(flag) = ["sample", "trace-cap"]
            .into_iter()
            .find(|f| p.value(f).is_some())
        {
            return Err(format!(
                "--{flag} shapes a trace, but nothing is traced: add --trace-out, --json or --timeline"
            ));
        }
        return Ok(None);
    }
    let cap: usize = p.get_parsed("trace-cap", 200_000usize, "integer")?;
    let sample: u32 = p.get_parsed("sample", 1u32, "integer")?;
    let mut tc = TraceConfig::enabled(cap).with_sampling(sample);
    if timeline > 0 {
        tc = tc.with_timeline(timeline);
    }
    Ok(Some(tc))
}

/// Build the telemetry configuration implied by the telemetry flags, or
/// `None` when the run should stay completely unsampled.
fn telemetry_config_from(p: &ParsedArgs) -> Result<Option<TelemetryConfig>, String> {
    let wants = p.value("telemetry-out").is_some()
        || p.value("telemetry-interval").is_some()
        || p.switch("flight-recorder");
    if !wants {
        return Ok(None);
    }
    let mut tc = TelemetryConfig::enabled();
    let interval: u64 = p.get_parsed("telemetry-interval", tc.interval_ns, "integer (ns)")?;
    if interval == 0 {
        return Err("--telemetry-interval 0: expected a positive nanosecond interval".into());
    }
    tc = tc.with_interval_ns(interval);
    if p.switch("flight-recorder") {
        tc = tc.with_flight_recorder();
    }
    Ok(Some(tc))
}

fn cmd_run(p: &ParsedArgs) -> Outcome {
    let mut cfg = scenario_from(p)?;
    let plan = plan_from(p)?;
    let label = p.positionals[0].clone();
    if let Some(tc) = telemetry_config_from(p)? {
        cfg.telemetry = tc;
    }
    // `--json` and `--trace-out` always install a tracer, so the counters
    // and the trace they print below are live.
    let trace = trace_config_from(p)?;
    // Build the simulation directly (rather than through experiment::run)
    // so the streaming telemetry sink can be installed before the run.
    cfg.validate().map_err(hostcc::RunError::from)?;
    let mut sim = match trace {
        Some(tc) => Simulation::with_trace(cfg, tc),
        None => Simulation::new(cfg),
    };
    if let Some(path) = p.value("telemetry-out") {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        sim.world_mut()
            .telemetry
            .set_sink(Box::new(std::io::BufWriter::new(file)));
    }
    let m = sim.try_run(plan.warmup, plan.measure)?;
    if let Some(path) = p.value("telemetry-out") {
        let t = &sim.world().telemetry;
        eprintln!(
            "wrote {} telemetry samples ({} episodes, {} flight dumps) to {path}",
            t.samples_taken(),
            t.detector().episodes().len(),
            t.flight_dumps().len()
        );
    }
    if let Some(path) = p.value("trace-out") {
        let w = sim.world();
        let doc = chrome_trace_json(w.tracer.events(), &w.timeline);
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} trace events ({} evicted) to {path}",
            w.tracer.len(),
            w.tracer.evicted()
        );
    }
    if p.switch("json") {
        println!("{}", metrics_json(&m, &sim.world().counters, sim.profile()));
    } else {
        print_metrics(p, &[(label, &m)]);
    }
    Ok(())
}

/// Build a fleet configuration from the fleet command's flags: topology
/// knobs come from `--hosts/--shards/--topology/--fabric-us` (`--light`
/// swaps in the scale-out light-host template), the per-host template
/// from the same override flags `run` understands, and `--seed` is the
/// fleet seed every per-host seed derives from.
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
    cfg.hosts = p.get_parsed("hosts", cfg.hosts, "integer")?;
    cfg.shards = p.get_parsed("shards", cfg.shards, "integer")?;
    if let Some(spec) = p.value("topology") {
        cfg.topology = FleetTopology::parse(spec)?;
    }
    let fabric_us: u64 = p.get_parsed("fabric-us", 8, "integer (µs)")?;
    cfg.fabric_latency = SimDuration::from_micros(fabric_us);
    cfg.seed = p.get_parsed("seed", cfg.seed, "integer")?;
    apply_overrides(&mut cfg.base, p)?;
    apply_faults(&mut cfg.base, p)?;
    Ok(cfg)
}

fn cmd_fleet(p: &ParsedArgs) -> Outcome {
    let cfg = fleet_config_from(p)?;
    let plan = plan_from(p)?;
    let mut fleet = Fleet::new(&cfg)?;
    // Probe briefly under round-robin so per-host dispatch counters carry
    // real load; `--rebalance` then bin-packs hosts onto shards by
    // measured cost. Placement is unobservable, so results are
    // bit-identical with or without the switch, and the probe slice runs
    // either way so the epoch grid (which *is* slice-schedule-dependent)
    // matches too.
    fleet.run_to(fleet.now() + SimDuration::from_micros(300))?;
    if p.switch("rebalance") {
        fleet.rebalance();
    }
    let per_host = fleet.run(plan)?;
    if p.switch("json") {
        println!("{}", fleet_json(&cfg, &fleet, &per_host));
        return Ok(());
    }
    let rows: Vec<(String, &RunMetrics)> = per_host
        .iter()
        .enumerate()
        .map(|(h, m)| (format!("host{h}"), m))
        .collect();
    print_metrics(p, &rows);
    if !p.switch("csv") {
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

fn cmd_sweep(p: &ParsedArgs) -> Outcome {
    // Exactly one swept axis: the override whose value contains "..".
    let swept: Vec<&str> = scenarios::OVERRIDES
        .iter()
        .map(|&(key, ..)| key)
        .filter(|key| p.value(key).is_some_and(|v| v.contains("..")))
        .collect();
    let axis = match swept.as_slice() {
        [one] => *one,
        [] => return Err("sweep needs one ranged flag, e.g. --threads 2..16".into()),
        _ => return Err("sweep supports exactly one ranged flag".into()),
    };
    let (lo, hi) = parse_range(&p.flags[axis])
        .ok_or_else(|| format!("--{axis}: expected A..B with A <= B"))?;
    // Each point is the command line with one value in place of the range.
    let mut points = Vec::new();
    for v in lo..=hi {
        let mut point = p.clone();
        point.flags.insert(axis.to_string(), v.to_string());
        let cfg = scenario_from(&point)?;
        points.push((format!("{} {axis}={v}", p.positionals[0]), cfg));
    }
    let plan = plan_from(p)?;
    let results = sweep_sims(points, plan)?;
    let rows: Vec<(String, &RunMetrics)> = results
        .iter()
        .map(|r| (r.label.clone(), &r.metrics))
        .collect();
    print_metrics(p, &rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc::FaultKind;

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
        let cfg = scenario_from(&p).unwrap();
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
    fn on_off_flags() {
        for (line, iommu) in [
            ("run fig3 --iommu off", false),
            ("run fig6 --iommu on", true),
            ("run fig3", true),
            ("run fig6", false),
        ] {
            let p = parse(line.split_whitespace().map(String::from)).unwrap();
            assert_eq!(scenario_from(&p).unwrap().iommu.enabled, iommu, "{line}");
        }
        let p = parse(
            "run fig3 --iommu maybe"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(
            scenario_from(&p).unwrap_err(),
            "--iommu maybe: expected on|off"
        );
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
    fn trace_shaping_flags_need_a_trace() {
        for line in [
            "run fig3 --quick --sample 16 --csv",
            "run fig3 --trace-cap 5",
        ] {
            let p = parse(line.split_whitespace().map(String::from)).unwrap();
            let err = trace_config_from(&p).unwrap_err();
            for flag in ["--trace-out", "--json", "--timeline"] {
                assert!(err.contains(flag), "{err}");
            }
        }
        let p = parse(
            "run fig3 --json --sample 16"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(trace_config_from(&p).unwrap().is_some());
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
            "fleet --hosts 4 --shards 2 --topology ring:1 --fabric-us 12 --seed 77 --threads 3"
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
            "fleet --hosts 2 --topology ring:2 --quick"
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

    /// What every scenario name and override resolves to, through the
    /// CLI and through a campaign manifest, pinned by
    /// `Simulation::config_fingerprint` (a hash of the configuration's
    /// full `Debug` rendering): moving where names and override keys are
    /// defined must not change the configuration any of them runs.
    #[test]
    fn resolved_configs_are_pinned() {
        let mut wrong = Vec::new();
        let cli: &[(&str, u64)] = &[
            ("run baseline", 0x506b1ab9b8378d29),
            ("run fig3", 0x506b1ab9b8378d29),
            ("run fig4-4k", 0x8ff7ce6506d2af3d),
            ("run fig5", 0x506b1ab9b8378d29),
            ("run fig6", 0x09158c02f3a7bae3),
            ("run blindspot", 0xac7c93dc799f1813),
            ("run host-aware", 0x6e0bd391aac91e09),
            ("run hot-buffers", 0x32cad50be0ab1be7),
            ("run strict-iommu", 0xbbd715f1e11c59c8),
            ("run dctcp", 0xb4614eb17dd96b19),
            ("run remote-numa", 0xc79deafcdea35a32),
            ("run chaos-replay", 0x4ffb73226ca9489d),
            ("run chaos-flap", 0xec62aec186a6b358),
            ("run chaos-invalidate", 0x78b5a69ae6727775),
            (
                "run fig3 --threads 4 --iommu off --region-mib 8 --resolution 64 --fuse-chains",
                0x6e7bbb935899464f,
            ),
            (
                "run blindspot --host-target-us 50 --senders 20 --seed 9",
                0xe3ed3d9f7748c305,
            ),
            (
                "run fig6 --antagonists 3 --host-target-us 0",
                0xfef80ea6a60ffcd5,
            ),
        ];
        for &(line, want) in cli {
            let p = parse(line.split_whitespace().map(String::from)).unwrap();
            let got = Simulation::config_fingerprint(&scenario_from(&p).unwrap());
            if got != want {
                wrong.push(format!("({line:?}, {got:#018x}),"));
            }
        }
        let fleet: &[(&str, u64)] = &[
            ("fleet --threads 3 --seed 77", 0xfc9d7e8d2aa7a87c),
            ("fleet --light --threads 2 --iommu off", 0x49104b395af50a2c),
        ];
        for &(line, want) in fleet {
            let p = parse(line.split_whitespace().map(String::from)).unwrap();
            let got = Simulation::config_fingerprint(&fleet_config_from(&p).unwrap().base);
            if got != want {
                wrong.push(format!("({line:?}, {got:#018x}),"));
            }
        }
        // `scenarios = …` and `overrides = …` lines of a manifest; the
        // point's seed is the manifest default, 1.
        let campaign: &[(&str, &str, u64)] = &[
            ("incast", "none", 0x506b1ab9b8378d29),
            ("antagonist-8", "none", 0x5ba7b835330e9dc1),
            ("blindspot", "none", 0xac7c93dc799f1813),
            ("baseline", "none", 0x506b1ab9b8378d29),
            ("chaos-replay", "none", 0x4ffb73226ca9489d),
            ("chaos-flap", "none", 0xec62aec186a6b358),
            ("chaos-invalidate", "none", 0x78b5a69ae6727775),
            ("incast", "threads=4;iommu=off", 0xdd8e7cc223c84391),
            (
                "antagonist-8",
                "senders=20;antagonists=3",
                0xa7cbd7a885fa4980,
            ),
            ("fleet", "threads=2;iommu=off", 0x49104b395af50a2c),
        ];
        for &(scenario, overrides, want) in campaign {
            let m = Manifest::parse(&format!(
                "scenarios = {scenario}\noverrides = {overrides}\n"
            ))
            .unwrap();
            let p = &m.points()[0];
            let cfg = match p.fleet {
                Some(_) => m.build_fleet_config(p).unwrap().base,
                None => m.build_config(p).unwrap(),
            };
            let got = Simulation::config_fingerprint(&cfg);
            if got != want {
                wrong.push(format!("({scenario:?}, {overrides:?}, {got:#018x}),"));
            }
        }
        assert!(
            wrong.is_empty(),
            "fingerprints moved:\n{}",
            wrong.join("\n")
        );
    }

    /// What each fleet command line resolves to as a whole: hosts,
    /// seed, fabric latency, topology and the per-host template, pinned
    /// by `FleetConfig::fingerprint` (which leaves out the shard count,
    /// so that is pinned beside it).
    #[test]
    fn fleet_configs_are_pinned() {
        let lines: &[(&str, u64, u32)] = &[
            ("fleet --threads 3 --seed 77", 0x03fb38814ffd9666, 1),
            (
                "fleet --light --threads 2 --iommu off",
                0x43296cc69c775553,
                1,
            ),
            (
                "fleet --hosts 4 --shards 2 --topology ring:1 --fabric-us 12 --seed 77 --threads 3",
                0xf04889d390c76386,
                2,
            ),
            (
                "fleet --light --hosts 64 --shards 4 --topology rack:8",
                0xc7c38442113c6721,
                4,
            ),
        ];
        let mut wrong = Vec::new();
        for &(line, want, shards) in lines {
            let p = parse(line.split_whitespace().map(String::from)).unwrap();
            let cfg = fleet_config_from(&p).unwrap();
            if (cfg.fingerprint(), cfg.shards) != (want, shards) {
                wrong.push(format!(
                    "({line:?}, {:#018x}, {}),",
                    cfg.fingerprint(),
                    cfg.shards
                ));
            }
        }
        assert!(
            wrong.is_empty(),
            "fleet configs moved:\n{}",
            wrong.join("\n")
        );
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

//! Turning rounds into metrics: the end-to-end set (untraced runs), the
//! per-layer set (traced runs), their human-readable summaries and the
//! final JSON result line.

use crate::check::Checker;
use crate::spans::{chrome_trace, totals_by_name, Span};
use crate::stats::{median, quartiles};
use crate::workloads::{Round, Workload};
use hostcc::substrate::trace::json::JsonWriter;
use hostcc::{RunMetrics, StageClass};
use std::fmt::Write as _;
use std::path::PathBuf;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Unit, as listed in BENCHMARK.json.
    pub unit: &'static str,
    /// What the value is taken over or divided by.
    pub base: &'static str,
    /// The value.
    pub value: f64,
}

/// Run-wide facts the reports need.
pub struct Context {
    /// The workload run.
    pub workload: Workload,
    /// Benchmark seed.
    pub seed: u64,
    /// Wall seconds spent in rounds.
    pub elapsed_s: f64,
    /// The machine-speed probe, measured before the workload.
    pub ref_loop_ms: f64,
    /// `VmHWM` at the end of the workload.
    pub peak_rss_mib: f64,
}

/// The end-to-end metrics: `(name, unit, base)`.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    (
        "setup_s",
        "s",
        "round start to first dispatched event: validation + cold construction of every simulation, all held live; median over rounds",
    ),
    (
        "host_ms_per_sim_ms",
        "ms/ms",
        "host ms per simulated ms over every slice, warm-up and checkpoints included; median over rounds",
    ),
    ("peak_rss_mib", "MiB", "process VmHWM at the end of the workload"),
];

/// The per-layer metrics: `(name, unit, base)`. Layers a workload does
/// not exercise report 0.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("host.new_ms_per_host", "ms", "host time in Simulation::new/with_trace/Fleet::new per simulation or fleet host; median over rounds"),
    ("host.rss_mib_per_host", "MiB", "resident-set growth across the first round's setup per simulation or fleet host"),
    ("engine.events", "count", "events dispatched on the run path in one round (exact)"),
    ("engine.events_per_sim_ms", "1/ms", "engine.events per simulated ms (exact)"),
    ("engine.ns_per_event", "ns", "run-path host ns per dispatched event; median over rounds"),
    ("engine.mean_batch", "count", "events per batched dispatch, profiled engines of instrumented rounds"),
    ("engine.max_batch", "count", "largest batched dispatch, profiled engines of instrumented rounds"),
    ("parallel.epochs", "count", "fleet lookahead epochs in one round (exact; 0 = no fleet)"),
    ("parallel.super_epochs", "count", "fleet epochs spanning several lookahead windows (exact)"),
    ("parallel.imbalance_round_robin", "ratio", "max / mean shard events after the probe under round-robin placement (exact)"),
    ("parallel.imbalance_rebalanced", "ratio", "max / mean shard events after rebalance() (exact)"),
    ("parallel.rebalance_ms", "ms", "host time in Fleet::rebalance; median over rounds"),
    ("parallel.efficiency", "ratio", "T(1 shard) / (2 x T(2 shards)) on the same fleet, probe + rebalance + run; median of per-round pairs"),
    ("snap.save_ms", "ms", "host time per save_checkpoint; median over rounds"),
    ("snap.restore_ms", "ms", "host time per restore_checkpoint; median over rounds"),
    ("snap.bytes", "B", "mean checkpoint size (exact)"),
    ("snap.checkpoints", "count", "checkpoints taken per round (exact)"),
    ("snap.share", "ratio", "1 - T(no tracer, no checkpoints) / T(checkpointed pass); median of per-round pairs"),
    ("telemetry.samples", "count", "telemetry samples over the checkpointed passes of one round (exact)"),
    ("telemetry.episodes", "count", "congestion episodes detected over those passes (exact)"),
    ("telemetry.flight_dumps", "count", "flight-recorder dumps over those passes (exact)"),
    ("telemetry.share", "ratio", "1 - T(telemetry off) / T(telemetry on), no tracer or checkpoints; median of per-round pairs"),
    ("trace.records", "count", "trace records taken by the run_traced passes of one round (exact)"),
    ("trace.share", "ratio", "1 - T(no tracer, no checkpoints) / T(run_traced pass); median of per-round pairs"),
    ("faults.windows_injected", "count", "fault windows opened, summed over points (sim, exact)"),
    ("faults.iotlb_flushes", "count", "IOTLB flushes by invalidation storms, summed over points (sim, exact)"),
    ("faults.link_dropped_packets", "count", "packets lost to link flaps, summed over points (sim, exact)"),
    ("iommu.misses_per_pkt", "ratio", "IOTLB misses / delivered packets over all points (sim, exact)"),
    ("iommu.walk_accesses", "count", "page-walk memory accesses summed over points (sim, exact)"),
    ("nic.drops_buffer_full", "count", "NIC input-buffer overflow drops summed over points (sim, exact)"),
    ("nic.drops_no_descriptor", "count", "Rx-descriptor starvation drops summed over points (sim, exact)"),
    ("nic.buffer_peak_kib", "KiB", "largest NIC input-buffer peak over points (sim, exact)"),
    ("memsys.mean_bw_gbps", "GB/s", "mean memory-bus bandwidth, averaged over points (sim, exact)"),
    ("transport.retransmits", "count", "retransmissions summed over points (sim, exact)"),
    ("transport.timeouts", "count", "retransmission timeouts summed over points (sim, exact)"),
    ("fabric.drops", "count", "switch egress drops summed over points (sim, exact)"),
    ("stage.buffer_mean_ns", "ns", "mean NIC-buffer wait per delivered packet over all points (sim, exact)"),
    ("stage.pcie_mean_ns", "ns", "mean PCIe stage per delivered packet over all points (sim, exact)"),
    ("stage.iommu_mean_ns", "ns", "mean IOMMU stage per delivered packet over all points (sim, exact)"),
    ("stage.memory_mean_ns", "ns", "mean memory stage per delivered packet over all points (sim, exact)"),
    ("stage.cpu_mean_ns", "ns", "mean CPU stage per delivered packet over all points (sim, exact)"),
    ("app.throughput_gbps", "Gb/s", "application goodput per simulated host, averaged over points (sim, exact)"),
    ("app.drop_rate", "ratio", "host drops / data packets sent over all points (sim, exact)"),
    ("bench.ref_loop_ms", "ms", "machine-speed probe before the workload; median of 5; scales nothing"),
    ("bench.trace_overhead", "ratio", "host_ms_per_sim_ms instrumented / bare - 1, adjacent round pairs; median"),
];

fn metric(table: &[(&'static str, &'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit, base) = table
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"));
    Metric {
        name,
        unit,
        base,
        value,
    }
}

fn host_ms_per_sim_ms(r: &Round) -> Option<f64> {
    (r.sim_ms > 0.0).then(|| r.run_s * 1e3 / r.sim_ms)
}

/// The end-to-end metrics of an untraced run, with a readable summary
/// printed first.
pub fn end_to_end(ctx: &Context, rounds: &[(bool, Round)]) -> Vec<Metric> {
    let setup: Vec<f64> = rounds.iter().map(|(_, r)| r.setup_s).collect();
    let hmpsm: Vec<f64> = rounds
        .iter()
        .filter_map(|(_, r)| host_ms_per_sim_ms(r))
        .collect();
    let metrics = vec![
        metric(&END_TO_END, "setup_s", median(&setup)),
        metric(&END_TO_END, "host_ms_per_sim_ms", median(&hmpsm)),
        metric(&END_TO_END, "peak_rss_mib", ctx.peak_rss_mib),
    ];
    println!(
        "hostbench {} seed {}: {} rounds in {:.1} s; bench.ref_loop_ms {:.3} ms (machine-speed probe, scales nothing)",
        ctx.workload.name(),
        ctx.seed,
        rounds.len(),
        ctx.elapsed_s,
        ctx.ref_loop_ms
    );
    for (m, samples) in metrics.iter().zip([Some(&setup), Some(&hmpsm), None]) {
        let spread = samples.map_or(String::new(), |s| {
            let q = quartiles(s);
            format!(", quartiles {:.6} / {:.6} / {:.6}", q[0], q[1], q[2])
        });
        println!(
            "  {:<20} {:>14.6} {:<6} {}{spread}",
            m.name, m.value, m.unit, m.base
        );
    }
    metrics
}

/// The per-layer metrics of a traced run.
pub fn per_layer(ctx: &Context, rounds: &[(bool, Round)]) -> Vec<Metric> {
    let first = &rounds[0].1;
    let all = || rounds.iter().map(|(_, r)| r);
    let med = |f: &dyn Fn(&Round) -> Option<f64>| median(&all().filter_map(f).collect::<Vec<_>>());
    let fleet = ctx.workload == Workload::FleetTree;
    let chaos = ctx.workload == Workload::ObservedChaos;
    let (mut prof_events, mut batches, mut max_batch) = (0u64, 0u64, 0u64);
    for (_, r) in rounds.iter().filter(|(instr, _)| *instr) {
        prof_events += r.profile.events;
        batches += r.profile.batches;
        max_batch = max_batch.max(r.profile.max_batch);
    }
    let share = |num: fn(&Round) -> f64, den: fn(&Round) -> f64| {
        med(&|r| (den(r) > 0.0).then(|| 1.0 - num(r) / den(r)))
    };
    // Instrumented rounds are the even ones; pair each with the bare
    // round after it.
    let overhead: Vec<f64> = rounds
        .chunks_exact(2)
        .filter_map(|pair| {
            let on = host_ms_per_sim_ms(&pair[0].1)?;
            let off = host_ms_per_sim_ms(&pair[1].1)?;
            (off > 0.0).then(|| on / off - 1.0)
        })
        .collect();

    let ms = &first.metrics;
    let sum = |f: fn(&RunMetrics) -> u64| ms.iter().map(f).sum::<u64>() as f64;
    let mean = |f: fn(&RunMetrics) -> f64| {
        if ms.is_empty() {
            0.0
        } else {
            ms.iter().map(f).sum::<f64>() / ms.len() as f64
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let fault = |f: fn(&hostcc::FaultSummary) -> u64| {
        ms.iter()
            .filter_map(|m| m.faults.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let telem = |f: fn(&hostcc::TelemetrySummary) -> u64| {
        ms.iter()
            .filter_map(|m| m.telemetry.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let stage = |c: StageClass| {
        let (s, n) = ms.iter().fold((0u128, 0u64), |(s, n), m| {
            let h = m.stage_breakdown.stage(c);
            (s + h.sum(), n + h.count())
        });
        ratio(s as f64, n as f64)
    };

    let values: Vec<(&str, f64)> = vec![
        (
            "host.new_ms_per_host",
            med(&|r| (r.hosts_built > 0).then(|| r.build_s * 1e3 / r.hosts_built as f64)),
        ),
        (
            "host.rss_mib_per_host",
            ratio(first.rss_growth_mib, first.hosts_built as f64),
        ),
        ("engine.events", first.events as f64),
        (
            "engine.events_per_sim_ms",
            ratio(first.events as f64, first.sim_ms),
        ),
        (
            "engine.ns_per_event",
            med(&|r| (r.events > 0).then(|| r.run_s * 1e9 / r.events as f64)),
        ),
        (
            "engine.mean_batch",
            ratio(prof_events as f64, batches as f64),
        ),
        ("engine.max_batch", max_batch as f64),
        ("parallel.epochs", first.epochs as f64),
        ("parallel.super_epochs", first.super_epochs as f64),
        ("parallel.imbalance_round_robin", first.imbalance_rr),
        ("parallel.imbalance_rebalanced", first.imbalance_reb),
        (
            "parallel.rebalance_ms",
            if fleet {
                med(&|r| Some(r.rebalance_s * 1e3))
            } else {
                0.0
            },
        ),
        (
            "parallel.efficiency",
            med(&|r| (r.t_one_shard > 0.0).then(|| r.t_one_shard / (2.0 * r.t_sharded))),
        ),
        (
            "snap.save_ms",
            med(&|r| (r.checkpoints > 0).then(|| r.save_s * 1e3 / r.checkpoints as f64)),
        ),
        (
            "snap.restore_ms",
            med(&|r| (r.checkpoints > 0).then(|| r.restore_s * 1e3 / r.checkpoints as f64)),
        ),
        (
            "snap.bytes",
            ratio(first.snap_bytes as f64, first.checkpoints as f64),
        ),
        ("snap.checkpoints", first.checkpoints as f64),
        (
            "snap.share",
            if chaos {
                share(|r| r.t_plain, |r| r.t_checkpointed)
            } else {
                0.0
            },
        ),
        ("telemetry.samples", telem(|t| t.samples)),
        ("telemetry.episodes", telem(|t| t.episodes.len() as u64)),
        ("telemetry.flight_dumps", telem(|t| t.flight_dumps)),
        (
            "telemetry.share",
            if chaos {
                share(|r| r.t_telemetry_off, |r| r.t_plain)
            } else {
                0.0
            },
        ),
        ("trace.records", first.trace_records as f64),
        (
            "trace.share",
            if chaos {
                share(|r| r.t_plain, |r| r.t_traced)
            } else {
                0.0
            },
        ),
        ("faults.windows_injected", fault(|f| f.windows_injected)),
        ("faults.iotlb_flushes", fault(|f| f.iotlb_flushes)),
        (
            "faults.link_dropped_packets",
            fault(|f| f.link_dropped_packets),
        ),
        (
            "iommu.misses_per_pkt",
            ratio(sum(|m| m.iotlb_misses), sum(|m| m.delivered_packets)),
        ),
        ("iommu.walk_accesses", sum(|m| m.walk_memory_accesses)),
        ("nic.drops_buffer_full", sum(|m| m.drops_buffer_full)),
        ("nic.drops_no_descriptor", sum(|m| m.drops_no_descriptor)),
        (
            "nic.buffer_peak_kib",
            ms.iter()
                .map(|m| m.nic_buffer_peak_bytes)
                .max()
                .unwrap_or(0) as f64
                / 1024.0,
        ),
        ("memsys.mean_bw_gbps", mean(|m| m.memory_bandwidth_gbytes())),
        ("transport.retransmits", sum(|m| m.retransmits)),
        ("transport.timeouts", sum(|m| m.timeouts)),
        ("fabric.drops", sum(|m| m.drops_fabric)),
        ("stage.buffer_mean_ns", stage(StageClass::Buffer)),
        ("stage.pcie_mean_ns", stage(StageClass::Pcie)),
        ("stage.iommu_mean_ns", stage(StageClass::Iommu)),
        ("stage.memory_mean_ns", stage(StageClass::Memory)),
        ("stage.cpu_mean_ns", stage(StageClass::Cpu)),
        ("app.throughput_gbps", mean(|m| m.app_throughput_gbps())),
        (
            "app.drop_rate",
            ratio(sum(|m| m.host_drops()), sum(|m| m.data_packets_sent)),
        ),
        ("bench.ref_loop_ms", ctx.ref_loop_ms),
        ("bench.trace_overhead", median(&overhead)),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "every per-layer metric has a value"
    );
    values
        .into_iter()
        .zip(PER_LAYER)
        .map(|((name, value), (want, _, _))| {
            assert_eq!(name, want, "per-layer values follow the table order");
            metric(&PER_LAYER, name, value)
        })
        .collect()
}

/// The readable per-layer summary: every metric with its unit and base,
/// then host time by span name.
pub fn layer_summary(ctx: &Context, rounds: usize, metrics: &[Metric], spans: &[Span]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "hostbench {} seed {} (traced): {rounds} rounds in {:.1} s",
        ctx.workload.name(),
        ctx.seed,
        ctx.elapsed_s
    );
    for m in metrics {
        let _ = writeln!(
            s,
            "  {:<32} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.base
        );
    }
    let _ = writeln!(
        s,
        "  spans of instrumented rounds ({} spans; self = span minus its children):",
        spans.len()
    );
    let _ = writeln!(
        s,
        "    {:<30} {:>8} {:>12} {:>12}",
        "name", "calls", "total_ms", "self_ms"
    );
    for (name, calls, total, own) in totals_by_name(spans) {
        let _ = writeln!(
            s,
            "    {:<30} {:>8} {:>12.3} {:>12.3}",
            name,
            calls,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    s
}

/// Print the per-layer summary and write it, with the spans as a Chrome
/// trace, to `out/<workload>-seed<seed>.{layers.txt,trace.json}` in the
/// benchmark's directory.
pub fn write_trace_outputs(ctx: &Context, rounds: usize, metrics: &[Metric], spans: &[Span]) {
    let summary = layer_summary(ctx, rounds, metrics, spans);
    print!("{summary}");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", ctx.workload.name(), ctx.seed);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &summary))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.trace.json")), chrome_trace(spans)));
    match written {
        Ok(()) => println!(
            "  wrote {}/{stem}.trace.json and {stem}.layers.txt",
            dir.display()
        ),
        Err(e) => eprintln!(
            "hostbench: could not write trace outputs to {}: {e}",
            dir.display()
        ),
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(check: &Checker, metrics: &[Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("correct")
        .bool(check.failed == 0 && check.attempted > 0);
    w.key("attempted").int(check.attempted);
    w.key("failed").int(check.failed);
    w.key("metrics").begin_obj();
    for m in metrics {
        w.key(m.name).begin_obj();
        w.key("value").num(m.value);
        w.key("unit").str(m.unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostcc::substrate::trace::json::{parse, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let want = |t: &[(&str, &str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut check = Checker::new(crate::check::DEFAULT_SEED + 1, false);
        check.point("w/p", 1);
        let line = result_line(&check, &[metric(&END_TO_END, "setup_s", 0.25)]);
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(line.contains("\"correct\":true"), "{line}");
    }
}

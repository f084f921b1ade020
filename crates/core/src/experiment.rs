//! Experiment runner: one-shot runs and parallel parameter sweeps.

use hostcc_host::{RunError, RunMetrics, Simulation, TestbedConfig, TraceConfig};
use hostcc_sim::SimDuration;

/// How long to warm up (reach CC steady state) and measure.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Simulated warm-up discarded from the metrics.
    pub warmup: SimDuration,
    /// Simulated measurement interval.
    pub measure: SimDuration,
}

impl Default for RunPlan {
    /// 25 ms warm-up + 25 ms measurement: long enough for Swift to
    /// converge and for drop rates to be estimated within a few percent
    /// relative error at the paper's packet rates.
    fn default() -> Self {
        RunPlan {
            warmup: SimDuration::from_millis(25),
            measure: SimDuration::from_millis(25),
        }
    }
}

impl RunPlan {
    /// A shorter plan for smoke tests and CI.
    pub fn quick() -> Self {
        RunPlan {
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(10),
        }
    }
}

/// Run a single testbed configuration to completion and return metrics.
///
/// Panic-free: an invalid configuration or a watchdog-detected stall comes
/// back as a typed [`RunError`] instead of aborting the process.
pub fn run(cfg: TestbedConfig, plan: RunPlan) -> Result<RunMetrics, RunError> {
    cfg.validate()?;
    let mut sim = Simulation::new(cfg);
    sim.try_run(plan.warmup, plan.measure)
}

/// Run one configuration with tracing installed. Returns the metrics
/// (bit-identical to an untraced [`run`]) together with the finished
/// simulation, whose world holds the tracer ring, counter registry and
/// timeline for export.
pub fn run_traced(
    cfg: TestbedConfig,
    plan: RunPlan,
    trace: TraceConfig,
) -> Result<(RunMetrics, Simulation), RunError> {
    cfg.validate()?;
    let mut sim = Simulation::with_trace(cfg, trace);
    let metrics = sim.try_run(plan.warmup, plan.measure)?;
    Ok((metrics, sim))
}

/// One sweep point: a label, the configuration, and (after running) the
/// measured metrics.
#[derive(Debug)]
pub struct SweepPoint<L> {
    /// Caller-provided label (x-axis value, scenario tag).
    pub label: L,
    /// Measured metrics.
    pub metrics: RunMetrics,
}

/// Run a set of independent configurations in parallel (one OS thread per
/// point, bounded by available parallelism) and return results in input
/// order. Each simulation is single-threaded and deterministic; only the
/// sweep is parallelised. Workers claim indices from a single atomic
/// cursor — the only shared-write state — and send `(index, result)`
/// pairs back over a channel, so there is no per-item lock traffic at
/// all (the old scheme wrapped every work item and every result slot in
/// its own `Mutex`).
///
/// Every configuration is validated up front, so a bad point fails fast
/// before any simulation spins up; a mid-sweep watchdog stall surfaces as
/// the first erroring point's [`RunError`].
///
/// Worker panics are contained at the point boundary: a panicking point
/// becomes [`RunError::WorkerPanicked`] (carrying the point index, its
/// label, and the panic payload) while every other point still runs to
/// completion — one poisoned configuration cannot take down a campaign's
/// whole grid.
pub fn sweep<L: Send + std::fmt::Debug>(
    points: Vec<(L, TestbedConfig)>,
    plan: RunPlan,
) -> Result<Vec<SweepPoint<L>>, RunError> {
    sweep_with(points, plan, run)
}

/// [`sweep`] with a caller-supplied runner for one point. The panic
/// containment contract is tested through this seam (the production
/// runner is panic-free by design, so a panicking stand-in is the only
/// way to exercise the recovery path).
pub(crate) fn sweep_with<L: Send + std::fmt::Debug>(
    points: Vec<(L, TestbedConfig)>,
    plan: RunPlan,
    runner: impl Fn(TestbedConfig, RunPlan) -> Result<RunMetrics, RunError> + Sync,
) -> Result<Vec<SweepPoint<L>>, RunError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    for (_, cfg) in &points {
        cfg.validate()?;
    }
    let n = points.len();
    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    let mut labels: Vec<Option<L>> = Vec::with_capacity(n);
    let mut configs: Vec<TestbedConfig> = Vec::with_capacity(n);
    for (label, cfg) in points {
        labels.push(Some(label));
        configs.push(cfg);
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<RunMetrics, RunError>)>();
    let runner = &runner;
    std::thread::scope(|scope| {
        for _ in 0..parallelism {
            let tx = tx.clone();
            let cursor = &cursor;
            let configs = &configs;
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = configs.get(idx) else {
                    break;
                };
                // Contain a panicking point so the thread survives to run
                // its remaining points; the label is filled in later (the
                // worker only knows indices).
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    runner(cfg.clone(), plan)
                }))
                .unwrap_or_else(|payload| {
                    Err(RunError::WorkerPanicked {
                        point: idx,
                        label: String::new(),
                        message: panic_message(payload.as_ref()),
                    })
                });
                // The receiver outlives the scope, so sends cannot fail.
                let _ = tx.send((idx, outcome));
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<Result<RunMetrics, RunError>>> = (0..n).map(|_| None).collect();
    for (idx, outcome) in rx {
        slots[idx] = Some(outcome);
    }
    slots
        .into_iter()
        .zip(&mut labels)
        .map(|(slot, label)| {
            let metrics = match slot.expect("all points ran") {
                Ok(m) => m,
                Err(RunError::WorkerPanicked { point, message, .. }) => {
                    return Err(RunError::WorkerPanicked {
                        point,
                        label: format!("{:?}", label.as_ref().expect("label present")),
                        message,
                    });
                }
                Err(e) => return Err(e),
            };
            Ok(SweepPoint {
                label: label.take().expect("each label consumed once"),
                metrics,
            })
        })
        .collect()
}

/// Render a caught panic payload to text (empty for non-string payloads).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(threads: u32) -> TestbedConfig {
        TestbedConfig {
            senders: 4,
            receiver_threads: threads,
            ..TestbedConfig::default()
        }
    }

    #[test]
    fn single_run_produces_traffic() {
        let m = run(tiny_cfg(2), RunPlan::quick()).expect("valid config runs");
        assert!(m.delivered_packets > 1000);
        assert!(m.app_throughput_gbps() > 1.0);
    }

    #[test]
    fn sweep_preserves_order_and_labels() {
        let points = vec![
            (2u32, tiny_cfg(2)),
            (3u32, tiny_cfg(3)),
            (4u32, tiny_cfg(4)),
        ];
        let out = sweep(points, RunPlan::quick()).expect("valid configs run");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].label, 2);
        assert_eq!(out[1].label, 3);
        assert_eq!(out[2].label, 4);
        // More receiver cores, more CPU capacity, more throughput.
        assert!(out[2].metrics.app_throughput_gbps() > out[0].metrics.app_throughput_gbps());
    }

    #[test]
    fn sweep_matches_sequential_run() {
        // Parallel execution must not perturb determinism.
        let par = sweep(vec![((), tiny_cfg(2))], RunPlan::quick()).unwrap();
        let seq = run(tiny_cfg(2), RunPlan::quick()).unwrap();
        assert_eq!(par[0].metrics.delivered_packets, seq.delivered_packets);
        assert_eq!(par[0].metrics.host_drops(), seq.host_drops());
        assert_eq!(par[0].metrics.iotlb_misses, seq.iotlb_misses);
    }

    #[test]
    fn panicking_point_is_contained_and_typed() {
        // Point 1 panics; points 0 and 2 must still complete, and the
        // sweep must surface a typed WorkerPanicked naming the point.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        // Silence the default panic hook's backtrace noise for the
        // intentional panic (restored before asserting).
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = sweep_with(
            vec![
                ("ok-a", tiny_cfg(2)),
                ("boom", tiny_cfg(3)),
                ("ok-b", tiny_cfg(4)),
            ],
            RunPlan::quick(),
            |cfg, plan| {
                if cfg.receiver_threads == 3 {
                    panic!("injected worker panic");
                }
                let m = run(cfg, plan)?;
                completed.fetch_add(1, Ordering::SeqCst);
                Ok(m)
            },
        );
        std::panic::set_hook(prev);
        let err = out.expect_err("panicking point must surface");
        match &err {
            RunError::WorkerPanicked {
                point,
                label,
                message,
            } => {
                assert_eq!(*point, 1);
                assert!(label.contains("boom"), "{label}");
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other}"),
        }
        assert_eq!(
            completed.load(Ordering::SeqCst),
            2,
            "surviving points must still run to completion"
        );
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let cfg = TestbedConfig {
            senders: 0,
            ..TestbedConfig::default()
        };
        let err = run(cfg.clone(), RunPlan::quick()).unwrap_err();
        assert!(matches!(err, RunError::InvalidConfig(_)), "{err}");
        let err = sweep(vec![((), cfg)], RunPlan::quick()).unwrap_err();
        assert!(matches!(err, RunError::InvalidConfig(_)));
    }
}

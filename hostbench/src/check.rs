//! Correctness checks: digests of every simulated statistic, compared
//! against the digests recorded for the default seed, against the first
//! round of the same run, and across passes that must agree.

use crate::stats::fnv1a;
use hostcc::{metrics_json, CounterRegistry, RunMetrics};
use std::collections::BTreeMap;

/// The seed whose digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

const RECORDED: &str = include_str!("../digests.txt");

/// Digest of one simulation's simulated results: every exported metric
/// (headline counters, histograms, stage breakdown, fault and telemetry
/// summaries) plus the number of events dispatched. No host-time value
/// enters it, so it is identical from run to run and under any
/// simulator-only change.
pub fn digest(m: &RunMetrics, dispatched: u64) -> u64 {
    let json = metrics_json(m, &CounterRegistry::new(), None);
    fnv1a(json.as_bytes()) ^ dispatched.rotate_left(17)
}

/// Fold several digests (a fleet's hosts, in host order) into one.
pub fn combine(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Counts operations, records failures, and holds the reference digests.
pub struct Checker {
    recorded: Option<BTreeMap<String, u64>>,
    first: BTreeMap<String, u64>,
    /// Operations attempted (simulated points and passes).
    pub attempted: u64,
    /// Operations that errored or whose results failed a check.
    pub failed: u64,
}

impl Checker {
    /// A checker for benchmark seed `seed`: the recorded digests apply
    /// only to [`DEFAULT_SEED`], and `record` skips them (for printing
    /// fresh ones).
    pub fn new(seed: u64, record: bool) -> Self {
        Self::with_recorded(seed, record, RECORDED)
    }

    fn with_recorded(seed: u64, record: bool, text: &str) -> Self {
        Checker {
            recorded: (seed == DEFAULT_SEED && !record).then(|| parse_recorded(text)),
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one operation that failed outright (a `RunError` or
    /// `SnapError`).
    pub fn error(&mut self, key: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.fail(format!("{key}: {err}"));
    }

    /// Count one operation with result digest `d` under `key` and check
    /// it: equal to the recorded digest (default seed) and to the digest
    /// the first round produced.
    pub fn point(&mut self, key: &str, d: u64) {
        self.attempted += 1;
        if let Some(rec) = &self.recorded {
            match rec.get(key) {
                Some(&want) if want == d => {}
                Some(&want) => {
                    return self.fail(format!("{key}: digest {d:016x}, recorded {want:016x}"))
                }
                None => return self.fail(format!("{key}: no recorded digest")),
            }
        }
        let first = *self.first.entry(key.to_string()).or_insert(d);
        if first != d {
            self.fail(format!(
                "{key}: digest {d:016x} differs from round 1 ({first:016x})"
            ));
        }
    }

    /// Check that two passes that must agree did: a mismatch fails the
    /// operation named `key` (already counted by [`point`](Self::point)).
    pub fn same(&mut self, key: &str, a: u64, b: u64) {
        if a != b {
            self.fail(format!("{key}: {a:016x} != {b:016x}"));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("hostbench: FAILED {msg}");
    }

    /// The first-round digests, as `digests.txt` lines.
    pub fn recorded_lines(&self) -> String {
        self.first
            .iter()
            .map(|(k, d)| format!("{k} {d:016x}\n"))
            .collect()
    }
}

fn parse_recorded(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (k, d) = l.rsplit_once(' ')?;
            Some((k.trim().to_string(), u64::from_str_radix(d, 16).ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{single_host_points, Workload};
    use hostcc::Simulation;

    #[test]
    fn recorded_file_parses() {
        let rec = parse_recorded(RECORDED);
        for w in Workload::ALL {
            assert!(
                rec.keys().any(|k| k.starts_with(w.name())),
                "no recorded digest for {}",
                w.name()
            );
        }
    }

    #[test]
    fn mismatch_and_drift_fail() {
        let mut c = Checker::with_recorded(DEFAULT_SEED, false, "a/x 00000000000000ff\n");
        c.point("a/x", 0xff);
        assert_eq!((c.attempted, c.failed), (1, 0));
        c.point("a/x", 0xfe);
        assert_eq!(c.failed, 1, "recorded digest mismatch must fail");
        c.point("a/unknown", 1);
        assert_eq!(c.failed, 2, "a point without a recorded digest must fail");
        // Another seed has no recorded digests but must repeat itself.
        let mut c = Checker::with_recorded(DEFAULT_SEED + 1, false, "");
        c.point("a/x", 3);
        c.point("a/x", 3);
        assert_eq!(c.failed, 0);
        c.point("a/x", 4);
        assert_eq!(c.failed, 1, "round-to-round drift must fail");
        c.same("a/pair", 1, 2);
        assert_eq!(c.failed, 2);
    }

    /// Non-vacuity: the digest check must catch a change to the
    /// simulated system. One receiver core more on the cheapest recorded
    /// point moves its digest away from the recorded one.
    #[test]
    fn perturbed_config_fails_the_check() {
        let w = Workload::ObservedChaos;
        let (label, cfg) = single_host_points(w, DEFAULT_SEED).remove(0);
        let plan = w.plan();
        let key = format!("{}/{label}/checkpointed", w.name());
        let run = |cfg| {
            let mut sim = Simulation::new(cfg);
            let m = sim
                .try_run(plan.warmup, plan.measure)
                .expect("chaos point runs");
            digest(&m, sim.dispatched_total())
        };
        let mut perturbed = cfg.clone();
        perturbed.receiver_threads += 1;
        let mut c = Checker::new(DEFAULT_SEED, false);
        c.point(&key, run(cfg));
        assert_eq!(
            c.failed, 0,
            "the unperturbed point must match its recorded digest"
        );
        let mut c = Checker::new(DEFAULT_SEED, false);
        c.point(&key, run(perturbed));
        assert_eq!(c.failed, 1, "a perturbed config must fail the digest check");
    }
}

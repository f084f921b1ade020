//! The campaign execution loop: checkpoint, stream, resume.
//!
//! Every grid point, one host or a fleet, runs through one loop and
//! advances through the same deterministic *slice schedule*: the
//! checkpoint cadence grid, plus the warm-up boundary (where metrics
//! arm) and the end of measurement. At each boundary the runner
//! snapshots the simulation ([`Simulation::save_checkpoint`] or
//! [`Fleet::save_checkpoint`]), appends one slice record to the point's
//! metrics JSONL, and atomically rewrites both the artifact and the
//! point checkpoint. What differs between the two kinds of point — how
//! it is built and restored, how metrics arm, its final line, and a
//! fleet's per-slice rebalance — lives in the private `Point` enum. The checkpoint embeds the metric lines emitted
//! so far, so `--resume` restores the simulation *and* regenerates the
//! artifact prefix byte-for-byte — an interrupted-and-resumed campaign
//! produces artifacts identical to an uninterrupted one.
//!
//! Failure routing: a corrupt or truncated checkpoint is logged and the
//! point restarts from scratch (the checkpoint is redundant state — the
//! manifest can always rebuild it); a watchdog stall records a `failed`
//! journal entry and leaves the last good checkpoint on disk for
//! [`crate::bisect`](mod@crate::bisect); neither takes down the rest of the grid.

use crate::artifact::{append_journal, atomic_write, read_journal, JournalEntry};
use crate::manifest::{Manifest, PointSpec};
use crate::{io_err, CampaignError};
use hostcc::fleet::{Fleet, FleetConfig};
use hostcc_host::{RunError, RunMetrics, Simulation, TestbedConfig};
use hostcc_sim::{fnv1a_64, RunOutcome, SimTime, SnapError, SnapReader, SnapWriter};
use std::path::{Path, PathBuf};

/// Knobs for one [`execute`] call.
#[derive(Debug, Clone, Default)]
pub struct ExecuteOptions {
    /// Skip journaled points and restore in-flight ones from their
    /// latest checkpoint instead of starting the campaign over.
    pub resume: bool,
    /// Crash-simulation hook for tests and the CI smoke job: stop
    /// abruptly (no journal entry, files left exactly as written) after
    /// this many slice boundaries across the whole campaign.
    pub abort_after_slices: Option<u64>,
}

/// What one [`execute`] call did, per grid point.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Points that ran to completion this call.
    pub completed: Vec<String>,
    /// Points skipped because the journal already records them.
    pub skipped: Vec<String>,
    /// Points restored from a checkpoint (subset of `completed`/`failed`).
    pub resumed: Vec<String>,
    /// Points whose checkpoint was corrupt and restarted from scratch.
    pub fallbacks: Vec<String>,
    /// Points that failed, with the error text (also journaled).
    pub failed: Vec<(String, String)>,
    /// True when `abort_after_slices` fired (simulated crash).
    pub(crate) aborted: bool,
}

/// Artifact layout under the campaign output directory.
pub(crate) struct Layout {
    /// Append-only completion journal.
    pub(crate) journal: PathBuf,
    /// Per-point metrics JSONL directory.
    pub(crate) points: PathBuf,
    /// Per-point checkpoint directory.
    pub(crate) checkpoints: PathBuf,
}

impl Layout {
    pub(crate) fn new(out: &Path) -> Layout {
        Layout {
            journal: out.join("journal.jsonl"),
            points: out.join("points"),
            checkpoints: out.join("checkpoints"),
        }
    }

    pub(crate) fn artifact(&self, label: &str) -> PathBuf {
        self.points.join(format!("{label}.jsonl"))
    }

    pub(crate) fn checkpoint(&self, label: &str) -> PathBuf {
        self.checkpoints.join(format!("{label}.ckpt"))
    }

    /// The checkpoint taken at the last slice boundary strictly before
    /// the point's first fault window — bisect's starting state.
    pub(crate) fn prefault(&self, label: &str) -> PathBuf {
        self.checkpoints.join(format!("{label}.prefault.ckpt"))
    }

    pub(crate) fn create_dirs(&self, out: &Path) -> Result<(), CampaignError> {
        for d in [out, &self.points, &self.checkpoints] {
            std::fs::create_dir_all(d).map_err(|e| io_err(d, e))?;
        }
        Ok(())
    }
}

/// The slice schedule for one point, in absolute nanoseconds: every
/// checkpoint-cadence multiple below the end of measurement, plus the
/// warm-up boundary and the end itself. Identical for fresh and resumed
/// runs — the property that makes resume bit-exact.
pub(crate) fn boundaries(m: &Manifest) -> Vec<u64> {
    let t1 = m.warmup.as_nanos();
    let t2 = t1 + m.measure.as_nanos();
    let step = m.checkpoint_every.as_nanos().max(1);
    let mut b: Vec<u64> = (1..).map(|k| k * step).take_while(|&t| t < t2).collect();
    b.push(t1);
    b.push(t2);
    b.sort_unstable();
    b.dedup();
    b.retain(|&t| t > 0);
    b
}

/// Encode a point checkpoint: the label (sanity check), the metric
/// lines emitted so far, and the simulation checkpoint — all inside one
/// checksummed envelope, so corruption anywhere is detected on open.
fn encode_point(label: &str, lines: &[String], sim_ckpt: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.str(label);
    w.str(&lines.join("\n"));
    w.bytes(sim_ckpt);
    w.into_envelope()
}

/// Decode a point checkpoint: `restore` rebuilds the simulation (or
/// fleet) from the embedded checkpoint, and the artifact lines
/// accumulated before the snapshot come back with it.
pub(crate) fn decode_point<T>(
    label: &str,
    bytes: &[u8],
    restore: impl FnOnce(&[u8]) -> Result<T, RunError>,
) -> Result<(T, Vec<String>), RunError> {
    let mut r = SnapReader::open(bytes)?;
    if r.str()? != label {
        return Err(SnapError::Corrupt("checkpoint label mismatch").into());
    }
    let joined = r.str()?.to_string();
    let restored = restore(r.bytes()?)?;
    r.finish()?;
    Ok((restored, joined.lines().map(String::from).collect()))
}

/// A grid point's configuration: one host or a fleet.
enum Config {
    Host(TestbedConfig),
    Fleet(FleetConfig),
}

impl Config {
    /// Build and validate the configuration of `p`.
    fn of(m: &Manifest, p: &PointSpec) -> Result<Config, CampaignError> {
        let invalid = |source| CampaignError::Run {
            label: p.label.clone(),
            source,
        };
        if p.fleet.is_some() {
            let cfg = m.build_fleet_config(p)?;
            cfg.validate().map_err(invalid)?;
            Ok(Config::Fleet(cfg))
        } else {
            let cfg = m.build_config(p)?;
            cfg.validate().map_err(|e| invalid(e.into()))?;
            Ok(Config::Host(cfg))
        }
    }

    /// When the first fault window opens, in nanoseconds.
    fn earliest_fault(&self) -> Option<u64> {
        let plan = match self {
            Config::Host(cfg) => &cfg.faults,
            Config::Fleet(cfg) => &cfg.base.faults,
        };
        plan.specs
            .iter()
            .flat_map(|s| s.occurrences())
            .map(|d| d.as_nanos())
            .min()
    }

    fn fresh(&self) -> Result<Point, RunError> {
        Ok(match self {
            Config::Host(cfg) => Point::Host(Box::new(Simulation::new(cfg.clone()))),
            Config::Fleet(cfg) => Point::Fleet(Box::new(Fleet::new(cfg)?)),
        })
    }

    fn restore(&self, bytes: &[u8]) -> Result<Point, RunError> {
        Ok(match self {
            Config::Host(cfg) => Point::Host(Box::new(Simulation::restore_checkpoint(
                cfg.clone(),
                bytes,
            )?)),
            Config::Fleet(cfg) => Point::Fleet(Box::new(Fleet::restore_checkpoint(cfg, bytes)?)),
        })
    }
}

/// A running grid point. The slice loop in [`execute`] is the same for
/// both kinds; only what this enum's methods do differs.
enum Point {
    Host(Box<Simulation>),
    Fleet(Box<Fleet>),
}

impl Point {
    fn now(&self) -> SimTime {
        match self {
            Point::Host(sim) => sim.now(),
            Point::Fleet(fleet) => fleet.now(),
        }
    }

    /// Run to the slice boundary `t`; a tripped watchdog is the error.
    fn run_to(&mut self, t: SimTime) -> Result<(), RunError> {
        match self {
            Point::Host(sim) => match sim.run_to(t) {
                RunOutcome::Stalled { at } => Err(sim.stall_error(at)),
                _ => Ok(()),
            },
            Point::Fleet(fleet) => fleet.run_to(t),
        }
    }

    /// Arm metrics at the warm-up boundary (every host of a fleet).
    fn arm_metrics(&mut self, t: SimTime) {
        match self {
            Point::Host(sim) => sim.world_mut().arm_metrics(t),
            Point::Fleet(fleet) => {
                for h in fleet.hosts_mut() {
                    h.sim_mut().world_mut().arm_metrics(t);
                }
            }
        }
    }

    fn save_checkpoint(&self) -> Result<Vec<u8>, SnapError> {
        match self {
            Point::Host(sim) => sim.save_checkpoint(),
            Point::Fleet(fleet) => fleet.save_checkpoint(),
        }
    }

    fn dispatched_total(&self) -> u64 {
        match self {
            Point::Host(sim) => sim.dispatched_total(),
            Point::Fleet(fleet) => fleet.dispatched_total(),
        }
    }

    /// The final-metrics line at the end of measurement `t2`.
    fn final_line(&mut self, t2: u64) -> String {
        let t = SimTime::from_nanos(t2);
        match self {
            Point::Host(sim) => final_line(t2, &sim.world_mut().snapshot(t)),
            Point::Fleet(fleet) => {
                let per_host: Vec<RunMetrics> = fleet
                    .hosts_mut()
                    .iter_mut()
                    .map(|h| h.sim_mut().world_mut().snapshot(t))
                    .collect();
                fleet_final_line(t2, fleet, &per_host)
            }
        }
    }

    /// End a slice. A fleet is cost-rebalanced onto its measured
    /// per-host event counters — observationally inert (placement never
    /// feeds the simulation), so artifacts stay byte-identical with or
    /// without it, interrupted or not.
    fn end_slice(&mut self) {
        if let Point::Fleet(fleet) = self {
            fleet.rebalance();
        }
    }
}

/// Render the final-metrics JSONL line for a completed fleet point:
/// aggregates over every host, plus the engine's epoch accounting. The
/// aggregate throughput carries its IEEE-754 bit pattern so artifact
/// diffs stay exact, same as the single-host final line. Placement-
/// derived numbers (per-shard totals, imbalance) are deliberately
/// absent: artifacts must be bit-identical under any host→shard
/// assignment.
fn fleet_final_line(t2: u64, fleet: &Fleet, per_host: &[RunMetrics]) -> String {
    let delivered: u64 = per_host.iter().map(|m| m.delivered_packets).sum();
    let payload: u64 = per_host.iter().map(|m| m.delivered_payload_bytes).sum();
    let drops: u64 = per_host.iter().map(|m| m.host_drops()).sum();
    let retransmits: u64 = per_host.iter().map(|m| m.retransmits).sum();
    let gbps: f64 = per_host.iter().map(|m| m.app_throughput_gbps()).sum();
    format!(
        "{{\"t_ns\":{t2},\"final\":true,\"fleet_hosts\":{},\
         \"delivered_packets\":{delivered},\"delivered_payload_bytes\":{payload},\
         \"drops\":{drops},\"retransmits\":{retransmits},\
         \"aggregate_gbps\":{gbps:.3},\"aggregate_bits\":{},\
         \"epochs\":{},\"super_epochs\":{}}}",
        per_host.len(),
        gbps.to_bits(),
        fleet.epochs(),
        fleet.super_epochs(),
    )
}

/// Render the final-metrics JSONL line for a completed point. Floats are
/// carried as IEEE-754 bit patterns alongside the readable value, so
/// artifact diffs are exact.
fn final_line(t2: u64, m: &RunMetrics) -> String {
    format!(
        "{{\"t_ns\":{t2},\"final\":true,\"delivered_packets\":{},\
         \"delivered_payload_bytes\":{},\"drops\":{},\"retransmits\":{},\
         \"iotlb_misses\":{},\"p99_us\":{:.3},\"p99_bits\":{}}}",
        m.delivered_packets,
        m.delivered_payload_bytes,
        m.host_drops(),
        m.retransmits,
        m.iotlb_misses,
        m.host_delay_p99_us(),
        m.host_delay_p99_us().to_bits(),
    )
}

/// Execute (or resume) a campaign. `log` receives human-facing progress
/// lines; artifacts land under `out`. Returns the per-point report; the
/// only hard errors are filesystem failures and manifest-level problems
/// — a stalled or checkpoint-corrupt point degrades gracefully instead.
pub fn execute(
    m: &Manifest,
    out: &Path,
    opts: &ExecuteOptions,
    log: &mut dyn FnMut(&str),
) -> Result<RunReport, CampaignError> {
    let layout = Layout::new(out);
    layout.create_dirs(out)?;
    let mut report = RunReport::default();

    let done: std::collections::BTreeSet<String> = if opts.resume {
        let (entries, torn) = read_journal(&layout.journal)?;
        if torn > 0 {
            log(&format!(
                "journal: dropped {torn} torn trailing line(s) from an interrupted write"
            ));
            // Compact the journal to the parsable entries, atomically,
            // so this run's appends cannot merge into the torn tail.
            let mut body = String::new();
            for e in &entries {
                body.push_str(&e.to_line());
                body.push('\n');
            }
            atomic_write(&layout.journal, body.as_bytes())?;
        }
        entries.into_iter().map(|e| e.label).collect()
    } else {
        // A fresh (non-resume) execution starts the campaign over.
        if layout.journal.exists() {
            std::fs::write(&layout.journal, b"").map_err(|e| io_err(&layout.journal, e))?;
        }
        Default::default()
    };

    let bounds = boundaries(m);
    let t1 = m.warmup.as_nanos();
    let t2 = t1 + m.measure.as_nanos();
    let mut slices_done: u64 = 0;

    'points: for p in m.points() {
        if done.contains(&p.label) {
            report.skipped.push(p.label.clone());
            continue;
        }
        let run_err = |source| CampaignError::Run {
            label: p.label.clone(),
            source,
        };
        let cfg = Config::of(m, &p)?;
        let earliest_fault = cfg.earliest_fault();

        // Restore from the latest checkpoint, or start fresh — falling
        // back to fresh (with a warning) when the checkpoint is corrupt
        // or truncated. Never a panic: every decode failure is a typed
        // error routed here.
        let ckpt_path = layout.checkpoint(&p.label);
        let mut restored = None;
        if opts.resume && ckpt_path.exists() {
            let raw = std::fs::read(&ckpt_path).map_err(|e| io_err(&ckpt_path, e))?;
            match decode_point(&p.label, &raw, |b| cfg.restore(b)) {
                Ok((point, lines)) => {
                    report.resumed.push(p.label.clone());
                    log(&format!(
                        "{}: restored checkpoint at {} ns ({} slice(s) already recorded)",
                        p.label,
                        point.now().as_nanos(),
                        lines.len()
                    ));
                    restored = Some((point, lines));
                }
                Err(e) => {
                    log(&format!(
                        "{}: checkpoint unusable ({e}); restarting point from scratch",
                        p.label
                    ));
                    report.fallbacks.push(p.label.clone());
                }
            }
        }
        let (mut point, mut lines) = match restored {
            Some(restored) => restored,
            None => {
                // Clear stale artifacts from any earlier attempt.
                for stale in [&ckpt_path, &layout.prefault(&p.label)] {
                    match std::fs::remove_file(stale) {
                        Ok(()) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(io_err(stale, e)),
                    }
                }
                (cfg.fresh().map_err(run_err)?, Vec::new())
            }
        };
        // Regenerate the artifact from the checkpoint's embedded lines
        // (fresh runs truncate it) so artifact and state always agree.
        atomic_write(&layout.artifact(&p.label), render(&lines).as_bytes())?;

        let resumed_from = point.now().as_nanos();
        for &b in bounds.iter().filter(|&&b| b > resumed_from) {
            if let Some(limit) = opts.abort_after_slices {
                if slices_done >= limit {
                    report.aborted = true;
                    log(&format!(
                        "aborting after {slices_done} slice(s) (simulated crash)"
                    ));
                    return Ok(report);
                }
            }
            let bt = SimTime::from_nanos(b);
            if let Err(e) = point.run_to(bt) {
                let at = match &e {
                    RunError::Stalled { at, .. } => at.as_nanos(),
                    _ => b,
                };
                let entry = JournalEntry {
                    label: p.label.clone(),
                    status: "failed".to_string(),
                    t_ns: at,
                };
                append_journal(&layout.journal, &entry)?;
                let msg = format!("{e}; last checkpoint kept");
                log(&format!("{}: {msg}", p.label));
                report.failed.push((p.label.clone(), msg));
                continue 'points;
            }
            if b == t1 {
                point.arm_metrics(bt);
            }
            let sim_ckpt = point.save_checkpoint().map_err(|e| run_err(e.into()))?;
            lines.push(format!(
                "{{\"t_ns\":{b},\"digest\":{},\"dispatched\":{}}}",
                fnv1a_64(&sim_ckpt),
                point.dispatched_total()
            ));
            if b == t2 {
                lines.push(point.final_line(t2));
            }
            let envelope = encode_point(&p.label, &lines, &sim_ckpt);
            if earliest_fault.is_some_and(|ef| b < ef) {
                atomic_write(&layout.prefault(&p.label), &envelope)?;
            }
            atomic_write(&ckpt_path, &envelope)?;
            atomic_write(&layout.artifact(&p.label), render(&lines).as_bytes())?;
            slices_done += 1;
            point.end_slice();
        }

        append_journal(
            &layout.journal,
            &JournalEntry {
                label: p.label.clone(),
                status: "done".to_string(),
                t_ns: t2,
            },
        )?;
        log(&format!(
            "{}: done ({} artifact lines)",
            p.label,
            lines.len()
        ));
        report.completed.push(p.label.clone());
    }
    Ok(report)
}

/// Join artifact lines with a trailing newline (empty file for no lines).
fn render(lines: &[String]) -> String {
    if lines.is_empty() {
        String::new()
    } else {
        let mut s = lines.join("\n");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hostcc-campaign-runner-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_manifest() -> Manifest {
        Manifest::parse(
            "name = tiny\n\
             warmup_ms = 1\n\
             measure_ms = 2\n\
             checkpoint_every_ms = 1\n\
             scenarios = incast\n\
             seeds = 7\n",
        )
        .unwrap()
    }

    fn quiet() -> impl FnMut(&str) {
        |_msg: &str| {}
    }

    #[test]
    fn boundary_grid_includes_arm_and_end() {
        let m = tiny_manifest();
        assert_eq!(boundaries(&m), vec![1_000_000, 2_000_000, 3_000_000]);
        let m = Manifest::parse(
            "warmup_ms = 5\nmeasure_ms = 10\ncheckpoint_every_ms = 4\nscenarios = incast\n",
        )
        .unwrap();
        // Cadence multiples below 15 ms, plus t1 = 5 ms and t2 = 15 ms.
        assert_eq!(
            boundaries(&m),
            vec![4_000_000, 5_000_000, 8_000_000, 12_000_000, 15_000_000]
        );
    }

    #[test]
    fn completes_and_journals_a_tiny_campaign() {
        let m = tiny_manifest();
        let d = tmpdir("complete");
        let mut log = quiet();
        let r = execute(&m, &d, &ExecuteOptions::default(), &mut log).unwrap();
        assert_eq!(r.completed, vec!["incast-s7-none-o0"]);
        assert!(r.failed.is_empty() && !r.aborted);
        let (journal, _) = read_journal(&d.join("journal.jsonl")).unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal[0].status, "done");
        let art = fs::read_to_string(d.join("points/incast-s7-none-o0.jsonl")).unwrap();
        // 3 slice records + the final metrics line.
        assert_eq!(art.lines().count(), 4, "{art}");
        assert!(art.lines().last().unwrap().contains("\"final\":true"));
        // Resume after completion: everything skipped, artifact untouched.
        let r = execute(
            &m,
            &d,
            &ExecuteOptions {
                resume: true,
                ..Default::default()
            },
            &mut log,
        )
        .unwrap();
        assert_eq!(r.skipped, vec!["incast-s7-none-o0"]);
        assert!(r.completed.is_empty());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn kill_and_resume_reproduces_artifacts_byte_for_byte() {
        let m = tiny_manifest();
        let reference = tmpdir("ref");
        let interrupted = tmpdir("int");
        let mut log = quiet();
        execute(&m, &reference, &ExecuteOptions::default(), &mut log).unwrap();

        // Crash after two slice boundaries, then resume to completion.
        let r = execute(
            &m,
            &interrupted,
            &ExecuteOptions {
                resume: false,
                abort_after_slices: Some(2),
            },
            &mut log,
        )
        .unwrap();
        assert!(r.aborted);
        assert!(r.completed.is_empty());
        let r = execute(
            &m,
            &interrupted,
            &ExecuteOptions {
                resume: true,
                ..Default::default()
            },
            &mut log,
        )
        .unwrap();
        assert_eq!(r.resumed, vec!["incast-s7-none-o0"]);
        assert_eq!(r.completed, vec!["incast-s7-none-o0"]);

        let a = fs::read(reference.join("points/incast-s7-none-o0.jsonl")).unwrap();
        let b = fs::read(interrupted.join("points/incast-s7-none-o0.jsonl")).unwrap();
        assert_eq!(a, b, "resumed artifact must be byte-identical");
        let _ = fs::remove_dir_all(&reference);
        let _ = fs::remove_dir_all(&interrupted);
    }

    fn tiny_fleet_manifest() -> Manifest {
        Manifest::parse(
            "name = tinyfleet\n\
             warmup_ms = 1\n\
             measure_ms = 2\n\
             checkpoint_every_ms = 1\n\
             scenarios = fleet\n\
             seeds = 3\n\
             fleet_hosts = 4\n\
             fleet_shards = 2\n\
             fleet_topology = tree:2\n",
        )
        .unwrap()
    }

    #[test]
    fn fleet_point_completes_with_aggregate_final_line() {
        let m = tiny_fleet_manifest();
        let d = tmpdir("fleet");
        let mut log = quiet();
        let r = execute(&m, &d, &ExecuteOptions::default(), &mut log).unwrap();
        assert_eq!(r.completed, vec!["fleet-h4-x2-tree.2-s3-none-o0"]);
        assert!(r.failed.is_empty() && !r.aborted);
        let art = fs::read_to_string(d.join("points/fleet-h4-x2-tree.2-s3-none-o0.jsonl")).unwrap();
        assert_eq!(art.lines().count(), 4, "{art}");
        let last = art.lines().last().unwrap();
        assert!(last.contains("\"final\":true"), "{last}");
        assert!(last.contains("\"fleet_hosts\":4"), "{last}");
        assert!(last.contains("\"aggregate_gbps\":"), "{last}");
        assert!(last.contains("\"epochs\":"), "{last}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn fleet_kill_and_resume_reproduces_artifacts_byte_for_byte() {
        let m = tiny_fleet_manifest();
        let reference = tmpdir("fref");
        let interrupted = tmpdir("fint");
        let mut log = quiet();
        execute(&m, &reference, &ExecuteOptions::default(), &mut log).unwrap();

        let r = execute(
            &m,
            &interrupted,
            &ExecuteOptions {
                resume: false,
                abort_after_slices: Some(2),
            },
            &mut log,
        )
        .unwrap();
        assert!(r.aborted);
        assert!(r.completed.is_empty());
        let r = execute(
            &m,
            &interrupted,
            &ExecuteOptions {
                resume: true,
                ..Default::default()
            },
            &mut log,
        )
        .unwrap();
        assert_eq!(r.resumed, vec!["fleet-h4-x2-tree.2-s3-none-o0"]);
        assert_eq!(r.completed, vec!["fleet-h4-x2-tree.2-s3-none-o0"]);

        let a = fs::read(reference.join("points/fleet-h4-x2-tree.2-s3-none-o0.jsonl")).unwrap();
        let b = fs::read(interrupted.join("points/fleet-h4-x2-tree.2-s3-none-o0.jsonl")).unwrap();
        assert_eq!(a, b, "resumed fleet artifact must be byte-identical");
        let _ = fs::remove_dir_all(&reference);
        let _ = fs::remove_dir_all(&interrupted);
    }

    /// One single-host and one fleet point, with their labels: the two
    /// kinds every restore-path test runs over.
    fn both_kinds() -> [(Manifest, &'static str); 2] {
        [
            (tiny_manifest(), "incast-s7-none-o0"),
            (tiny_fleet_manifest(), "fleet-h4-x2-tree.2-s3-none-o0"),
        ]
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_scratch_and_still_completes() {
        for (m, label) in both_kinds() {
            let reference = tmpdir(&format!("cref-{label}"));
            let damaged = tmpdir(&format!("cdam-{label}"));
            let mut log = quiet();
            execute(&m, &reference, &ExecuteOptions::default(), &mut log).unwrap();
            execute(
                &m,
                &damaged,
                &ExecuteOptions {
                    resume: false,
                    abort_after_slices: Some(2),
                },
                &mut log,
            )
            .unwrap();
            // Flip a byte deep in the checkpoint payload.
            let ckpt = damaged.join(format!("checkpoints/{label}.ckpt"));
            let mut raw = fs::read(&ckpt).unwrap();
            let mid = raw.len() / 2;
            raw[mid] ^= 0x40;
            fs::write(&ckpt, &raw).unwrap();

            let mut warnings = Vec::new();
            let mut log = |msg: &str| warnings.push(msg.to_string());
            let r = execute(
                &m,
                &damaged,
                &ExecuteOptions {
                    resume: true,
                    ..Default::default()
                },
                &mut log,
            )
            .unwrap();
            assert_eq!(r.fallbacks, vec![label]);
            assert_eq!(r.completed, vec![label]);
            assert!(
                warnings.iter().any(|w| w.contains("checkpoint unusable")),
                "{warnings:?}"
            );
            let artifact = format!("points/{label}.jsonl");
            let a = fs::read(reference.join(&artifact)).unwrap();
            let b = fs::read(damaged.join(&artifact)).unwrap();
            assert_eq!(
                a, b,
                "{label}: restart-from-scratch still converges to the reference"
            );
            let _ = fs::remove_dir_all(&reference);
            let _ = fs::remove_dir_all(&damaged);
        }
    }

    #[test]
    fn truncated_checkpoint_is_a_typed_fallback_too() {
        for (m, label) in both_kinds() {
            let d = tmpdir(&format!("trunc-{label}"));
            let mut log = quiet();
            execute(
                &m,
                &d,
                &ExecuteOptions {
                    resume: false,
                    abort_after_slices: Some(1),
                },
                &mut log,
            )
            .unwrap();
            let ckpt = d.join(format!("checkpoints/{label}.ckpt"));
            let raw = fs::read(&ckpt).unwrap();
            fs::write(&ckpt, &raw[..raw.len() / 3]).unwrap();
            let r = execute(
                &m,
                &d,
                &ExecuteOptions {
                    resume: true,
                    ..Default::default()
                },
                &mut log,
            )
            .unwrap();
            assert_eq!(r.fallbacks, vec![label]);
            assert_eq!(r.completed, vec![label]);
            let _ = fs::remove_dir_all(&d);
        }
    }
}

//! The campaign execution loop: checkpoint, stream, resume.
//!
//! Every grid point advances through the same deterministic *slice
//! schedule*: the checkpoint cadence grid, plus the warm-up boundary
//! (where metrics arm) and the end of measurement. At each boundary the
//! runner snapshots the simulation with
//! [`Simulation::save_checkpoint`], appends one slice record to the
//! point's metrics JSONL, and atomically rewrites both the artifact and
//! the point checkpoint. The checkpoint embeds the metric lines emitted
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
use crate::manifest::Manifest;
use crate::{io_err, CampaignError};
use hostcc::fleet::{Fleet, FleetConfig};
use hostcc_host::{RunError, Simulation, TestbedConfig};
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
    pub aborted: bool,
}

/// Artifact layout under the campaign output directory.
pub(crate) struct Layout {
    /// Append-only completion journal.
    pub journal: PathBuf,
    /// Per-point metrics JSONL directory.
    pub points: PathBuf,
    /// Per-point checkpoint directory.
    pub checkpoints: PathBuf,
}

impl Layout {
    pub fn new(out: &Path) -> Layout {
        Layout {
            journal: out.join("journal.jsonl"),
            points: out.join("points"),
            checkpoints: out.join("checkpoints"),
        }
    }

    pub fn artifact(&self, label: &str) -> PathBuf {
        self.points.join(format!("{label}.jsonl"))
    }

    pub fn checkpoint(&self, label: &str) -> PathBuf {
        self.checkpoints.join(format!("{label}.ckpt"))
    }

    /// The checkpoint taken at the last slice boundary strictly before
    /// the point's first fault window — bisect's starting state.
    pub fn prefault(&self, label: &str) -> PathBuf {
        self.checkpoints.join(format!("{label}.prefault.ckpt"))
    }

    pub fn create_dirs(&self, out: &Path) -> Result<(), CampaignError> {
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

/// Decode a point checkpoint back into a restored simulation plus the
/// artifact lines accumulated before the snapshot.
pub(crate) fn decode_point(
    cfg: TestbedConfig,
    label: &str,
    bytes: &[u8],
) -> Result<(Simulation, Vec<String>), SnapError> {
    let mut r = SnapReader::open(bytes)?;
    if r.str()? != label {
        return Err(SnapError::Corrupt("checkpoint label mismatch"));
    }
    let joined = r.str()?.to_string();
    let sim_bytes = r.bytes()?;
    let sim = Simulation::restore_checkpoint(cfg, sim_bytes)?;
    r.finish()?;
    let lines = if joined.is_empty() {
        Vec::new()
    } else {
        joined.lines().map(String::from).collect()
    };
    Ok((sim, lines))
}

/// Decode a point checkpoint back into a restored fleet plus the
/// artifact lines accumulated before the snapshot (the fleet analogue of
/// [`decode_point`]; same envelope, fleet checkpoint in the bytes slot).
fn decode_fleet_point(
    cfg: &FleetConfig,
    label: &str,
    bytes: &[u8],
) -> Result<(Fleet, Vec<String>), RunError> {
    let mut r = SnapReader::open(bytes)?;
    if r.str()? != label {
        return Err(SnapError::Corrupt("checkpoint label mismatch").into());
    }
    let joined = r.str()?.to_string();
    let fleet_bytes = r.bytes()?;
    let fleet = Fleet::restore_checkpoint(cfg, fleet_bytes)?;
    r.finish()?;
    let lines = if joined.is_empty() {
        Vec::new()
    } else {
        joined.lines().map(String::from).collect()
    };
    Ok((fleet, lines))
}

/// Render the final-metrics JSONL line for a completed fleet point:
/// aggregates over every host, plus the engine's epoch accounting. The
/// aggregate throughput carries its IEEE-754 bit pattern so artifact
/// diffs stay exact, same as the single-host final line. Placement-
/// derived numbers (per-shard totals, imbalance) are deliberately
/// absent: artifacts must be bit-identical under any host→shard
/// assignment.
fn fleet_final_line(t2: u64, fleet: &Fleet, per_host: &[hostcc_host::RunMetrics]) -> String {
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
fn final_line(t2: u64, m: &hostcc_host::RunMetrics) -> String {
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
        if p.fleet.is_some() {
            let aborted = run_fleet_point(
                m,
                &p,
                &layout,
                opts,
                &bounds,
                (t1, t2),
                &mut slices_done,
                &mut report,
                log,
            )?;
            if aborted {
                return Ok(report);
            }
            continue;
        }
        let cfg = m.build_config(&p)?;
        cfg.validate().map_err(|source| CampaignError::Run {
            label: p.label.clone(),
            source: RunError::from(source),
        })?;
        let earliest_fault: Option<u64> = cfg
            .faults
            .specs
            .iter()
            .flat_map(|s| s.occurrences())
            .map(|d| d.as_nanos())
            .min();

        // Restore from the latest checkpoint, or start fresh — falling
        // back to fresh (with a warning) when the checkpoint is corrupt
        // or truncated. Never a panic: every decode failure is a typed
        // SnapError routed here.
        let ckpt_path = layout.checkpoint(&p.label);
        let mut restored = false;
        let (mut sim, mut lines) = if opts.resume && ckpt_path.exists() {
            let raw = std::fs::read(&ckpt_path).map_err(|e| io_err(&ckpt_path, e))?;
            match decode_point(cfg.clone(), &p.label, &raw) {
                Ok((sim, lines)) => {
                    restored = true;
                    report.resumed.push(p.label.clone());
                    log(&format!(
                        "{}: restored checkpoint at {} ns ({} slice(s) already recorded)",
                        p.label,
                        sim.now().as_nanos(),
                        lines.len()
                    ));
                    (sim, lines)
                }
                Err(e) => {
                    log(&format!(
                        "{}: checkpoint unusable ({e}); restarting point from scratch",
                        p.label
                    ));
                    report.fallbacks.push(p.label.clone());
                    (Simulation::new(cfg.clone()), Vec::new())
                }
            }
        } else {
            (Simulation::new(cfg.clone()), Vec::new())
        };
        if !restored {
            // Clear stale artifacts from any earlier attempt.
            for stale in [&ckpt_path, &layout.prefault(&p.label)] {
                match std::fs::remove_file(stale) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err(stale, e)),
                }
            }
        }
        // Regenerate the artifact from the checkpoint's embedded lines
        // (fresh runs truncate it) so artifact and state always agree.
        atomic_write(&layout.artifact(&p.label), render(&lines).as_bytes())?;

        let resumed_from = sim.now().as_nanos();
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
            if let RunOutcome::Stalled { at } = sim.run_to(bt) {
                let entry = JournalEntry {
                    label: p.label.clone(),
                    status: "failed".to_string(),
                    t_ns: at.as_nanos(),
                };
                append_journal(&layout.journal, &entry)?;
                let msg = format!(
                    "watchdog stall at {} ns; last checkpoint kept for `campaign bisect`",
                    at.as_nanos()
                );
                log(&format!("{}: {msg}", p.label));
                report.failed.push((p.label.clone(), msg));
                continue 'points;
            }
            if b == t1 {
                sim.world_mut().arm_metrics(bt);
            }
            let sim_ckpt = sim.save_checkpoint().map_err(|e| CampaignError::Run {
                label: p.label.clone(),
                source: RunError::from(e),
            })?;
            lines.push(format!(
                "{{\"t_ns\":{b},\"digest\":{},\"dispatched\":{}}}",
                fnv1a_64(&sim_ckpt),
                sim.dispatched_total()
            ));
            if b == t2 {
                lines.push(final_line(t2, &sim.world_mut().snapshot(bt)));
            }
            let envelope = encode_point(&p.label, &lines, &sim_ckpt);
            if earliest_fault.is_some_and(|ef| b < ef) {
                atomic_write(&layout.prefault(&p.label), &envelope)?;
            }
            atomic_write(&ckpt_path, &envelope)?;
            atomic_write(&layout.artifact(&p.label), render(&lines).as_bytes())?;
            slices_done += 1;
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

/// Execute (or resume) one fleet grid point through the same slice
/// schedule as the single-host path: run to each boundary, checkpoint
/// the whole fleet, append a digest line, and atomically rewrite the
/// artifact + checkpoint pair. After every boundary the engine is
/// cost-rebalanced onto the measured per-host event counters —
/// observationally inert (placement never feeds the simulation), so the
/// artifacts stay byte-identical with or without it, interrupted or not.
/// Returns `Ok(true)` when the simulated-crash hook fired.
#[allow(clippy::too_many_arguments)]
fn run_fleet_point(
    m: &Manifest,
    p: &crate::manifest::PointSpec,
    layout: &Layout,
    opts: &ExecuteOptions,
    bounds: &[u64],
    (t1, t2): (u64, u64),
    slices_done: &mut u64,
    report: &mut RunReport,
    log: &mut dyn FnMut(&str),
) -> Result<bool, CampaignError> {
    let run_err = |source: RunError| CampaignError::Run {
        label: p.label.clone(),
        source,
    };
    let cfg = m.build_fleet_config(p)?;
    cfg.validate().map_err(run_err)?;
    let earliest_fault: Option<u64> = cfg
        .base
        .faults
        .specs
        .iter()
        .flat_map(|s| s.occurrences())
        .map(|d| d.as_nanos())
        .min();

    let ckpt_path = layout.checkpoint(&p.label);
    let mut restored = false;
    let (mut fleet, mut lines) = if opts.resume && ckpt_path.exists() {
        let raw = std::fs::read(&ckpt_path).map_err(|e| io_err(&ckpt_path, e))?;
        match decode_fleet_point(&cfg, &p.label, &raw) {
            Ok((fleet, lines)) => {
                restored = true;
                report.resumed.push(p.label.clone());
                log(&format!(
                    "{}: restored fleet checkpoint at {} ns ({} slice(s) already recorded)",
                    p.label,
                    fleet.now().as_nanos(),
                    lines.len()
                ));
                (fleet, lines)
            }
            Err(e) => {
                log(&format!(
                    "{}: checkpoint unusable ({e}); restarting point from scratch",
                    p.label
                ));
                report.fallbacks.push(p.label.clone());
                (Fleet::new(&cfg).map_err(run_err)?, Vec::new())
            }
        }
    } else {
        (Fleet::new(&cfg).map_err(run_err)?, Vec::new())
    };
    if !restored {
        for stale in [&ckpt_path, &layout.prefault(&p.label)] {
            match std::fs::remove_file(stale) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(stale, e)),
            }
        }
    }
    atomic_write(&layout.artifact(&p.label), render(&lines).as_bytes())?;

    let resumed_from = fleet.now().as_nanos();
    for &b in bounds.iter().filter(|&&b| b > resumed_from) {
        if let Some(limit) = opts.abort_after_slices {
            if *slices_done >= limit {
                report.aborted = true;
                log(&format!(
                    "aborting after {} slice(s) (simulated crash)",
                    *slices_done
                ));
                return Ok(true);
            }
        }
        let bt = SimTime::from_nanos(b);
        if let Err(e) = fleet.run_to(bt) {
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
            return Ok(false);
        }
        if b == t1 {
            for h in fleet.hosts_mut() {
                h.sim_mut().world_mut().arm_metrics(bt);
            }
        }
        let fleet_ckpt = fleet
            .save_checkpoint()
            .map_err(|e| run_err(RunError::from(e)))?;
        lines.push(format!(
            "{{\"t_ns\":{b},\"digest\":{},\"dispatched\":{}}}",
            fnv1a_64(&fleet_ckpt),
            fleet.dispatched_total()
        ));
        if b == t2 {
            let per_host: Vec<hostcc_host::RunMetrics> = fleet
                .hosts_mut()
                .iter_mut()
                .map(|h| h.sim_mut().world_mut().snapshot(bt))
                .collect();
            lines.push(fleet_final_line(t2, &fleet, &per_host));
        }
        let envelope = encode_point(&p.label, &lines, &fleet_ckpt);
        if earliest_fault.is_some_and(|ef| b < ef) {
            atomic_write(&layout.prefault(&p.label), &envelope)?;
        }
        atomic_write(&ckpt_path, &envelope)?;
        atomic_write(&layout.artifact(&p.label), render(&lines).as_bytes())?;
        *slices_done += 1;
        fleet.rebalance();
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
    Ok(false)
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

    #[test]
    fn corrupt_checkpoint_falls_back_to_scratch_and_still_completes() {
        let m = tiny_manifest();
        let reference = tmpdir("cref");
        let damaged = tmpdir("cdam");
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
        let ckpt = damaged.join("checkpoints/incast-s7-none-o0.ckpt");
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
        assert_eq!(r.fallbacks, vec!["incast-s7-none-o0"]);
        assert_eq!(r.completed, vec!["incast-s7-none-o0"]);
        assert!(
            warnings.iter().any(|w| w.contains("checkpoint unusable")),
            "{warnings:?}"
        );
        let a = fs::read(reference.join("points/incast-s7-none-o0.jsonl")).unwrap();
        let b = fs::read(damaged.join("points/incast-s7-none-o0.jsonl")).unwrap();
        assert_eq!(
            a, b,
            "restart-from-scratch still converges to the reference"
        );
        let _ = fs::remove_dir_all(&reference);
        let _ = fs::remove_dir_all(&damaged);
    }

    #[test]
    fn truncated_checkpoint_is_a_typed_fallback_too() {
        let m = tiny_manifest();
        let d = tmpdir("trunc");
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
        let ckpt = d.join("checkpoints/incast-s7-none-o0.ckpt");
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
        assert_eq!(r.fallbacks.len(), 1);
        assert_eq!(r.completed.len(), 1);
        let _ = fs::remove_dir_all(&d);
    }
}

//! Chaos bisect-in-time: localize the first slot where a fault plan made
//! a run diverge.
//!
//! The runner keeps, for every faulted point, the checkpoint taken at
//! the last slice boundary *strictly before* the first fault window.
//! Bisect restores that checkpoint twice — a factual replica and a
//! counterfactual one with [`Testbed::suppress_faults`] set so pending
//! fault windows never open — and steps both forward in fine time
//! quanta. At each step it digests each replica's full serialized state
//! (the checkpoint codec doubles as a canonical state hash): the first
//! step where the digests differ is the first slot the fault reached
//! simulation state, bounded to within one quantum. The per-step digest
//! stream lands in `bisect/{label}.jsonl` as the finer-grained telemetry
//! the coarse campaign artifacts lack.
//!
//! [`Testbed::suppress_faults`]: hostcc_host::Testbed::suppress_faults

use crate::artifact::atomic_write;
use crate::manifest::Manifest;
use crate::runner::{decode_point, Layout};
use crate::{io_err, CampaignError};
use hostcc_host::{RunError, Simulation};
use hostcc_sim::{fnv1a_64, RunOutcome, SimDuration, SimTime};
use std::path::Path;

/// What a bisect run localized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectReport {
    /// The grid point bisected.
    pub label: String,
    /// Replay start (the pre-fault checkpoint's instant), nanoseconds.
    pub from_ns: u64,
    /// Replay end (end of the point's measurement window), nanoseconds.
    pub until_ns: u64,
    /// Replay quantum, nanoseconds.
    pub step_ns: u64,
    /// First step boundary where factual and counterfactual state
    /// digests differ (`None`: the fault plan never perturbed state).
    pub first_divergence_ns: Option<u64>,
    /// Where the factual replica stalled, if it did.
    pub stalled_ns: Option<u64>,
    /// Steps replayed (lines written to the bisect artifact).
    pub steps: usize,
}

/// Digest a replica's full state through the checkpoint codec.
fn digest(label: &str, sim: &Simulation) -> Result<u64, CampaignError> {
    sim.save_checkpoint()
        .map(|b| fnv1a_64(&b))
        .map_err(|e| CampaignError::Run {
            label: label.to_string(),
            source: RunError::from(e),
        })
}

/// Bisect one grid point. Requires a prior campaign run to have left a
/// pre-fault checkpoint under `out` (so the point must carry a fault
/// plan). `step` is the replay quantum; finer steps localize tighter
/// and cost proportionally more replay work.
pub fn bisect(
    m: &Manifest,
    out: &Path,
    label: &str,
    step: SimDuration,
    log: &mut dyn FnMut(&str),
) -> Result<BisectReport, CampaignError> {
    let p = m.find_point(label)?;
    let cfg = m.build_config(&p)?;
    let layout = Layout::new(out);
    let prefault = layout.prefault(label);
    if !prefault.exists() {
        return Err(CampaignError::MissingCheckpoint(label.to_string()));
    }
    let raw = std::fs::read(&prefault).map_err(|e| io_err(&prefault, e))?;
    let replica = || {
        decode_point(label, &raw, |b| {
            Ok(Simulation::restore_checkpoint(cfg.clone(), b)?)
        })
        .map(|(sim, _)| sim)
        .map_err(|source| CampaignError::Run {
            label: label.to_string(),
            source,
        })
    };
    let mut factual = replica()?;
    let mut counterfactual = replica()?;
    counterfactual.world_mut().suppress_faults();

    let from_ns = factual.now().as_nanos();
    let until_ns = (m.warmup + m.measure).as_nanos();
    let step_ns = step.as_nanos().max(1);
    log(&format!(
        "{label}: replaying {from_ns}..{until_ns} ns in {step_ns} ns quanta \
         (factual vs faults-suppressed)"
    ));

    let mut lines: Vec<String> = Vec::new();
    let mut first_divergence_ns = None;
    let mut stalled_ns = None;
    let mut t = from_ns;
    while t < until_ns {
        t = (t + step_ns).min(until_ns);
        let bt = SimTime::from_nanos(t);
        if let RunOutcome::Stalled { at } = factual.run_to(bt) {
            stalled_ns = Some(at.as_nanos());
            lines.push(format!("{{\"t_ns\":{t},\"stalled_ns\":{}}}", at.as_nanos()));
            break;
        }
        // The counterfactual replica has no fault windows left to open;
        // a stall there would be a genuine (fault-independent) hang and
        // still deserves a typed surface, not a panic.
        if let RunOutcome::Stalled { at } = counterfactual.run_to(bt) {
            return Err(CampaignError::Run {
                label: label.to_string(),
                source: counterfactual.stall_error(at),
            });
        }
        let df = digest(label, &factual)?;
        let dc = digest(label, &counterfactual)?;
        let diverged = df != dc;
        if diverged && first_divergence_ns.is_none() {
            first_divergence_ns = Some(t);
            log(&format!("{label}: first state divergence at {t} ns"));
        }
        lines.push(format!(
            "{{\"t_ns\":{t},\"digest_fault\":{df},\"digest_clean\":{dc},\
             \"open_windows\":{},\"diverged\":{diverged}}}",
            factual.world().faults.open_windows(),
        ));
    }

    let dir = out.join("bisect");
    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    let artifact = dir.join(format!("{label}.jsonl"));
    let mut body = lines.join("\n");
    body.push('\n');
    atomic_write(&artifact, body.as_bytes())?;

    Ok(BisectReport {
        label: label.to_string(),
        from_ns,
        until_ns,
        step_ns,
        first_divergence_ns,
        stalled_ns,
        steps: lines.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, ExecuteOptions};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hostcc-campaign-bisect-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn localizes_first_divergent_slot_of_a_fault_window() {
        // One faulted point: windows open at 6 ms; measurement ends at
        // 10 ms; cadence 2 ms leaves the pre-fault checkpoint at 4 ms.
        let m = Manifest::parse(
            "name = bisect\n\
             warmup_ms = 5\n\
             measure_ms = 5\n\
             checkpoint_every_ms = 2\n\
             scenarios = incast\n\
             faults = replay\n",
        )
        .unwrap();
        let d = tmpdir("replay");
        let mut log = |_: &str| {};
        let r = execute(&m, &d, &ExecuteOptions::default(), &mut log).unwrap();
        assert_eq!(r.completed.len(), 1);
        let label = "incast-s1-replay-o0";
        assert!(
            d.join(format!("checkpoints/{label}.prefault.ckpt"))
                .exists(),
            "runner must leave a pre-fault checkpoint for faulted points"
        );

        let rep = bisect(&m, &d, label, SimDuration::from_micros(250), &mut log).unwrap();
        // Boundaries below the 6 ms window: 2, 4 and 5 ms (warm-up);
        // the last one wins as the pre-fault checkpoint.
        assert_eq!(rep.from_ns, 5_000_000, "pre-fault checkpoint sits at 5 ms");
        assert_eq!(rep.until_ns, 10_000_000);
        let div = rep
            .first_divergence_ns
            .expect("a 30% NAK-rate window must perturb state");
        assert!(
            div >= 6_000_000,
            "divergence cannot precede the window opening at 6 ms (got {div})"
        );
        assert!(rep.stalled_ns.is_none());
        let body = fs::read_to_string(d.join(format!("bisect/{label}.jsonl"))).unwrap();
        assert_eq!(body.lines().count(), rep.steps);
        assert!(body.contains("\"diverged\":true"));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_prefault_checkpoint_is_a_typed_error() {
        let m = Manifest::parse(
            "warmup_ms = 1\nmeasure_ms = 1\ncheckpoint_every_ms = 1\n\
             scenarios = incast\nfaults = replay\n",
        )
        .unwrap();
        let d = tmpdir("missing");
        let mut log = |_: &str| {};
        // No campaign ran; the checkpoint cannot exist.
        let err = bisect(
            &m,
            &d,
            "incast-s1-replay-o0",
            SimDuration::from_micros(100),
            &mut log,
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::MissingCheckpoint(_)), "{err}");
        let err = bisect(&m, &d, "nope", SimDuration::from_micros(100), &mut log).unwrap_err();
        assert!(matches!(err, CampaignError::UnknownPoint(_)), "{err}");
        let _ = fs::remove_dir_all(&d);
    }
}

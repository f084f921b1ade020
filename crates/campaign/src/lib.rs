//! Checkpointed, resumable experiment campaigns.
//!
//! A campaign is a grid of runs — scenario × seed × fault-plan ×
//! config-override — described by a small text [`Manifest`] and executed
//! by a persistent `runner` loop that is designed to be killed at any
//! instant and resumed without losing or corrupting anything:
//!
//! * each in-flight run is checkpointed every `checkpoint_every_ms` of
//!   simulated time via [`hostcc_host::Simulation::save_checkpoint`],
//!   and the campaign-level checkpoint embeds the metric lines emitted
//!   so far, so a resumed run regenerates its artifact byte-for-byte;
//! * every artifact (metrics JSONL, checkpoints) is written with
//!   write-to-temp + fsync + atomic-rename — a `SIGKILL` leaves either
//!   the old complete file or the new complete file, never a torn one;
//! * finished points are recorded in an append-only completion journal
//!   that tolerates a truncated trailing line (the one write that cannot
//!   be made atomic without rewriting the whole file);
//! * a corrupt or truncated checkpoint is a warning plus a
//!   restart-from-scratch of that one point — graceful degradation,
//!   never a panic, and never a lost campaign.
//!
//! The [`bisect`](mod@bisect) module adds chaos bisect-in-time: restore the
//! checkpoint taken just before a point's first fault window, replay it
//! twice — factually and counterfactually (faults suppressed) — in fine
//! time quanta, and report the first slot where the two state digests
//! diverge.

pub(crate) mod artifact;
pub mod bisect;
pub(crate) mod manifest;
pub(crate) mod runner;

pub use bisect::bisect;
pub use manifest::Manifest;
pub use runner::{execute, ExecuteOptions};

use hostcc_host::RunError;
use std::path::PathBuf;

/// Typed campaign failures. Everything a malformed manifest, a hostile
/// filesystem or a stalled simulation can do surfaces here — the runner
/// itself never panics.
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O operation failed; carries the path for diagnosis.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The manifest failed to parse.
    Manifest {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A scenario name that is neither in `hostcc::scenarios::NAMED` nor
    /// `fleet`.
    UnknownScenario(String),
    /// A fault name outside replay|flap|stall|storm|throttle|preempt|none.
    UnknownFault(String),
    /// An override entry that is not `key=value` with a key and value
    /// `hostcc::scenarios::set` accepts.
    BadOverride(String),
    /// `campaign bisect` was pointed at a label not in the manifest grid.
    UnknownPoint(String),
    /// A single-host operation (bisect) was pointed at a fleet point.
    FleetPoint(String),
    /// Bisect needs a pre-fault checkpoint that was never written (the
    /// point has no faults, or the campaign has not run yet).
    MissingCheckpoint(String),
    /// A simulation failed in a way resume cannot route around.
    Run {
        /// The grid point's label.
        label: String,
        /// The underlying run error.
        source: RunError,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CampaignError::Manifest { line, reason } => {
                write!(f, "manifest line {line}: {reason}")
            }
            CampaignError::UnknownScenario(name) => {
                write!(f, "unknown scenario `{name}` (expected one of ")?;
                for (scenario, _) in hostcc::scenarios::NAMED {
                    write!(f, "{scenario}, ")?;
                }
                write!(f, "fleet)")
            }
            CampaignError::UnknownFault(name) => {
                write!(
                    f,
                    "unknown fault `{name}` \
                     (expected none|replay|flap|stall|storm|throttle|preempt)"
                )
            }
            CampaignError::BadOverride(entry) => {
                write!(
                    f,
                    "bad override `{entry}` (expected none or \
                     key=value[;key=value...] with keys {})",
                    hostcc::scenarios::OVERRIDES
                        .iter()
                        .map(|&(key, ..)| key)
                        .collect::<Vec<_>>()
                        .join("|")
                )
            }
            CampaignError::UnknownPoint(label) => {
                write!(f, "no grid point labelled `{label}` in this manifest")
            }
            CampaignError::FleetPoint(label) => {
                write!(
                    f,
                    "point `{label}` is a fleet point; this operation is \
                     single-host only (bisect a scenario point instead)"
                )
            }
            CampaignError::MissingCheckpoint(label) => {
                write!(
                    f,
                    "no pre-fault checkpoint for `{label}` — run the campaign \
                     first, and note bisect needs a point with a fault plan"
                )
            }
            CampaignError::Run { label, source } => {
                write!(f, "point `{label}`: {source}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io { source, .. } => Some(source),
            CampaignError::Run { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Attach a path to an `io::Error` (every I/O callsite goes through this
/// so `CampaignError::Io` always names the file involved).
pub(crate) fn io_err(path: &std::path::Path, source: std::io::Error) -> CampaignError {
    CampaignError::Io {
        path: path.to_path_buf(),
        source,
    }
}

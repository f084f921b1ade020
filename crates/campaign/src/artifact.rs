//! Crash-safe file primitives: atomic whole-file writes and the
//! append-only completion journal.
//!
//! The crash model is `SIGKILL` (or power loss) at any instruction.
//! Whole files — metric artifacts, checkpoints — are written to a
//! `.tmp` sibling, fsynced, and renamed into place: a reader sees either
//! the previous complete version or the new complete version. The
//! journal is the one append-in-place file; a crash mid-append leaves at
//! most one truncated trailing line, which [`read_journal`] detects and
//! skips (with a count, so the caller can log it) rather than failing.

use crate::{io_err, CampaignError};
use hostcc::substrate::trace::json;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Write `bytes` to `path` atomically: temp sibling + fsync + rename.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// One completion-journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JournalEntry {
    /// The grid point's label.
    pub(crate) label: String,
    /// `done` or `failed`.
    pub(crate) status: String,
    /// Simulated nanoseconds the point reached.
    pub(crate) t_ns: u64,
}

impl JournalEntry {
    /// Render as one JSONL line (labels are `[a-z0-9.+=;-]`, statuses are
    /// fixed words — no escaping needed).
    pub(crate) fn to_line(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"status\":\"{}\",\"t_ns\":{}}}",
            self.label, self.status, self.t_ns
        )
    }
}

/// Append one entry to the journal and fsync. Append is not atomic; the
/// reader tolerates the torn trailing line a crash here can leave.
pub(crate) fn append_journal(path: &Path, entry: &JournalEntry) -> Result<(), CampaignError> {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    let mut line = entry.to_line();
    line.push('\n');
    f.write_all(line.as_bytes()).map_err(|e| io_err(path, e))?;
    f.sync_all().map_err(|e| io_err(path, e))
}

/// Read the journal, skipping (and counting) torn or unparsable lines.
/// A missing journal is an empty one.
pub(crate) fn read_journal(path: &Path) -> Result<(Vec<JournalEntry>, usize), CampaignError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_err(path, e)),
    };
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = json::parse(line).ok().and_then(|v| {
            // Numbers parse as f64, exact for any t_ns below 2^53 ns.
            let t_ns = v
                .get("t_ns")?
                .as_f64()
                .filter(|t| *t >= 0.0 && t.fract() == 0.0)?;
            Some(JournalEntry {
                label: v.get("label")?.as_str()?.to_string(),
                status: v.get("status")?.as_str()?.to_string(),
                t_ns: t_ns as u64,
            })
        });
        match parsed {
            Some(e) => entries.push(e),
            None => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hostcc-campaign-artifact-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let d = tmpdir("atomic");
        let p = d.join("metrics.jsonl");
        atomic_write(&p, b"one\n").unwrap();
        atomic_write(&p, b"one\ntwo\n").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"one\ntwo\n");
        assert!(!p.with_extension("tmp").exists(), "tmp renamed away");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn journal_round_trips_and_tolerates_torn_tail() {
        let d = tmpdir("journal");
        let p = d.join("journal.jsonl");
        let a = JournalEntry {
            label: "incast-s1-none-o0".into(),
            status: "done".into(),
            t_ns: 15_000_000,
        };
        let b = JournalEntry {
            label: "incast-s2-replay-o0".into(),
            status: "failed".into(),
            t_ns: 7_500_000,
        };
        append_journal(&p, &a).unwrap();
        append_journal(&p, &b).unwrap();
        // A line whose fields come in another order still reads.
        let mut f = fs::OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(b"{\"t_ns\":42,\"status\":\"done\",\"label\":\"incast-s4-none-o0\"}\n")
            .unwrap();
        // Simulate a crash mid-append: a torn trailing line.
        f.write_all(b"{\"label\":\"incast-s3-none").unwrap();
        drop(f);
        let c = JournalEntry {
            label: "incast-s4-none-o0".into(),
            status: "done".into(),
            t_ns: 42,
        };
        let (entries, skipped) = read_journal(&p).unwrap();
        assert_eq!(entries, vec![a, b, c]);
        assert_eq!(skipped, 1, "torn line skipped, not fatal");
        // A missing journal reads as empty.
        let (entries, skipped) = read_journal(&d.join("absent.jsonl")).unwrap();
        assert!(entries.is_empty());
        assert_eq!(skipped, 0);
        let _ = fs::remove_dir_all(&d);
    }
}

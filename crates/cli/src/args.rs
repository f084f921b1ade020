//! Minimal dependency-free argument parsing for the `hostcc` CLI.
//!
//! Grammar: `hostcc <command> [positional] [--flag value]... [--switch]...`
//! Only what the CLI needs — not a general-purpose parser.

use std::collections::BTreeMap;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positionals: Vec<String>,
    /// `--key value` pairs and bare `--switch`es (value = "true").
    pub flags: BTreeMap<String, String>,
}

/// Parse errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` that is not a recognised switch and took no value.
    UnknownFlag(String),
    /// A value-taking `--flag` appeared with no value following it.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing command; try `hostcc help`"),
            ArgError::UnknownFlag(name) => write!(f, "unknown flag --{name}"),
            ArgError::MissingValue(name) => {
                write!(f, "flag --{name} requires a value, but none was given")
            }
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} {value}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Switches (flags that take no value).
const SWITCHES: &[&str] = &[
    "csv",
    "json",
    "quick",
    "help",
    "flight-recorder",
    "fuse-chains",
    "resume",
    "light",
    "rebalance",
];

/// Value-taking flags the CLI understands. Anything else is a typo the
/// parser rejects up front — silently ignoring it would make e.g.
/// `--thread 14` run with the scenario default.
const VALUE_FLAGS: &[&str] = &[
    "threads",
    "senders",
    "antagonists",
    "seed",
    "iommu",
    "region-mib",
    "host-target-us",
    "warmup-ms",
    "measure-ms",
    "faults",
    "trace-out",
    "trace-cap",
    "sample",
    "timeline",
    "telemetry-out",
    "telemetry-interval",
    "resolution",
    "hosts",
    "shards",
    "fanin",
    "topology",
    "fabric-us",
    "manifest",
    "out",
    "point",
    "step-us",
    "abort-after-slices",
];

/// Parse a raw argument vector (excluding argv[0]).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, ArgError> {
    let mut it = args.into_iter().peekable();
    let command = it.next().ok_or(ArgError::MissingCommand)?;
    let mut positionals = Vec::new();
    let mut flags = BTreeMap::new();
    while let Some(tok) = it.next() {
        if let Some(name) = tok.strip_prefix("--") {
            if SWITCHES.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
            } else if !VALUE_FLAGS.contains(&name) {
                return Err(ArgError::UnknownFlag(name.to_string()));
            } else {
                match it.next() {
                    Some(v) if !v.starts_with("--") => {
                        flags.insert(name.to_string(), v);
                    }
                    // A trailing `--flag`, or one followed by another
                    // `--flag`, is a present-but-valueless flag — report
                    // it as such, not as an unknown flag.
                    _ => return Err(ArgError::MissingValue(name.to_string())),
                }
            }
        } else {
            positionals.push(tok);
        }
    }
    Ok(ParsedArgs {
        command,
        positionals,
        flags,
    })
}

impl ParsedArgs {
    /// A flag's value parsed as `T`, or `default` when absent.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.clone(),
                expected,
            }),
        }
    }

    /// A boolean switch.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.get(flag).map(|v| v == "true").unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_positional_and_flags() {
        let p = parse(argv("run fig3 --threads 14 --iommu off --csv")).unwrap();
        assert_eq!(p.command, "run");
        assert_eq!(p.positionals, vec!["fig3"]);
        assert_eq!(p.flags.get("threads").unwrap(), "14");
        assert_eq!(p.flags.get("iommu").unwrap(), "off");
        assert!(p.switch("csv"));
        assert!(!p.switch("quick"));
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(argv("")), Err(ArgError::MissingCommand));
    }

    #[test]
    fn flag_without_value_rejected() {
        let e = parse(argv("run fig3 --threads")).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("threads".into()));
        let e = parse(argv("run fig3 --threads --csv")).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("threads".into()));
        let msg = format!("{e}");
        assert!(msg.contains("--threads"), "{msg}");
        assert!(msg.contains("requires a value"), "{msg}");
    }

    #[test]
    fn typed_accessors() {
        let p = parse(argv("run x --threads 12 --seed 7")).unwrap();
        assert_eq!(p.get_parsed("threads", 0u32, "integer").unwrap(), 12);
        assert_eq!(p.get_parsed("seed", 1u64, "integer").unwrap(), 7);
        assert_eq!(p.get_parsed("missing", 42u32, "integer").unwrap(), 42);
        let bad = parse(argv("run x --threads nope")).unwrap();
        assert!(bad.get_parsed("threads", 0u32, "integer").is_err());
    }

    #[test]
    fn unknown_flags_rejected_not_ignored() {
        let e = parse(argv("run fig3 --thread 14")).unwrap_err();
        assert_eq!(e, ArgError::UnknownFlag("thread".into()));
        let msg = format!("{e}");
        assert!(msg.contains("unknown flag --thread"), "{msg}");
    }

    #[test]
    fn telemetry_flags_parse() {
        let p = parse(argv(
            "run fig3 --telemetry-out t.jsonl --telemetry-interval 2500 --flight-recorder",
        ))
        .unwrap();
        assert_eq!(p.flags.get("telemetry-out").unwrap(), "t.jsonl");
        assert_eq!(p.flags.get("telemetry-interval").unwrap(), "2500");
        assert!(p.switch("flight-recorder"));
        // A value-taking telemetry flag with no value is a MissingValue,
        // not an unknown flag.
        let e = parse(argv("run fig3 --telemetry-out")).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("telemetry-out".into()));
        let e = parse(argv("run fig3 --telemetry-interval --csv")).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("telemetry-interval".into()));
    }

    #[test]
    fn error_display_is_actionable() {
        let msg = format!(
            "{}",
            ArgError::BadValue {
                flag: "threads".into(),
                value: "x".into(),
                expected: "integer",
            }
        );
        assert!(msg.contains("--threads"));
        assert!(msg.contains("integer"));
    }
}

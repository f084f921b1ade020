//! Dependency-free argument parsing for the `hostcc` CLI, driven by one
//! table: [`COMMANDS`] has a row per command listing the flags it reads,
//! and parsing, the `unknown flag` error and the help text all come
//! from that row.
//!
//! Grammar: `hostcc <command> [positional]... [--flag value]... [--switch]...`
//! Only what the CLI needs — not a general-purpose parser.

use hostcc::scenarios;
use std::collections::BTreeMap;

/// A flag as `(name, metavar, help)`. An empty metavar marks a switch,
/// a flag that takes no value. The override flags are the rows of
/// [`scenarios::OVERRIDES`].
pub(crate) type Flag = (&'static str, &'static str, &'static str);

/// One row of [`COMMANDS`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Command {
    /// The words that select it: `run`, or `campaign run`.
    pub(crate) name: &'static str,
    /// Its positional arguments as usage shows them, after a space
    /// (`" <scenario>"`).
    pub(crate) args: &'static str,
    /// What it does, in one line.
    pub(crate) about: &'static str,
    /// The flags it reads, in groups that several commands share.
    pub(crate) flags: &'static [&'static [Flag]],
}

// The flag groups: each flag is declared once, in one group, and a
// command's row lists the groups it reads. Laid out one flag a line.
#[rustfmt::skip]
const SCENARIO: &[Flag] = &[
    ("seed", "N", "RNG seed"),
    ("faults", "LIST", "1 ms windows every 5 ms of replay|flap|stall|storm|throttle|preempt"),
];
#[rustfmt::skip]
const PLAN: &[Flag] = &[
    ("warmup-ms", "N", "simulated warm-up in ms (default 25)"),
    ("measure-ms", "N", "simulated measurement in ms (default 25)"),
    ("quick", "", "short run: 5 ms warm-up, 10 ms measurement"),
    ("csv", "", "print the metrics table as CSV"),
];
const JSON: &[Flag] = &[("json", "", "print JSON instead of the metrics table")];
#[rustfmt::skip]
const TRACE: &[Flag] = &[
    ("trace-out", "FILE", "write a Chrome trace-event JSON file (Perfetto, chrome://tracing)"),
    ("trace-cap", "N", "trace ring-buffer capacity (default 200000)"),
    ("sample", "N", "trace 1 in N packet lifecycles (default 1)"),
    ("timeline", "NS", "record time series every NS nanoseconds"),
];
#[rustfmt::skip]
const TELEMETRY: &[Flag] = &[
    ("telemetry-out", "FILE", "stream one JSONL line per telemetry sample"),
    ("telemetry-interval", "NS", "telemetry sampling cadence (default 5000)"),
    ("flight-recorder", "", "dump recent samples on drop bursts, faults and stalls"),
];
#[rustfmt::skip]
const FLEET: &[Flag] = &[
    ("hosts", "N", "coupled hosts (default 8; 1000 with --light)"),
    ("shards", "N", "worker threads (default 1; results are identical at any count)"),
    ("topology", "SPEC", "ring:K fan-in ring, tree:K incast tree or rack:K racks (default ring:2)"),
    ("fabric-us", "N", "inter-host fabric latency in µs, the lookahead (default 8)"),
    ("light", "", "scale-out light-host template (small rings and buffers, telemetry off)"),
    ("rebalance", "", "place hosts on shards by measured cost after a probe slice"),
];
#[rustfmt::skip]
const MANIFEST: &[Flag] = &[
    ("manifest", "FILE", "campaign manifest (format in EXPERIMENTS.md)"),
    ("out", "DIR", "artifact directory: journal.jsonl, points/, checkpoints/, bisect/"),
];
#[rustfmt::skip]
const RESUME: &[Flag] = &[("resume", "", "skip journaled points and restore in-flight ones from checkpoints")];
#[rustfmt::skip]
const BISECT: &[Flag] = &[
    ("point", "LABEL", "grid point to bisect"),
    ("step-us", "N", "replay quantum in µs (default 250)"),
];

/// Every command and the flags it reads.
#[rustfmt::skip]
pub(crate) const COMMANDS: &[Command] = &[
    Command { name: "list", args: "", about: "list the named scenarios", flags: &[] },
    Command {
        name: "run", args: " <scenario>", about: "run one named scenario and print its metrics",
        flags: &[scenarios::OVERRIDES, SCENARIO, PLAN, JSON, TRACE, TELEMETRY],
    },
    Command {
        name: "sweep", args: " <scenario>", about: "run a scenario at each value of the one override given as A..B",
        flags: &[scenarios::OVERRIDES, SCENARIO, PLAN],
    },
    Command {
        name: "fleet", args: "", about: "run coupled hosts on the parallel engine; overrides shape every host",
        flags: &[FLEET, scenarios::OVERRIDES, SCENARIO, PLAN, JSON],
    },
    Command {
        name: "campaign run", args: "", about: "run a manifest's grid with checkpoints and crash-safe artifacts",
        flags: &[MANIFEST, RESUME],
    },
    Command {
        name: "campaign bisect", args: "", about: "replay a point with and without its faults; report the first divergent slot",
        flags: &[MANIFEST, BISECT],
    },
];

impl Command {
    /// The declaration of the flag `name` this command reads.
    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags
            .iter()
            .flat_map(|group| group.iter())
            .find(|f| f.0 == name)
    }

    /// This command's usage line, what it does and every flag it reads.
    pub(crate) fn usage(&self) -> String {
        let spec = |&(name, metavar, _): &Flag| format!("--{name} {metavar}");
        let all = || self.flags.iter().flat_map(|group| group.iter());
        let width = all().map(|f| spec(f).len()).max().unwrap_or(0);
        let mut out = format!("hostcc {}{}\n  {}\n", self.name, self.args, self.about);
        for f in all() {
            out += &format!("    {:width$}  {}\n", spec(f), f.2);
        }
        out
    }
}

/// `hostcc help`: every command's usage.
pub(crate) fn help() -> String {
    let mut out = String::from("hostcc — host-interconnect congestion laboratory\n");
    for c in COMMANDS {
        out += "\n";
        out += &c.usage();
    }
    out + "\n`hostcc <command> --help` prints one command's flags.\n"
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParsedArgs {
    /// The command's row.
    pub(crate) command: &'static Command,
    /// Positional arguments after the command.
    pub(crate) positionals: Vec<String>,
    /// `--key value` pairs and bare `--switch`es (value = "true").
    pub(crate) flags: BTreeMap<String, String>,
}

/// Parse errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ArgError {
    /// No command given.
    MissingCommand,
    /// The command line starts with no command of [`COMMANDS`].
    UnknownCommand(String),
    /// A `--flag` the command does not read.
    UnknownFlag {
        /// The command's name.
        command: &'static str,
        /// The flag, without its dashes.
        flag: String,
    },
    /// A positional argument beyond those the command's usage shows.
    StrayArgument {
        /// The command's name.
        command: &'static str,
        /// The argument.
        word: String,
    },
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
            ArgError::UnknownCommand(word) => {
                let names: Vec<_> = COMMANDS.iter().map(|c| c.name).collect();
                write!(
                    f,
                    "unknown command `{word}`; the commands are {}",
                    names.join(", ")
                )
            }
            ArgError::UnknownFlag { command, flag } => write!(
                f,
                "unknown flag --{flag}; `hostcc {command} --help` lists the flags {command} reads"
            ),
            ArgError::StrayArgument { command, word } => write!(
                f,
                "unexpected argument `{word}`; `hostcc {command} --help` shows what {command} takes"
            ),
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

impl From<ArgError> for String {
    fn from(e: ArgError) -> String {
        e.to_string()
    }
}

/// Parse a raw argument vector (excluding argv[0]) against the row of
/// the command it names. `--help` is accepted by every command.
pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, ArgError> {
    let args: Vec<String> = args.into_iter().collect();
    let first = args.first().ok_or(ArgError::MissingCommand)?;
    let (command, rest) = COMMANDS
        .iter()
        .find_map(|c| {
            let words = c.name.split(' ').count();
            let given = args.get(..words)?;
            (given.join(" ") == c.name).then(|| (c, &args[words..]))
        })
        .ok_or_else(|| ArgError::UnknownCommand(first.clone()))?;
    let mut positionals = Vec::new();
    let mut flags = BTreeMap::new();
    let mut it = rest.iter().cloned();
    while let Some(tok) = it.next() {
        let Some(name) = tok.strip_prefix("--") else {
            // The usage's `<…>` tokens are all the positionals it takes.
            if positionals.len() == command.args.matches('<').count() {
                return Err(ArgError::StrayArgument {
                    command: command.name,
                    word: tok,
                });
            }
            positionals.push(tok);
            continue;
        };
        match command.flag(name) {
            None if name != "help" => {
                return Err(ArgError::UnknownFlag {
                    command: command.name,
                    flag: name.to_string(),
                })
            }
            Some((_, metavar, _)) if !metavar.is_empty() => match it.next() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), v);
                }
                // A trailing `--flag`, or one followed by another
                // `--flag`, is a present-but-valueless flag — report
                // it as such, not as an unknown flag.
                _ => return Err(ArgError::MissingValue(name.to_string())),
            },
            _ => {
                flags.insert(name.to_string(), "true".to_string());
            }
        }
    }
    Ok(ParsedArgs {
        command,
        positionals,
        flags,
    })
}

impl ParsedArgs {
    /// The value of `flag`, which the command's row must declare.
    pub(crate) fn value(&self, flag: &str) -> Option<&String> {
        debug_assert!(
            flag == "help" || self.command.flag(flag).is_some(),
            "`{}` reads --{flag}, which its row of COMMANDS does not declare",
            self.command.name
        );
        self.flags.get(flag)
    }

    /// A flag's value parsed as `T`, or `default` when absent.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.clone(),
                expected,
            }),
        }
    }

    /// A boolean switch.
    pub(crate) fn switch(&self, flag: &str) -> bool {
        self.value(flag).is_some_and(|v| v == "true")
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
        assert_eq!(p.command.name, "run");
        assert_eq!(p.positionals, vec!["fig3"]);
        assert_eq!(p.flags.get("threads").unwrap(), "14");
        assert_eq!(p.flags.get("iommu").unwrap(), "off");
        assert!(p.switch("csv"));
        assert!(!p.switch("quick"));
        let p = parse(argv("campaign bisect --point x --manifest m")).unwrap();
        assert_eq!(p.command.name, "campaign bisect");
        assert!(p.positionals.is_empty());
        assert_eq!(p.flags.get("point").unwrap(), "x");
    }

    #[test]
    fn stray_positionals_rejected() {
        for (line, command, word) in [
            ("list extra", "list", "extra"),
            ("run fig3 extra --quick", "run", "extra"),
            (
                "fleet fig3 --quick --hosts 2 --topology ring:1 --csv",
                "fleet",
                "fig3",
            ),
            ("campaign run extra --manifest m", "campaign run", "extra"),
        ] {
            let err = parse(argv(line)).unwrap_err();
            let msg = err.to_string();
            assert_eq!(
                err,
                ArgError::StrayArgument {
                    command,
                    word: word.to_string(),
                },
                "{line}"
            );
            assert!(msg.contains(word) && msg.contains(command), "{msg}");
        }
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(argv("")), Err(ArgError::MissingCommand));
    }

    #[test]
    fn unknown_commands_list_the_commands() {
        for (line, word) in [
            ("frobnicate --csv", "frobnicate"),
            ("campaign", "campaign"),
            ("campaign frob --out d", "campaign"),
        ] {
            let e = parse(argv(line)).unwrap_err();
            assert_eq!(e, ArgError::UnknownCommand(word.into()), "{line}");
            assert!(
                e.to_string().ends_with("campaign run, campaign bisect"),
                "{e}"
            );
        }
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
        assert_eq!(p.get_parsed("senders", 42u32, "integer").unwrap(), 42);
        let bad = parse(argv("run x --threads nope")).unwrap();
        assert!(bad.get_parsed("threads", 0u32, "integer").is_err());
    }

    #[test]
    fn unknown_flags_rejected_not_ignored() {
        let e = parse(argv("run fig3 --thread 14")).unwrap_err();
        let thread = ArgError::UnknownFlag {
            command: "run",
            flag: "thread".into(),
        };
        assert_eq!(e, thread);
        let msg = format!("{e}");
        assert!(msg.contains("unknown flag --thread"), "{msg}");
        assert!(msg.contains("hostcc run --help"), "{msg}");
        // A flag only another command reads is as unknown as a typo.
        for (line, command, flag) in [
            ("run fig3 --quick --hosts 8", "run", "hosts"),
            ("sweep fig3 --threads 2..3 --json", "sweep", "json"),
            (
                "sweep fig3 --threads 2..3 --trace-out x.json",
                "sweep",
                "trace-out",
            ),
            (
                "fleet --telemetry-interval 5000",
                "fleet",
                "telemetry-interval",
            ),
            (
                "campaign run --manifest m --out d --point x",
                "campaign run",
                "point",
            ),
            (
                "campaign bisect --manifest m --resume",
                "campaign bisect",
                "resume",
            ),
            ("list --csv", "list", "csv"),
        ] {
            let flag = flag.to_string();
            assert_eq!(
                parse(argv(line)),
                Err(ArgError::UnknownFlag { command, flag }),
                "{line}"
            );
        }
    }

    #[test]
    fn every_command_takes_help() {
        for c in COMMANDS {
            let p = parse(argv(&format!("{} --help", c.name))).unwrap();
            assert!(p.switch("help"), "{}", c.name);
        }
    }

    #[test]
    fn each_flag_is_declared_once() {
        let mut seen: BTreeMap<&str, &Flag> = BTreeMap::new();
        for c in COMMANDS {
            let usage = c.usage();
            assert!(help().contains(&usage), "{}", c.name);
            let mut names = Vec::new();
            for flag in c.flags.iter().flat_map(|group| group.iter()) {
                let first = *seen.entry(flag.0).or_insert(flag);
                assert!(std::ptr::eq(first, flag), "--{} declared twice", flag.0);
                assert!(usage.contains(&format!("--{} {}", flag.0, flag.1)));
                names.push(flag.0);
            }
            names.sort();
            names.dedup();
            assert_eq!(c.flags.iter().map(|g| g.len()).sum::<usize>(), names.len());
        }
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

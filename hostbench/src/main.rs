//! hostbench: the end-to-end and per-layer benchmark of the hostcc
//! simulator. See README.md in this directory for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload paper_points --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod check;
mod report;
mod spans;
mod stats;
mod workloads;

use check::{Checker, DEFAULT_SEED};
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{round, Round, RoundOpts, Workload};

const USAGE: &str =
    "usage: hostbench --workload <paper_points|coarse_gen4|fleet_tree|observed_chaos|all> \
[--seed N] [--seconds S] [--trace 0|1] [--print-digests]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_digests: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            a.print_digests = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => a.workload = value.to_string(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("hostbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    let ref_loop_ms = stats::ref_loop_ms();
    let mut spans = Spans::new();
    let mut check = Checker::new(args.seed, args.print_digests);
    let start = Instant::now();
    // Traced runs alternate instrumented rounds (spans and engine
    // profiling on) with bare ones, so the instrumentation's overhead is
    // measured interleaved in one process.
    let min_rounds = if args.trace { 4 } else { 3 };
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let instrumented = args.trace && rounds.len().is_multiple_of(2);
        spans.set_recording(instrumented);
        let opts = RoundOpts {
            seed: args.seed,
            ab: args.trace,
            profile: instrumented,
            keep_metrics: rounds.is_empty(),
        };
        let r = round(w, opts, &mut spans, &mut check);
        stats::release_freed_memory();
        rounds.push((instrumented, r));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss_mib = stats::rss_mib().0;

    if args.print_digests {
        print!("{}", check.recorded_lines());
        return ExitCode::SUCCESS;
    }
    let ctx = report::Context {
        workload: w,
        seed: args.seed,
        elapsed_s: elapsed,
        ref_loop_ms,
        peak_rss_mib,
    };
    let metrics = if args.trace {
        let metrics = report::per_layer(&ctx, &rounds);
        report::write_trace_outputs(&ctx, rounds.len(), &metrics, spans.spans());
        metrics
    } else {
        report::end_to_end(&ctx, &rounds)
    };
    println!("{}", report::result_line(&check, &metrics));
    ExitCode::SUCCESS
}

/// Run every workload, each in its own process so that peak memory is
/// per workload, and pass their output through.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hostbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut args: Vec<String> = Vec::with_capacity(raw.len());
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
                args.extend(["--workload".to_string(), w.name().to_string()]);
            } else {
                args.push(a.clone());
            }
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("hostbench: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("hostbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `mlam-trace` — post-hoc analysis of `--json <dir>` run output.
//!
//! ```text
//! mlam-trace export  <run-dir|events.jsonl> [-o trace.json]
//! mlam-trace profile <run-dir>
//! mlam-trace bench-history [<dir>]
//! mlam-trace curves  <run-dir> [--csv] [-o file.csv]
//! ```
//!
//! Exit codes: `0` done, `64` usage or I/O error. No subcommand
//! compares runs: `cargo test -p mlam-bench --test determinism` holds a
//! quick run against `baselines/quick`, and `repro_ab` times two builds.

use mlam_trace::{bench_history, chrome, curves, profile, RunData};
use std::path::{Path, PathBuf};

const EXIT_OK: i32 = 0;
const EXIT_USAGE: i32 = 64;

const USAGE: &str = "mlam-trace: turn telemetry run output into traces, profiles and tables

USAGE:
    mlam-trace export  <run-dir|events.jsonl> [-o <trace.json>]
        Convert span events to Chrome Trace Format (open in Perfetto
        or chrome://tracing). Default output: <run-dir>/trace.json.

    mlam-trace profile <run-dir>
        Print the inclusive/self-time span tree with call counts and
        p50/p95 latencies, siblings sorted by self time.

    mlam-trace bench-history [<dir>]
        List every BENCH_<n>.json under <dir> (default: .) in index
        order: each row's workload and seed, then every metric with
        its unit. A file not in the one row schema is an error.

    mlam-trace curves <run-dir> [--csv] [-o <file>]
        Summarize the run's learning curves (curves.jsonl): checkpoint
        counts, final query budgets, accuracy endpoints. --csv emits
        series,label,iteration,queries,raw_reads,train_acc,holdout_acc
        rows instead, for accuracy-vs-queries plots (default: stdout).

Exit codes: 0 done, 64 usage or I/O error.
";

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => cmd_export(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("bench-history") => cmd_bench_history(&args[1..]),
        Some("curves") => cmd_curves(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            EXIT_OK
        }
        Some(other) => {
            eprintln!("mlam-trace: unknown subcommand '{other}'\n\n{USAGE}");
            EXIT_USAGE
        }
        None => {
            eprint!("{USAGE}");
            EXIT_USAGE
        }
    }
}

/// The flags a subcommand takes besides its positionals; the parser
/// rejects every other flag.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flags {
    None,
    /// `-o <path>`: the subcommand writes a file.
    Output,
    /// `-o <path>` and `--csv`: `curves`' output file and format.
    Curves,
}

/// A subcommand's positionals and flags.
struct Parsed {
    positionals: Vec<String>,
    output: Option<PathBuf>,
    csv: bool,
}

fn parse(args: &[String], flags: Flags) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        positionals: Vec::new(),
        output: None,
        csv: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" | "--output" if flags != Flags::None => {
                let value = iter.next().ok_or("missing value for -o/--output")?;
                parsed.output = Some(PathBuf::from(value));
            }
            "--csv" if flags == Flags::Curves => parsed.csv = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            _ => parsed.positionals.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn usage_error(message: impl std::fmt::Display) -> i32 {
    eprintln!("mlam-trace: {message}");
    eprintln!("(run 'mlam-trace --help' for usage)");
    EXIT_USAGE
}

fn cmd_export(args: &[String]) -> i32 {
    let parsed = match parse(args, Flags::Output) {
        Ok(p) => p,
        Err(e) => return usage_error(e),
    };
    let [input] = parsed.positionals.as_slice() else {
        return usage_error("export takes exactly one run directory (or events.jsonl)");
    };
    let run = match RunData::load(input) {
        Ok(run) => run,
        Err(e) => return usage_error(e),
    };
    if run.events.is_empty() {
        return usage_error(format!("no span events found under {input}"));
    }
    let trace = chrome::export(&run.events);
    let json = match chrome::to_json(&trace) {
        Ok(json) => json,
        Err(e) => return usage_error(e),
    };
    let output = parsed.output.unwrap_or_else(|| run.dir.join("trace.json"));
    if let Err(e) = std::fs::write(&output, json) {
        return usage_error(format!("cannot write {}: {e}", output.display()));
    }
    println!(
        "wrote {} ({} events) — open in https://ui.perfetto.dev or chrome://tracing",
        output.display(),
        trace.traceEvents.len()
    );
    EXIT_OK
}

fn cmd_profile(args: &[String]) -> i32 {
    let parsed = match parse(args, Flags::None) {
        Ok(p) => p,
        Err(e) => return usage_error(e),
    };
    let [input] = parsed.positionals.as_slice() else {
        return usage_error("profile takes exactly one run directory");
    };
    let run = match RunData::load(input) {
        Ok(run) => run,
        Err(e) => return usage_error(e),
    };
    let root = profile::span_tree(&run.events);
    print!("{}", profile::render(&root, &run.histograms));
    EXIT_OK
}

fn cmd_bench_history(args: &[String]) -> i32 {
    let parsed = match parse(args, Flags::None) {
        Ok(p) => p,
        Err(e) => return usage_error(e),
    };
    let dir = match parsed.positionals.as_slice() {
        [] => PathBuf::from("."),
        [dir] => PathBuf::from(dir),
        _ => return usage_error("bench-history takes at most one directory"),
    };
    let files = match bench_history::collect(&dir) {
        Ok(files) => files,
        Err(e) => return usage_error(e),
    };
    if files.is_empty() {
        return usage_error(format!("no BENCH_<n>.json files under {}", dir.display()));
    }
    print!("{}", bench_history::render(&files));
    EXIT_OK
}

fn cmd_curves(args: &[String]) -> i32 {
    let parsed = match parse(args, Flags::Curves) {
        Ok(p) => p,
        Err(e) => return usage_error(e),
    };
    let [input] = parsed.positionals.as_slice() else {
        return usage_error("curves takes exactly one run directory (or curves.jsonl)");
    };
    let series = match curves::load(Path::new(input)) {
        Ok(series) => series,
        Err(e) => return usage_error(e),
    };
    let rendered = if parsed.csv {
        curves::to_csv(&series)
    } else {
        curves::summarize(&series)
    };
    match parsed.output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                return usage_error(format!("cannot write {}: {e}", path.display()));
            }
            println!("wrote {} ({} series)", path.display(), series.len());
        }
        None => print!("{rendered}"),
    }
    EXIT_OK
}

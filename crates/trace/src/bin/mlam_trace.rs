//! `mlam-trace` — post-hoc analysis of `--json <dir>` run output.
//!
//! ```text
//! mlam-trace export  <run-dir|events.jsonl> [-o trace.json]
//! mlam-trace profile <run-dir>
//! mlam-trace compare <baseline-dir> <current-dir>
//!                    [--threshold 0.2] [--min-wall-ms 100] [--warn-only]
//!                    [--json]
//! mlam-trace bench-history [<dir>]
//! mlam-trace curves  <run-dir> [--csv] [-o file.csv]
//! mlam-trace curves  <baseline-dir> <current-dir>
//!                    [--query-threshold 0.1] [--warn-only]
//! ```
//!
//! Exit codes: `0` clean, `1` wall-clock regression beyond the
//! threshold (suppressed by `--warn-only`), `2` correctness-counter
//! drift or structural mismatch (never suppressed), `64` usage or I/O
//! error.

use mlam_trace::{bench_history, chrome, compare, curves, profile, RunData};
use std::path::{Path, PathBuf};

const EXIT_OK: i32 = 0;
const EXIT_WALL_REGRESSION: i32 = 1;
const EXIT_COUNTER_DRIFT: i32 = 2;
const EXIT_USAGE: i32 = 64;

const USAGE: &str = "mlam-trace: turn telemetry run output into profiles and diffs

USAGE:
    mlam-trace export  <run-dir|events.jsonl> [-o <trace.json>]
        Convert span events to Chrome Trace Format (open in Perfetto
        or chrome://tracing). Default output: <run-dir>/trace.json.

    mlam-trace profile <run-dir>
        Print the inclusive/self-time span tree with call counts and
        p50/p95 latencies, siblings sorted by self time.

    mlam-trace compare <baseline-dir> <current-dir>
               [--threshold <ratio>] [--min-wall-ms <ms>] [--warn-only]
               [--json]
        Diff two runs. Correctness counters must be bit-identical
        (exit 2 on drift, never suppressed); wall-clock regressions
        beyond the threshold (default 0.2 = +20%, noise floor
        --min-wall-ms, default 100) exit 1 unless --warn-only.
        --json replaces the table with a machine-readable payload
        (verdict, per-counter deltas, wall rows) whose exit_code field
        mirrors the process exit code.

    mlam-trace bench-history [<dir>]
        List every BENCH_<n>.json under <dir> (default: .) in index
        order: each row's workload and seed, then every metric with
        its unit. A file not in the one row schema is an error.

    mlam-trace curves <run-dir> [--csv] [-o <file>]
        Summarize the run's learning curves (curves.jsonl): checkpoint
        counts, final query budgets, accuracy endpoints. --csv emits
        series,label,iteration,queries,raw_reads,train_acc,holdout_acc
        rows instead, for accuracy-vs-queries plots (default: stdout).

    mlam-trace curves <baseline-dir> <current-dir>
               [--query-threshold <ratio>] [--warn-only]
        Diff two runs' learning curves. Series sets, checkpoint
        schedules and final accuracies must match (exit 2 on drift,
        never suppressed); reaching the same final accuracy with more
        than the threshold's extra queries (default 0.1 = +10%) exits
        1 unless --warn-only.
";

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => cmd_export(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
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
    /// `compare`'s threshold and output-format flags.
    Compare,
}

/// A subcommand's positionals and flags.
struct Parsed {
    positionals: Vec<String>,
    output: Option<PathBuf>,
    threshold: f64,
    min_wall_ms: u64,
    warn_only: bool,
    json: bool,
}

fn parse(args: &[String], flags: Flags) -> Result<Parsed, String> {
    let allow_compare_flags = flags == Flags::Compare;
    let mut parsed = Parsed {
        positionals: Vec::new(),
        output: None,
        threshold: 0.20,
        min_wall_ms: 100,
        warn_only: false,
        json: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" | "--output" if flags == Flags::Output => {
                let value = iter.next().ok_or("missing value for -o/--output")?;
                parsed.output = Some(PathBuf::from(value));
            }
            "--threshold" if allow_compare_flags => {
                let value = iter.next().ok_or("missing value for --threshold")?;
                parsed.threshold = value
                    .parse()
                    .map_err(|e| format!("bad --threshold '{value}': {e}"))?;
            }
            "--min-wall-ms" if allow_compare_flags => {
                let value = iter.next().ok_or("missing value for --min-wall-ms")?;
                parsed.min_wall_ms = value
                    .parse()
                    .map_err(|e| format!("bad --min-wall-ms '{value}': {e}"))?;
            }
            "--warn-only" if allow_compare_flags => parsed.warn_only = true,
            "--json" if allow_compare_flags => parsed.json = true,
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

fn cmd_compare(args: &[String]) -> i32 {
    let parsed = match parse(args, Flags::Compare) {
        Ok(p) => p,
        Err(e) => return usage_error(e),
    };
    let [baseline_dir, current_dir] = parsed.positionals.as_slice() else {
        return usage_error("compare takes exactly two run directories");
    };
    let baseline = match RunData::load(baseline_dir) {
        Ok(run) => run,
        Err(e) => return usage_error(e),
    };
    let current = match RunData::load(current_dir) {
        Ok(run) => run,
        Err(e) => return usage_error(e),
    };
    let (Some(base_manifest), Some(cur_manifest)) = (&baseline.manifest, &current.manifest) else {
        return usage_error("compare needs a manifest.json in both run directories");
    };
    let options = compare::CompareOptions {
        threshold: parsed.threshold,
        min_wall_s: parsed.min_wall_ms as f64 / 1000.0,
    };
    let mut report = compare::compare(base_manifest, cur_manifest, &options);
    report.span_notes = compare::span_movers(&baseline.histograms, &current.histograms, &options);
    // The machine verdict is authoritative for the exit code in both
    // output modes; the stderr notes stay on for scripts that only
    // capture stdout.
    let machine = report.machine(parsed.warn_only);
    debug_assert!(matches!(
        machine.exit_code,
        EXIT_OK | EXIT_WALL_REGRESSION | EXIT_COUNTER_DRIFT
    ));
    if parsed.json {
        match serde_json::to_string_pretty(&machine) {
            Ok(json) => println!("{json}"),
            Err(e) => return usage_error(e),
        }
    } else {
        print!("{}", report.render());
    }
    match machine.verdict.as_str() {
        "counter-drift" => {
            eprintln!(
                "mlam-trace: counter drift — the runs differ behaviorally, not just in speed"
            );
        }
        "wall-regression" if parsed.warn_only => {
            eprintln!("mlam-trace: wall-clock regression (suppressed by --warn-only)");
        }
        "wall-regression" => {
            eprintln!(
                "mlam-trace: wall-clock regression beyond +{:.0}%",
                options.threshold * 100.0
            );
        }
        _ => {}
    }
    machine.exit_code
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
    // Own flag loop: `curves` mixes export flags (--csv/-o) with
    // compare flags (--query-threshold/--warn-only), unlike the
    // shared parser's split.
    let mut positionals: Vec<String> = Vec::new();
    let mut csv = false;
    let mut output: Option<PathBuf> = None;
    let mut warn_only = false;
    let mut options = curves::CurveCompareOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "-o" | "--output" => {
                let Some(value) = iter.next() else {
                    return usage_error("missing value for -o/--output");
                };
                output = Some(PathBuf::from(value));
            }
            "--warn-only" => warn_only = true,
            "--query-threshold" => {
                let Some(value) = iter.next() else {
                    return usage_error("missing value for --query-threshold");
                };
                options.query_threshold = match value.parse() {
                    Ok(v) => v,
                    Err(e) => return usage_error(format!("bad --query-threshold '{value}': {e}")),
                };
            }
            other if other.starts_with('-') => {
                return usage_error(format!("unknown flag '{other}'"));
            }
            _ => positionals.push(arg.clone()),
        }
    }
    match positionals.as_slice() {
        [input] => {
            let series = match curves::load(Path::new(input)) {
                Ok(series) => series,
                Err(e) => return usage_error(e),
            };
            let rendered = if csv {
                curves::to_csv(&series)
            } else {
                curves::summarize(&series)
            };
            match output {
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
        [baseline_dir, current_dir] => {
            let baseline = match curves::load(Path::new(baseline_dir)) {
                Ok(series) => series,
                Err(e) => return usage_error(e),
            };
            let current = match curves::load(Path::new(current_dir)) {
                Ok(series) => series,
                Err(e) => return usage_error(e),
            };
            let report = curves::compare(&baseline, &current, &options);
            print!("{}", report.render());
            match report.verdict() {
                "curve-drift" => {
                    eprintln!("mlam-trace: learning-curve drift — the runs differ behaviorally");
                }
                "query-regression" if warn_only => {
                    eprintln!(
                        "mlam-trace: query-efficiency regression (suppressed by --warn-only)"
                    );
                }
                "query-regression" => {
                    eprintln!(
                        "mlam-trace: query-efficiency regression beyond +{:.0}%",
                        options.query_threshold * 100.0
                    );
                }
                _ => {}
            }
            let exit = report.exit_code(warn_only);
            debug_assert!(matches!(
                exit,
                EXIT_OK | EXIT_WALL_REGRESSION | EXIT_COUNTER_DRIFT
            ));
            exit
        }
        _ => usage_error("curves takes one run directory (summary/CSV) or two (compare)"),
    }
}

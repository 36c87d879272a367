//! A/B timing of whole `repro_all` runs, the one harness for knobs that
//! act on a full run.
//!
//! Usage: `repro_ab [--trials <n>] <variant>...` (3 trials by default).
//!
//! A variant is one argument: its `NAME=value` words set the child's
//! environment and its other words are `repro_all` flags. So
//! `repro_ab --trials 10 '--quick MLAM_CURVES=0' '--quick'` times curve
//! recording off against on, and `repro_ab --trials 3 ''` times the
//! paper-scale run. Each trial runs every variant once, in order, as a
//! fresh `repro_all --json <temp dir>` process timed from spawn to exit,
//! so slow machine drift lands evenly on all variants. Children inherit
//! this process's environment, `MLAM_THREADS` included.
//!
//! Prints one `BENCH_<n>.json` row per variant: `workload` (the child's
//! command line, led by the `MLAM_*` settings it inherits), `seed`, and
//! the median, p25 and p75 wall clock with the median's overhead against
//! the first variant. Per-trial times go to stderr; nothing is written
//! to the working directory.
//!
//! Exits 2 with the usage, before any run, on a malformed `--trials`, no
//! variant, or a variant `repro_all` would reject (including `--json`
//! and `--resume`, which this tool supplies). Exits 1 when a child run
//! fails, after printing its stderr.

use mlam_bench::{try_parse_cli, CLI_FLAGS, REPRO_SEED};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: repro_ab [--trials <n>] <variant>...
a variant is one argument: NAME=value words set the child's environment,
the other words are repro_all flags (e.g. '--quick MLAM_CURVES=0')";

/// One side of the comparison.
struct Variant {
    env: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Variant {
    fn parse(text: &str) -> Result<Variant, String> {
        let (mut env, mut flags) = (Vec::new(), Vec::new());
        for word in text.split_whitespace() {
            match word.split_once('=') {
                Some((name, value))
                    if !name.is_empty()
                        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') =>
                {
                    env.push((name.to_string(), value.to_string()));
                }
                _ => flags.push(word.to_string()),
            }
        }
        let args = std::iter::once("repro_all".to_string()).chain(flags.iter().cloned());
        let options =
            try_parse_cli(args).map_err(|e| format!("variant {text:?}: {e}\n{CLI_FLAGS}"))?;
        if options.json_dir.is_some() || options.resume.is_some() {
            return Err(format!("variant {text:?}: repro_ab supplies --json itself"));
        }
        Ok(Variant { env, flags })
    }

    /// The child's command line, led by its environment, inherited
    /// `MLAM_*` settings first: the row's `workload`.
    fn workload(&self) -> String {
        let mut inherited: Vec<(String, String)> = std::env::vars()
            .filter(|(name, _)| {
                name.starts_with("MLAM_") && !self.env.iter().any(|(n, _)| n == name)
            })
            .collect();
        inherited.sort();
        let mut words: Vec<String> = (inherited.iter().chain(&self.env))
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        words.push("repro_all".to_string());
        words.extend(self.flags.iter().cloned());
        words.push("--json <dir>".to_string());
        words.join(" ")
    }
}

fn parse_args(args: &[String]) -> Result<(usize, Vec<Variant>), String> {
    let mut trials = 3;
    let mut variants = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--trials" {
            let value = args.next().ok_or("--trials requires a count")?;
            trials = match value.parse() {
                Ok(n) if n > 0 => n,
                _ => return Err(format!("--trials takes a positive count, not {value:?}")),
            };
        } else {
            variants.push(Variant::parse(arg)?);
        }
    }
    if variants.is_empty() {
        return Err("no variant given".to_string());
    }
    Ok((trials, variants))
}

/// Times one fresh child from spawn to exit, then removes its run
/// directory. A failed run's error carries the child's stderr.
fn trial(variant: &Variant, run_dir: &Path) -> Result<f64, String> {
    let repro_all = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("repro_all");
    let started = Instant::now();
    let out = Command::new(&repro_all)
        .args(&variant.flags)
        .arg("--json")
        .arg(run_dir)
        .envs(variant.env.iter().cloned())
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", repro_all.display()))?;
    let wall = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(run_dir);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "`{}` failed ({}):\n{stderr}",
            variant.workload(),
            out.status
        ));
    }
    Ok(wall)
}

/// The `q`-quantile of sorted `xs`, interpolating between ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The result line of `variant`, whose wall clocks are `walls`,
/// sorted.
fn row(variant: &Variant, walls: &[f64], baseline_median: f64) -> String {
    let median = quantile(walls, 0.5);
    let overhead = (median / baseline_median - 1.0) * 100.0;
    let metrics = [
        ("wall_median_s", format!("{median:.4}"), "s"),
        ("wall_p25_s", format!("{:.4}", quantile(walls, 0.25)), "s"),
        ("wall_p75_s", format!("{:.4}", quantile(walls, 0.75)), "s"),
        ("overhead_pct", format!("{overhead:.2}"), "%"),
        ("trials", walls.len().to_string(), "count"),
    ]
    .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    let workload = serde_json::to_string(&variant.workload()).expect("string serialization");
    format!(
        "{{\"workload\": {workload}, \"seed\": {REPRO_SEED}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trials, variants) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("repro_ab: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let run_dir = std::env::temp_dir().join(format!("mlam_repro_ab_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);

    let mut walls = vec![Vec::with_capacity(trials); variants.len()];
    for t in 1..=trials {
        for (variant, walls) in variants.iter().zip(&mut walls) {
            let wall = trial(variant, &run_dir).unwrap_or_else(|e| {
                eprintln!("repro_ab: {e}");
                std::process::exit(1)
            });
            let workload = variant.workload();
            eprintln!("repro_ab: trial {t}/{trials} `{workload}`: {wall:.3}s");
            walls.push(wall);
        }
    }
    for walls in &mut walls {
        walls.sort_by(f64::total_cmp);
    }
    let baseline_median = quantile(&walls[0], 0.5);
    for (variant, walls) in variants.iter().zip(&walls) {
        println!("{}", row(variant, walls, baseline_median));
    }
}

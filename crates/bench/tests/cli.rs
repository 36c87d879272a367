//! The `repro_all`, `fault_sweep` and `repro_ab` command lines.
//! Malformed input — a typo such as `--quik`, an `--only` name the
//! registry does not know, or a run directory or monitor address the
//! session cannot claim — exits with status 2 before any experiment
//! runs, instead of silently running the paper-scale suite or
//! panicking. A valid `--only` runs its selection in registry order,
//! each experiment seeded as in the full run; the other run knobs are
//! checked in `determinism.rs`.

use mlam::telemetry::{RunManifest, CURVES_FILE};
use std::path::Path;
use std::process::{Command, Output};

/// Runs `repro_all` with `MLAM_THREADS=4` as its only `MLAM_*`
/// setting, so a `--only` run also crosses thread counts against the
/// 1-thread `baselines/quick`.
fn repro_all(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_repro_all"), args)
}

/// Runs the bench binary `bin` as [`repro_all`] does.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut command = Command::new(bin);
    for (name, _) in std::env::vars().filter(|(name, _)| name.starts_with("MLAM_")) {
        command.env_remove(name);
    }
    command
        .args(args)
        .env("MLAM_THREADS", "4")
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Unusable input exits 2 with the offending argument and the accepted
/// flags on stderr, from both session binaries: a misspelled flag, an
/// unknown `--only` name, an unbindable `--monitor` address, a `--json`
/// directory that cannot be created, a `--resume` directory that does
/// not exist, and a `--json` directory holding a finished run without
/// `--force`.
#[test]
fn misspelled_flag_exits_2_with_the_accepted_flags() {
    let finished = scratch("finished");
    std::fs::write(finished.join("manifest.json"), "{}\n").unwrap();
    let missing = scratch("missing");
    std::fs::remove_dir(&missing).unwrap();
    let (finished, missing) = (finished.to_str().unwrap(), missing.to_str().unwrap());
    let cases = [
        &["--quik"][..],
        &["--only", "tabel3"],
        &["--quick", "--monitor", "notanaddr"],
        &["--quick", "--json", "/dev/null/x"],
        &["--quick", "--resume", missing],
        &["--quick", "--json", finished],
    ];
    for bin in [
        env!("CARGO_BIN_EXE_repro_all"),
        env!("CARGO_BIN_EXE_fault_sweep"),
    ] {
        for args in cases {
            let out = run(bin, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(out.stdout.is_empty(), "{bin} {args:?}: nothing may run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(args[args.len() - 1]), "{stderr}");
            assert!(stderr.contains(mlam_bench::CLI_FLAGS), "{stderr}");
            assert!(!stderr.contains("panicked at"), "{stderr}");
        }
    }
    assert_eq!(read(&Path::new(finished).join("manifest.json")), "{}\n");
    let _ = std::fs::remove_dir_all(finished);
}

/// `--only locking,table3` runs `table3` then `locking` (registry
/// order), each with the counters and learning curve of the full run
/// recorded in `baselines/quick`. An experiment seeded by its position
/// in the selection instead of its registry index fails here: `locking`
/// then draws other circuits.
#[test]
fn only_reproduces_the_full_runs_experiments() {
    let dir = scratch("only");
    let json = dir.to_str().expect("UTF-8 temp dir");
    let out = repro_all(&["--quick", "--only", "locking,table3", "--json", json]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(stdout.starts_with("Table III:"), "{stdout}");
    assert!(stdout.contains("\n\nLogic locking:"), "{stdout}");

    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/quick");
    let full: RunManifest = serde_json::from_str(&read(&baseline.join("manifest.json"))).unwrap();
    let run: RunManifest = serde_json::from_str(&read(&dir.join("manifest.json"))).unwrap();
    assert_eq!(run.threads, 4);
    let names: Vec<&str> = run.experiments.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["table3", "locking"]);
    for record in &run.experiments {
        let reference = full.experiments.iter().find(|e| e.name == record.name);
        assert_eq!(
            Some(&record.counters),
            reference.map(|e| &e.counters),
            "{} differs from the full run",
            record.name
        );
    }
    // Of the two, only locking records a learning curve.
    let locking_curve: String = read(&baseline.join(CURVES_FILE))
        .lines()
        .filter(|line| line.starts_with("{\"series\":\"locking\""))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(!locking_curve.is_empty());
    assert_eq!(read(&dir.join(CURVES_FILE)), locking_curve);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `repro_ab` in `cwd` with `MLAM_THREADS=1` as its only `MLAM_*`
/// setting, since inherited settings appear in its rows.
fn repro_ab(args: &[&str], cwd: &Path) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro_ab"));
    for (name, _) in std::env::vars().filter(|(name, _)| name.starts_with("MLAM_")) {
        command.env_remove(name);
    }
    command
        .args(args)
        .current_dir(cwd)
        .env("MLAM_THREADS", "1")
        .output()
        .expect("run repro_ab")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mlam_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `repro_ab` exits 2 with its usage before running anything on an
/// unknown flag, a missing or malformed `--trials`, no variant, or a
/// variant naming the run directory it supplies itself.
#[test]
fn repro_ab_rejects_malformed_arguments_before_any_run() {
    let cwd = scratch("ab_usage");
    for args in [
        &["--frobnicate"][..],
        &["--quick --quik"],
        &["--quick"][..0],
        &["--trials"],
        &["--trials", "many", "--quick"],
        &["--trials", "0", "--quick"],
        &["--quick", "--trials"],
        &["--quick --json elsewhere"],
        &["--quick --resume elsewhere"],
    ] {
        let out = repro_ab(args, &cwd);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro_ab"), "{args:?}: {stderr}");
        assert!(!stderr.contains("repro_ab: trial "), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

/// One row per variant, in the schema of the checked-in BENCH files,
/// and nothing left in the working directory.
#[test]
fn repro_ab_prints_one_bench_row_per_variant() {
    let cwd = scratch("ab_rows");
    let out = repro_ab(
        &[
            "--trials",
            "2",
            "--quick --only corollary2 MLAM_CURVES=0",
            "--quick --only corollary2",
        ],
        &cwd,
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    let rows = mlam_trace::bench_history::parse(&format!("[{}]", lines.join(","))).unwrap();
    // The inherited thread count is part of what ran.
    let (off, on) = (&rows[0].workload, &rows[1].workload);
    assert_eq!(
        off,
        "MLAM_THREADS=1 MLAM_CURVES=0 repro_all --quick --only corollary2 --json <dir>"
    );
    assert_eq!(
        on,
        "MLAM_THREADS=1 repro_all --quick --only corollary2 --json <dir>"
    );
    for row in &rows {
        assert_eq!(row.seed, mlam_bench::REPRO_SEED);
        let value = |name: &str| row.metrics[name].value;
        assert_eq!(value("trials"), 2.0);
        assert_eq!(row.metrics.len(), 5, "{:?}", row.metrics.keys());
        // Two trials: the quartiles sit a quarter of the way in from
        // each end, the median halfway.
        let (p25, median, p75) = (
            value("wall_p25_s"),
            value("wall_median_s"),
            value("wall_p75_s"),
        );
        assert!(p25 <= median && median <= p75, "{:?}", row.metrics);
        assert!((p25 + p75 - 2.0 * median).abs() < 3e-4, "{:?}", row.metrics);
    }
    let baseline = rows[0].metrics["overhead_pct"].value;
    assert_eq!(baseline, 0.0, "the first variant is the baseline");
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left.is_empty(), "repro_ab wrote into its working directory");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// A child run that fails fails the A/B, with the child's stderr.
#[test]
fn repro_ab_fails_when_a_child_run_fails() {
    let cwd = scratch("ab_fail");
    let out = repro_ab(&["--quick --only corollary2 --monitor nonsense"], &cwd);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot start monitor"), "{stderr}");
    let _ = std::fs::remove_dir_all(&cwd);
}

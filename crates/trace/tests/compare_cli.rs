//! Exit-code contract of the `mlam-trace` binary: clean same-seed runs
//! exit 0, a slowed run exits 1 (0 under `--warn-only`), counter drift
//! exits 2 even under `--warn-only`, and usage errors exit 64.

use mlam_telemetry::{ExperimentRecord, RunManifest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn write_run(dir: &Path, manifest: &RunManifest) {
    std::fs::create_dir_all(dir).unwrap();
    let json = serde_json::to_string_pretty(manifest).unwrap();
    std::fs::write(dir.join("manifest.json"), json + "\n").unwrap();
}

fn quick_manifest(tweak_seconds: f64, tweak_queries: u64) -> RunManifest {
    let mut manifest = RunManifest::new("repro_all", 0xDA7E_2020, true);
    for (name, seconds, queries, conflicts) in
        [("table1", 1.0, 2000u64, 0u64), ("locking", 2.0, 150, 420)]
    {
        let mut counters = BTreeMap::new();
        counters.insert(
            "oracle.example_queries".to_string(),
            queries + tweak_queries,
        );
        counters.insert("sat.conflicts".to_string(), conflicts);
        manifest.experiments.push(ExperimentRecord {
            name: name.to_string(),
            seconds: seconds * tweak_seconds,
            degraded: false,
            counters,
        });
        manifest.total_seconds += seconds * tweak_seconds;
    }
    manifest
}

fn run_compare(baseline: &Path, current: &Path, extra: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_mlam-trace"))
        .arg("compare")
        .arg(baseline)
        .arg(current)
        .args(extra)
        .output()
        .expect("spawn mlam-trace");
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlam_compare_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn compare_exit_codes_follow_the_contract() {
    let base_dir = scratch();
    let baseline = base_dir.join("baseline");
    write_run(&baseline, &quick_manifest(1.0, 0));

    // Same counters, wall within noise: clean.
    let same = base_dir.join("same");
    write_run(&same, &quick_manifest(1.05, 0));
    let (code, stdout, _) = run_compare(&baseline, &same, &[]);
    assert_eq!(code, 0, "same-seed runs with matching counters: {stdout}");
    assert!(stdout.contains("bit-identical"), "{stdout}");

    // A synthetic 3x slowdown: wall regression, exit 1.
    let slow = base_dir.join("slow");
    write_run(&slow, &quick_manifest(3.0, 0));
    let (code, stdout, stderr) = run_compare(&baseline, &slow, &[]);
    assert_eq!(code, 1, "slowed run must fail: {stdout}{stderr}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // --warn-only downgrades the wall regression to exit 0.
    let (code, _, stderr) = run_compare(&baseline, &slow, &["--warn-only"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("suppressed"), "{stderr}");

    // A generous threshold also accepts the slowdown.
    let (code, _, _) = run_compare(&baseline, &slow, &["--threshold", "5.0"]);
    assert_eq!(code, 0);

    // Counter drift: exit 2, even under --warn-only.
    let drift = base_dir.join("drift");
    write_run(&drift, &quick_manifest(1.0, 1));
    let (code, stdout, _) = run_compare(&baseline, &drift, &[]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("counter drift"), "{stdout}");
    assert!(stdout.contains("oracle.example_queries"), "{stdout}");
    let (code, _, _) = run_compare(&baseline, &drift, &["--warn-only"]);
    assert_eq!(code, 2, "--warn-only never hides counter drift");

    // Missing manifest: usage error.
    let empty = base_dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let (code, _, stderr) = run_compare(&baseline, &empty, &[]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("manifest.json"), "{stderr}");

    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn compare_json_mirrors_the_exit_code_in_the_payload() {
    let base_dir = std::env::temp_dir().join(format!("mlam_compare_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base_dir);
    let baseline = base_dir.join("baseline");
    write_run(&baseline, &quick_manifest(1.0, 0));

    let parse = |stdout: &str| -> mlam_trace::compare::MachineReport {
        serde_json::from_str(stdout).expect("--json emits a parseable payload")
    };

    // Clean: verdict + exit_code 0, and no human-readable table.
    let same = base_dir.join("same");
    write_run(&same, &quick_manifest(1.05, 0));
    let (code, stdout, _) = run_compare(&baseline, &same, &["--json"]);
    assert_eq!(code, 0, "{stdout}");
    let report = parse(&stdout);
    assert_eq!(report.verdict, "clean");
    assert_eq!(report.exit_code, 0);
    assert!(report.drift.is_empty());
    // Two experiments plus the "(total)" row.
    assert_eq!(report.wall.len(), 3);
    assert!(!stdout.contains("experiment "), "no table in --json mode");

    // Counter drift: exit 2 mirrored, per-counter deltas present.
    let drift = base_dir.join("drift");
    write_run(&drift, &quick_manifest(1.0, 1));
    let (code, stdout, _) = run_compare(&baseline, &drift, &["--json"]);
    assert_eq!(code, 2, "{stdout}");
    let report = parse(&stdout);
    assert_eq!(report.verdict, "counter-drift");
    assert_eq!(report.exit_code, 2);
    assert_eq!(report.drift.len(), 2, "one drifting counter per experiment");
    assert_eq!(report.drift[0].counter, "oracle.example_queries");
    assert_eq!(report.drift[0].baseline + 1, report.drift[0].current);

    // --warn-only: the process exits 0 and the payload says so, while
    // the verdict still names the wall regression.
    let slow = base_dir.join("slow");
    write_run(&slow, &quick_manifest(3.0, 0));
    let (code, stdout, _) = run_compare(&baseline, &slow, &["--json", "--warn-only"]);
    assert_eq!(code, 0, "{stdout}");
    let report = parse(&stdout);
    assert_eq!(report.verdict, "wall-regression");
    assert_eq!(report.exit_code, 0);
    assert!(report.warn_only);

    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn bench_history_merges_checked_in_benchmarks_into_one_table() {
    let base_dir = std::env::temp_dir().join(format!("mlam_hist_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base_dir);
    std::fs::create_dir_all(&base_dir).unwrap();
    std::fs::write(
        base_dir.join("BENCH_2.json"),
        r#"[{"workload": "repro_all --quick, experiment table1", "seed": 1,
             "metrics": {"oracle_queries": {"value": 2000, "unit": "count"}}}]"#,
    )
    .unwrap();
    std::fs::write(
        base_dir.join("BENCH_6.json"),
        r#"[{"workload": "repro_all --quick", "seed": 1,
             "metrics": {"wall_median_s": {"value": 2.5, "unit": "s"}}},
            {"workload": "repro_all --quick --monitor 127.0.0.1:0", "seed": 1,
             "metrics": {"overhead_pct": {"value": 0.8, "unit": "%"}}}]"#,
    )
    .unwrap();

    let bench_history = |dir: &Path| {
        Command::new(env!("CARGO_BIN_EXE_mlam-trace"))
            .arg("bench-history")
            .arg(dir)
            .output()
            .expect("spawn mlam-trace")
    };
    let output = bench_history(&base_dir);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let first = stdout.find("BENCH_2.json").expect("first file listed");
    let second = stdout.find("BENCH_6.json").expect("second file listed");
    assert!(first < second, "files must be index-ordered:\n{stdout}");
    for metric in ["oracle_queries", "2000 count", "wall_median_s", "0.8 %"] {
        assert!(stdout.contains(metric), "{metric}: {stdout}");
    }
    assert!(
        stdout.contains("--monitor 127.0.0.1:0 (seed 1)"),
        "{stdout}"
    );

    // A file in another shape is a usage error naming it.
    std::fs::write(base_dir.join("BENCH_7.json"), r#"{"benchmark": "x"}"#).unwrap();
    let output = bench_history(&base_dir);
    assert_eq!(output.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&output.stderr).contains("BENCH_7.json"));

    // An empty directory is a usage error, not an empty table.
    let empty = base_dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert_eq!(bench_history(&empty).status.code(), Some(64));

    let _ = std::fs::remove_dir_all(&base_dir);
}

/// Only `export` and `curves` write files; the other subcommands
/// reject `-o` instead of accepting it and writing nothing.
#[test]
fn output_flag_is_a_usage_error_where_nothing_is_written() {
    let base_dir = std::env::temp_dir().join(format!("mlam_output_flag_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base_dir);
    let run = base_dir.join("run");
    write_run(&run, &quick_manifest(1.0, 0));
    let run = run.to_str().unwrap();
    let out = base_dir.join("out.txt");
    let out = out.to_str().unwrap();
    for args in [
        vec!["profile", run, "-o", out],
        vec!["compare", run, run, "-o", out],
        vec!["bench-history", run, "--output", out],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_mlam-trace"))
            .args(&args)
            .output()
            .expect("spawn mlam-trace");
        assert_eq!(output.status.code(), Some(64), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(!Path::new(out).exists(), "{args:?} wrote {out}");
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    // There is no `bench`: a run's per-experiment numbers are in its
    // manifest.json.
    for subcommand in ["frobnicate", "bench"] {
        let output = Command::new(env!("CARGO_BIN_EXE_mlam-trace"))
            .arg(subcommand)
            .output()
            .expect("spawn mlam-trace");
        assert_eq!(output.status.code(), Some(64), "{subcommand}");
    }
}

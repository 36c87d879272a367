//! Usage contract of the `mlam-trace` binary: every subcommand exits 0
//! when it has done its job and 64 on a usage or I/O error, with a
//! message naming what was wrong.

use std::path::Path;
use std::process::{Command, Output};

fn mlam_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlam-trace"))
        .args(args)
        .output()
        .expect("spawn mlam-trace")
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

    let bench_history = |dir: &Path| mlam_trace(&["bench-history", dir.to_str().unwrap()]);
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
    std::fs::create_dir_all(&base_dir).unwrap();
    let run = base_dir.to_str().unwrap();
    let out = base_dir.join("out.txt");
    let out = out.to_str().unwrap();
    for args in [
        vec!["profile", run, "-o", out],
        vec!["bench-history", run, "--output", out],
    ] {
        let output = mlam_trace(&args);
        assert_eq!(output.status.code(), Some(64), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(!Path::new(out).exists(), "{args:?} wrote {out}");
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// A directory that does not exist is an error naming it, not an
/// empty run; and `curves` reads one run, not two.
#[test]
fn missing_run_directory_is_a_usage_error_naming_it() {
    let missing = std::env::temp_dir().join(format!("mlam_missing_run_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let missing = missing.to_str().unwrap();
    for subcommand in ["export", "profile", "curves"] {
        let output = mlam_trace(&[subcommand, missing]);
        assert_eq!(output.status.code(), Some(64), "{subcommand}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(missing), "{subcommand}: {stderr}");
    }
    let output = mlam_trace(&["curves", missing, missing]);
    assert_eq!(output.status.code(), Some(64));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("exactly one run directory"), "{stderr}");
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    // There is no `bench`: a run's per-experiment numbers are in its
    // manifest.json. There is no `compare`: the determinism test holds
    // runs against baselines/quick, and repro_ab times two builds.
    for subcommand in ["frobnicate", "bench", "compare"] {
        let output = mlam_trace(&[subcommand, "a", "b"]);
        assert_eq!(output.status.code(), Some(64), "{subcommand}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown subcommand '{subcommand}'")),
            "{stderr}"
        );
    }
}

//! The `repro_all` command line. Malformed input — a typo such as
//! `--quik`, or an `--only` name the registry does not know — exits
//! with status 2 before any experiment runs, instead of silently
//! running the paper-scale suite. A valid `--only` runs its selection
//! in registry order, each experiment seeded as in the full run.

use mlam::telemetry::RunManifest;
use std::path::Path;
use std::process::{Command, Output};

fn repro_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .env("MLAM_THREADS", "1")
        .output()
        .expect("run repro_all")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn misspelled_flag_exits_2_with_the_accepted_flags() {
    for args in [&["--quik"][..], &["--only", "tabel3"]] {
        let out = repro_all(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[args.len() - 1]), "{stderr}");
        assert!(stderr.contains(mlam_bench::CLI_FLAGS), "{stderr}");
    }
}

/// `--only locking,table3` runs `table3` then `locking` (registry
/// order), each with the counters and learning curve of the full run
/// recorded in `baselines/quick`. An experiment seeded by its position
/// in the selection instead of its registry index fails here: `locking`
/// then draws other circuits.
#[test]
fn only_reproduces_the_full_runs_experiments() {
    let dir = std::env::temp_dir().join(format!("mlam_cli_only_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let json = dir.to_str().expect("UTF-8 temp dir");
    let out = repro_all(&["--quick", "--only", "locking,table3", "--json", json]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(stdout.starts_with("Table III:"), "{stdout}");
    assert!(stdout.contains("\n\nLogic locking:"), "{stdout}");

    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/quick");
    let full: RunManifest = serde_json::from_str(&read(&baseline.join("manifest.json"))).unwrap();
    let run: RunManifest = serde_json::from_str(&read(&dir.join("manifest.json"))).unwrap();
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
    let locking_curve: String = read(&baseline.join("curves.jsonl"))
        .lines()
        .filter(|line| line.starts_with("{\"series\":\"locking\""))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(!locking_curve.is_empty());
    assert_eq!(read(&dir.join("curves.jsonl")), locking_curve);
    let _ = std::fs::remove_dir_all(&dir);
}

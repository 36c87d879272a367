//! The determinism contract, end to end: fresh `repro_all --quick
//! --json` processes at `MLAM_THREADS=1` and `4`, each with and without
//! `--monitor` + `--progress`, agree on everything but wall-clock time.
//!
//! - **Threads.** The plain runs at one and four threads print
//!   byte-identical stdout, record the same experiments in the same
//!   order with identical counters, write `<name>.json` files that are
//!   identical once their `seconds` lines are removed, and show zero
//!   drift under `mlam-trace compare`.
//! - **Monitoring.** At each thread count the monitored run prints
//!   byte-identical stdout and writes bit-identical deterministic
//!   `metrics.jsonl` lines. Only the `span.*.micros` wall-clock
//!   histograms are excluded — no two processes reproduce those sums —
//!   and even for them the set of span names must match.
//! - **Curves.** `curves.jsonl` is byte-identical across all four runs.
//!
//! This is what makes live observability safe to leave on: it cannot
//! perturb the reproduction contract CI diffs against `baselines/quick/`.

use mlam::telemetry::RunManifest;
use std::path::Path;
use std::process::Command;

/// Runs `repro_all --quick --json <dir>` and returns captured stdout.
fn run_repro(dir: &Path, threads: &str, monitored: bool) -> Vec<u8> {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro_all"));
    command
        .args(["--quick", "--json"])
        .arg(dir)
        .env("MLAM_THREADS", threads);
    if monitored {
        // Ephemeral port: parallel CI jobs must not collide, and the
        // endpoint's presence (not its address) is what's under test.
        command.args(["--monitor", "127.0.0.1:0", "--progress"]);
    }
    let output = command.output().expect("spawn repro_all");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "repro_all failed (threads={threads} monitored={monitored}):\n{stderr}"
    );
    if monitored {
        assert!(
            stderr.contains("monitor listening on"),
            "--monitor must announce its endpoint on stderr"
        );
        let total = mlam_bench::EXPERIMENTS.len();
        assert!(
            stderr.contains(&format!("progress {total}/{total}")),
            "--progress must report the final completion on stderr:\n{stderr}"
        );
    }
    output.stdout
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Splits `metrics.jsonl` into (deterministic lines, timing-histogram
/// names). The `span.*.micros` histograms carry wall-clock sums that
/// differ between any two processes; every other line — all counters
/// and the value-shaped histograms — must match byte for byte.
fn split_metrics(text: &str) -> (Vec<&str>, Vec<&str>) {
    let mut exact = Vec::new();
    let mut timing = Vec::new();
    for line in text.lines() {
        let name = line
            .split("\"name\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("metrics.jsonl line names a metric");
        if name.ends_with(".micros") {
            timing.push(name);
        } else {
            exact.push(line);
        }
    }
    (exact, timing)
}

/// Drops every line naming the wall-clock field.
fn strip_seconds(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|line| !line.contains("\"seconds\""))
        .collect()
}

#[test]
fn monitored_run_is_byte_identical_to_plain_run() {
    let base = std::env::temp_dir().join(format!("mlam_monitor_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut plain_stdouts = Vec::new();
    for threads in ["1", "4"] {
        let plain_dir = base.join(format!("plain_t{threads}"));
        let monitored_dir = base.join(format!("monitored_t{threads}"));
        let plain_stdout = run_repro(&plain_dir, threads, false);
        let monitored_stdout = run_repro(&monitored_dir, threads, true);
        assert_eq!(
            plain_stdout, monitored_stdout,
            "stdout must be byte-identical monitor-on vs off at MLAM_THREADS={threads}"
        );
        plain_stdouts.push(plain_stdout);
        let plain_metrics = read(&plain_dir.join("metrics.jsonl"));
        let monitored_metrics = read(&monitored_dir.join("metrics.jsonl"));
        assert_eq!(
            split_metrics(&plain_metrics),
            split_metrics(&monitored_metrics),
            "deterministic metrics.jsonl lines and the set of span timing \
             histograms must not change with monitoring at MLAM_THREADS={threads}"
        );
        let curves = read(&base.join("plain_t1/curves.jsonl"));
        assert!(!curves.is_empty(), "curves.jsonl must not be empty");
        for dir in [&plain_dir, &monitored_dir] {
            assert_eq!(
                read(&dir.join("curves.jsonl")),
                curves,
                "curves.jsonl must be byte-identical across thread counts and \
                 monitor on/off (differs in {})",
                dir.display()
            );
        }
    }
    assert_eq!(
        plain_stdouts[0], plain_stdouts[1],
        "stdout must be byte-identical at MLAM_THREADS=1 and 4"
    );

    let manifest = |threads: &str| -> RunManifest {
        serde_json::from_str(&read(&base.join(format!("plain_t{threads}/manifest.json"))))
            .expect("parse manifest.json")
    };
    let (manifest_1, manifest_4) = (manifest("1"), manifest("4"));
    assert_eq!((manifest_1.threads, manifest_4.threads), (1, 4));
    assert_eq!(manifest_1.seed, manifest_4.seed);
    assert_eq!(manifest_1.experiments.len(), manifest_4.experiments.len());
    for (a, b) in manifest_1.experiments.iter().zip(&manifest_4.experiments) {
        assert_eq!(
            a.name, b.name,
            "experiment order must not depend on threads"
        );
        assert_eq!(
            a.counters, b.counters,
            "{} drifts across thread counts",
            a.name
        );
        let file = format!("{}.json", a.name);
        assert_eq!(
            strip_seconds(&read(&base.join("plain_t1").join(&file))),
            strip_seconds(&read(&base.join("plain_t4").join(&file))),
            "{file} differs between MLAM_THREADS=1 and 4"
        );
    }
    let options = mlam_trace::compare::CompareOptions {
        threshold: 2.0,
        min_wall_s: 1.0,
        ..Default::default()
    };
    let report = mlam_trace::compare::compare(&manifest_1, &manifest_4, &options);
    assert!(
        !report.has_counter_drift(),
        "thread counts must not drift counters:\n{}",
        report.render()
    );
    let _ = std::fs::remove_dir_all(&base);
}

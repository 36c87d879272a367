//! End-to-end test of the `repro_all --quick --json <dir>` contract:
//! the manifest, per-experiment JSON files and metrics JSONL must all
//! exist, deserialize through serde, and agree with the in-process
//! manifest — and two runs from the same seed must report identical
//! per-experiment query counters.

use mlam::telemetry::{Event, MetricLine, RunManifest};
use mlam_bench::{run_all, CliOptions, ExperimentJson, Session, EXPERIMENTS};
use std::path::Path;

fn run_once(dir: &Path) -> RunManifest {
    let options = CliOptions {
        quick: true,
        json_dir: Some(dir.to_path_buf()),
        force: false,
        resume: None,
        ..CliOptions::default()
    };
    let mut session = Session::start("repro_all", &options);
    let failures = run_all(&mut session);
    assert!(failures.is_empty(), "experiment failures: {failures:?}");
    session.finish()
}

#[test]
fn quick_json_run_is_complete_and_deterministic() {
    let base = std::env::temp_dir().join(format!("mlam_repro_json_{}", std::process::id()));
    let dir_a = base.join("a");
    let dir_b = base.join("b");
    // Sequential same-seed runs: the global counters accumulate, but
    // the per-experiment snapshot deltas must match exactly.
    let manifest_a = run_once(&dir_a);
    let manifest_b = run_once(&dir_b);

    assert_eq!(manifest_a.seed, mlam_bench::REPRO_SEED);
    assert!(manifest_a.quick);
    assert!(manifest_a.total_seconds > 0.0);
    assert!(!manifest_a.crate_versions.is_empty());

    // The manifest lists every experiment, in order, with wall-clock
    // and at least one counted query column somewhere.
    let names: Vec<&str> = manifest_a
        .experiments
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name()).collect();
    assert_eq!(names, registry);
    assert!(manifest_a.experiments.iter().all(|e| e.seconds >= 0.0));
    let totals = manifest_a.counter_totals();
    assert!(
        totals.keys().any(|k| k.starts_with("oracle.")),
        "no oracle counters in {totals:?}"
    );
    assert!(
        totals.keys().any(|k| k.starts_with("sat.")),
        "no sat counters in {totals:?}"
    );

    // manifest.json round-trips through serde to exactly the manifest
    // the session returned.
    let text = std::fs::read_to_string(dir_a.join("manifest.json")).unwrap();
    let parsed: RunManifest = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed, manifest_a);

    // One structured result file per experiment, consistent with the
    // manifest record.
    for (i, name) in registry.iter().enumerate() {
        let path = dir_a.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        let exp: ExperimentJson = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("bad JSON in {}: {e}", path.display()));
        assert_eq!(exp.name, *name);
        assert_eq!(exp.seed, manifest_a.seed);
        assert!(exp.quick);
        assert_eq!(exp.counters, manifest_a.experiments[i].counters);
        assert!(!exp.tables.is_empty(), "{name} rendered no tables");
        for table in &exp.tables {
            assert!(!table.header.is_empty());
        }
    }

    // metrics.jsonl: every line is a MetricLine.
    let metrics = std::fs::read_to_string(dir_a.join("metrics.jsonl")).unwrap();
    let mut lines = 0usize;
    for line in metrics.lines() {
        let _: MetricLine =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad metrics line {line}: {e}"));
        lines += 1;
    }
    assert!(lines > 0, "metrics.jsonl is empty");

    // events.jsonl: every line is an Event, and the named driver spans
    // all appear.
    let events = std::fs::read_to_string(dir_a.join("events.jsonl")).unwrap();
    let parsed_events: Vec<Event> = events
        .lines()
        .map(|line| {
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad event line {line}: {e}"))
        })
        .collect();
    for name in &registry {
        let span = format!("experiment.{name}");
        // The ablations driver's span is experiment.ablations, etc.
        assert!(
            parsed_events.iter().any(|e| e.name == span),
            "no span events for {span}"
        );
    }

    // The span tree reconstructs from ids: every experiment.<name>
    // span hangs off the bench.run_all root span of its own run.
    let run_all_ids: Vec<u64> = parsed_events
        .iter()
        .filter(|e| e.name == "bench.run_all")
        .map(|e| e.id)
        .collect();
    assert!(!run_all_ids.is_empty(), "bench.run_all span missing");
    for event in parsed_events
        .iter()
        .filter(|e| e.name.starts_with("experiment."))
    {
        assert_ne!(event.id, 0);
        let parent = event.parent_id.expect("experiment spans have a parent");
        assert!(
            run_all_ids.contains(&parent),
            "{} should nest under bench.run_all, parent_id={parent}",
            event.name
        );
    }

    // Chrome-trace export of the real run stays structurally valid:
    // every B has a matching E per track.
    let trace = mlam_trace::chrome::export(&parsed_events);
    let mut open: std::collections::HashMap<u64, Vec<&str>> = std::collections::HashMap::new();
    for chrome_event in &trace.traceEvents {
        let stack = open.entry(chrome_event.tid).or_default();
        match chrome_event.ph.as_str() {
            "B" => stack.push(&chrome_event.name),
            "E" => assert_eq!(stack.pop(), Some(chrome_event.name.as_str())),
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(open.values().all(|s| s.is_empty()), "unclosed B events");

    // Determinism: same seed, same parameter set -> identical counter
    // deltas for every experiment (wall-clock of course differs).
    assert_eq!(manifest_a.experiments.len(), manifest_b.experiments.len());
    for (a, b) in manifest_a.experiments.iter().zip(&manifest_b.experiments) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.counters, b.counters,
            "experiment {} is not seed-deterministic",
            a.name
        );
    }

    // mlam-trace compare agrees: two same-seed --quick runs have zero
    // counter drift. (Wall-clock uses a generous threshold here so
    // scheduler jitter between the back-to-back runs cannot flake the
    // test; the strict-threshold exit codes are covered by the
    // mlam-trace compare_cli test on synthetic manifests.)
    let options = mlam_trace::compare::CompareOptions {
        threshold: 2.0,
        min_wall_s: 1.0,
        ..Default::default()
    };
    let report = mlam_trace::compare::compare(&manifest_a, &manifest_b, &options);
    assert!(
        !report.has_counter_drift(),
        "same-seed runs must not drift:\n{}",
        report.render()
    );
    assert!(!report.has_wall_regression(), "{}", report.render());

    // A synthetically slowed run trips the wall-clock gate.
    let mut slowed = manifest_b.clone();
    for exp in &mut slowed.experiments {
        exp.seconds = exp.seconds * 10.0 + 10.0;
    }
    slowed.total_seconds = slowed.total_seconds * 10.0 + 10.0;
    let report = mlam_trace::compare::compare(&manifest_a, &slowed, &options);
    assert!(report.has_wall_regression(), "{}", report.render());
    assert!(!report.has_counter_drift());

    let _ = std::fs::remove_dir_all(&base);
}

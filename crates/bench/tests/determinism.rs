//! The determinism contract, end to end: the same seed gives the same
//! tables, counters and curves under every run knob.
//!
//! One fresh `repro_all` process runs per cell of a knob matrix, each
//! with every inherited `MLAM_*` variable removed and only its cell's
//! settings given:
//!
//! | cell | settings |
//! |---|---|
//! | reference | `--quick`, `MLAM_THREADS=1` |
//! | threads | `--quick`, `MLAM_THREADS=4` |
//! | observability | quick t4, `--monitor 127.0.0.1:0 --progress`, `MLAM_LOG=debug` |
//! | curves off | quick t4, `MLAM_CURVES=0` |
//! | resume | quick t4, `--resume` on a copy of the reference directory cut as a kill would leave it |
//! | paper | paper scale (no `--quick`), `MLAM_THREADS=4` |
//!
//! The reference run must parse into its schema types and agree with
//! `baselines/quick`, the checked-in record of a 1-thread quick run
//! ([`check_baseline`]): the same seed and parameter set, the same
//! `(name, degraded, counters)` experiment records in the same order,
//! and the same `curves.jsonl` and stdout (`stdout.txt`, the tables'
//! numbers) byte for byte. [`check_cell`] then holds every other quick
//! cell's run directory against the reference's, and the observability
//! cell's stderr must hold one `--progress` line per experiment, in
//! count order. The paper cell, a test of its own, is held against
//! `baselines/paper` in the same way. Wall clock is the one thing no
//! cell compares. That `--only` reproduces its experiments of the full
//! run is checked in `cli.rs`, against `baselines/quick`.

use mlam::telemetry::{EventKind, RunManifest, CURVES_FILE};
use mlam_bench::{ExperimentJson, EXPERIMENTS, REPRO_SEED};
use mlam_trace::run::{load_events, load_manifest, load_metrics};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A baseline run's stdout, the paper's tables, in `baselines/<scale>`.
const STDOUT_FILE: &str = "stdout.txt";

/// The experiments the resume cell's kill left without a usable
/// checkpoint: three never written, `lockdown.json` cut mid-write.
const RERUN: [&str; 4] = ["table1", "spectral", "interpose", "lockdown"];

/// One finished `repro_all` process.
struct Run {
    dir: PathBuf,
    stdout: String,
    stderr: String,
}

impl Run {
    fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn manifest(&self) -> RunManifest {
        load_manifest(&self.file("manifest.json")).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Runs `repro_all <args> <dir>` with every inherited `MLAM_*` variable
/// removed and only `env` set.
fn repro_all(env: &[(&str, &str)], args: &[&str], dir: PathBuf) -> Run {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro_all"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("MLAM_") {
            command.env_remove(name);
        }
    }
    let output = command
        .envs(env.iter().copied())
        .args(args)
        .arg(&dir)
        .output()
        .expect("spawn repro_all");
    let stderr = String::from_utf8(output.stderr).expect("UTF-8 stderr");
    assert!(
        output.status.success(),
        "repro_all {args:?} under {env:?} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    Run {
        dir,
        stdout,
        stderr,
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts `got` and `want` hold the same text. On a difference the
/// message names `what` and the first line that differs instead of
/// printing both texts (`curves.jsonl` is about 65 KB at `--quick`).
fn assert_same_bytes(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        let (a, b) = (got_lines.next(), want_lines.next());
        if a != b || a.is_none() {
            panic!("{what} at line {line}:\n  got: {a:?}\n want: {b:?}");
        }
    }
}

/// The lines of `text` without the ones naming the wall-clock field.
fn strip_seconds(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|line| !line.contains("\"seconds\""))
        .collect()
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

/// The counters of `metrics.jsonl` a resume reproduces: the nonzero
/// ones outside the checkpoint machinery's own `harness.checkpoint.*`.
fn resumable_counters(run: &Run) -> BTreeMap<String, u64> {
    let (counters, _) = load_metrics(&run.file("metrics.jsonl")).unwrap_or_else(|e| panic!("{e}"));
    counters
        .into_iter()
        .filter(|(name, value)| *value != 0 && !name.starts_with("harness.checkpoint."))
        .collect()
}

/// Checks `events.jsonl` holds one process's span tree: every line is
/// an `Event`, span ids are unique, every parent is a span of the same
/// file, `experiment.*` spans hang off `bench.run_all`, and the Chrome
/// export closes every span it opens. Returns the span names.
fn check_events(run: &Run) -> BTreeSet<String> {
    let events = load_events(&run.file("events.jsonl")).unwrap_or_else(|e| panic!("{e}"));
    let mut spans = HashMap::new();
    for event in events.iter().filter(|e| e.kind == EventKind::SpanStart) {
        assert_ne!(event.id, 0);
        let earlier = spans.insert(event.id, event.name.as_str());
        assert!(
            earlier.is_none(),
            "span id {} starts twice in {}",
            event.id,
            run.dir.display()
        );
    }
    for event in &events {
        if let Some(parent) = event.parent_id {
            assert!(
                spans.contains_key(&parent),
                "{} names parent {parent}, which is not a span of {}",
                event.name,
                run.dir.display()
            );
        }
        if event.name.starts_with("experiment.") {
            let parent = event.parent_id.and_then(|id| spans.get(&id));
            assert_eq!(parent, Some(&"bench.run_all"), "{}", event.name);
        }
    }
    let trace = mlam_trace::chrome::export(&events);
    let mut open: HashMap<u64, Vec<&str>> = HashMap::new();
    for chrome_event in &trace.traceEvents {
        let stack = open.entry(chrome_event.tid).or_default();
        match chrome_event.ph.as_str() {
            "B" => stack.push(&chrome_event.name),
            "E" => assert_eq!(stack.pop(), Some(chrome_event.name.as_str())),
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(open.values().all(|s| s.is_empty()), "unclosed B events");
    spans.into_values().map(str::to_string).collect()
}

/// The manifest's experiment names, in run order.
fn experiment_names(manifest: &RunManifest) -> Vec<&str> {
    manifest
        .experiments
        .iter()
        .map(|e| e.name.as_str())
        .collect()
}

/// The reference run's schema, its agreement with itself, and its
/// agreement with the checked-in `baselines/quick`.
fn check_reference(run: &Run) {
    let manifest = run.manifest();
    assert_eq!(manifest.seed, REPRO_SEED);
    assert!(manifest.quick);
    assert_eq!(manifest.threads, 1);
    assert!(manifest.total_seconds > 0.0);
    assert!(!manifest.crate_versions.is_empty());
    assert!(manifest.experiments.iter().all(|e| e.seconds >= 0.0));
    let totals = manifest.counter_totals();
    for layer in ["oracle.", "sat."] {
        assert!(
            totals.keys().any(|k| k.starts_with(layer)),
            "no {layer}* counters in {totals:?}"
        );
    }

    for record in &manifest.experiments {
        let path = run.file(&format!("{}.json", record.name));
        let exp: ExperimentJson = serde_json::from_str(&read(&path))
            .unwrap_or_else(|e| panic!("bad JSON in {}: {e}", path.display()));
        assert_eq!(exp.name, record.name);
        assert_eq!(exp.seed, manifest.seed);
        assert!(exp.quick);
        assert_eq!(exp.counters, record.counters);
        assert!(!exp.tables.is_empty(), "{} rendered no tables", record.name);
        assert!(exp.tables.iter().all(|table| !table.header.is_empty()));
    }
    let (counters, _) = load_metrics(&run.file("metrics.jsonl")).unwrap_or_else(|e| panic!("{e}"));
    assert!(!counters.is_empty(), "metrics.jsonl holds no counters");
    let spans = check_events(run);
    for experiment in EXPERIMENTS {
        let name = experiment.name();
        assert!(spans.contains(&format!("experiment.{name}")), "{name}");
    }
    check_baseline(run, "reference", "quick");
}

/// Holds the `cell` run against the checked-in `baselines/<scale>`:
/// the same seed and parameter set, the same `(name, degraded,
/// counters)` experiment records in registry order, and the same
/// `curves.jsonl` and stdout byte for byte.
fn check_baseline(run: &Run, cell: &str, scale: &str) {
    let manifest = run.manifest();
    let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name()).collect();
    assert_eq!(experiment_names(&manifest), registry, "the {cell} run");
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines")
        .join(scale);
    let recorded = load_manifest(&baseline.join("manifest.json")).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        (manifest.seed, manifest.quick),
        (recorded.seed, recorded.quick),
        "the {cell} run's seed or parameter set differs from baselines/{scale}"
    );
    assert_eq!(
        experiment_names(&recorded),
        registry,
        "baselines/{scale} records other experiments than the registry"
    );
    for (want, record) in recorded.experiments.iter().zip(&manifest.experiments) {
        assert_eq!(
            (record.degraded, &record.counters),
            (want.degraded, &want.counters),
            "{}: the {cell} run drifts from baselines/{scale}",
            want.name
        );
    }
    assert_same_bytes(
        &read(&run.file(CURVES_FILE)),
        &read(&baseline.join(CURVES_FILE)),
        &format!(
            "{} differs from baselines/{scale}",
            run.file(CURVES_FILE).display()
        ),
    );
    assert_same_bytes(
        &run.stdout,
        &read(&baseline.join(STDOUT_FILE)),
        &format!("the {cell} run's stdout differs from baselines/{scale}/{STDOUT_FILE}"),
    );
}

/// What a cell must reproduce of the reference run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Everything but wall clock: stdout, the manifest records, every
    /// `<name>.json` but its `seconds` lines, the deterministic
    /// `metrics.jsonl` lines and `curves.jsonl`.
    Full,
    /// [`Cell::Full`], except that no `curves.jsonl` may exist.
    CurvesOff,
    /// A resumed directory: the manifest records, every `<name>.json`
    /// but its `seconds`, `curves.jsonl` and [`resumable_counters`];
    /// the restored experiments keep their recorded seconds.
    Resumed,
}

/// Holds `run` against the reference run: one comparison for every
/// cell, narrowed by what [`Cell`] says the cell reproduces.
fn check_cell(reference: &Run, run: &Run, cell: Cell) {
    let label = run.dir.display();
    let expected = reference.manifest();
    let manifest = run.manifest();
    assert_eq!(manifest.threads, 4, "{label}");
    assert_eq!(
        (manifest.seed, manifest.quick),
        (expected.seed, expected.quick),
        "seed or parameter set differs in {label}"
    );
    assert_eq!(
        experiment_names(&manifest),
        experiment_names(&expected),
        "experiment order differs in {label}"
    );
    for (want, record) in expected.experiments.iter().zip(&manifest.experiments) {
        assert_eq!(
            record.counters, want.counters,
            "{} drifts in {label}",
            want.name
        );
        assert!(!record.degraded, "{} degraded in {label}", want.name);
        if cell == Cell::Resumed && !RERUN.contains(&want.name.as_str()) {
            assert_eq!(record.seconds, want.seconds, "{} not restored", want.name);
        }
        let file = format!("{}.json", want.name);
        assert_eq!(
            strip_seconds(&read(&run.file(&file))),
            strip_seconds(&read(&reference.file(&file))),
            "{file} differs in {label}"
        );
    }
    check_events(run);

    if cell == Cell::CurvesOff {
        assert!(!run.file(CURVES_FILE).exists(), "{label} wrote curves");
    } else {
        assert_same_bytes(
            &read(&run.file(CURVES_FILE)),
            &read(&reference.file(CURVES_FILE)),
            &format!(
                "{} differs from the reference run's",
                run.file(CURVES_FILE).display()
            ),
        );
    }

    match cell {
        Cell::Full | Cell::CurvesOff => {
            assert_same_bytes(
                &run.stdout,
                &reference.stdout,
                &format!("stdout differs in {label}"),
            );
            let metrics = read(&run.file("metrics.jsonl"));
            assert_eq!(
                split_metrics(&metrics),
                split_metrics(&read(&reference.file("metrics.jsonl"))),
                "deterministic metrics.jsonl lines or span timing names differ in {label}"
            );
        }
        Cell::Resumed => assert_eq!(
            resumable_counters(run),
            resumable_counters(reference),
            "metrics.jsonl counters differ in {label}"
        ),
    }
}

#[test]
fn every_knob_reproduces_the_reference_run() {
    let base = std::env::temp_dir().join(format!("mlam_determinism_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let t1 = [("MLAM_THREADS", "1")];
    let t4 = ("MLAM_THREADS", "4");

    let reference = repro_all(&t1, &["--quick", "--json"], base.join("reference"));
    check_reference(&reference);

    let threads = repro_all(&[t4], &["--quick", "--json"], base.join("threads"));
    check_cell(&reference, &threads, Cell::Full);

    let observability = repro_all(
        &[t4, ("MLAM_LOG", "debug")],
        &[
            "--quick",
            "--monitor",
            "127.0.0.1:0",
            "--progress",
            "--json",
        ],
        base.join("observability"),
    );
    check_cell(&reference, &observability, Cell::Full);
    assert!(
        observability.stderr.contains("monitor listening on"),
        "no monitor line on stderr:\n{}",
        observability.stderr
    );
    // Every completion prints its own line, whichever of the 4 workers
    // finished it, so the counts read 1/14, 2/14, ..., 14/14.
    let total = EXPERIMENTS.len();
    let progress: Vec<String> = observability
        .stderr
        .lines()
        .filter_map(|line| line.strip_prefix("mlam: progress "))
        .filter_map(|rest| rest.split(' ').next())
        .map(str::to_string)
        .collect();
    let want: Vec<String> = (1..=total).map(|k| format!("{k}/{total}")).collect();
    assert_eq!(
        progress, want,
        "progress lines on stderr:\n{}",
        observability.stderr
    );

    let curves_off = repro_all(
        &[t4, ("MLAM_CURVES", "0")],
        &["--quick", "--json"],
        base.join("no_curves"),
    );
    check_cell(&reference, &curves_off, Cell::CurvesOff);

    // A kill mid-run: the final manifest and metrics were never
    // written, three experiments never checkpointed, and one checkpoint
    // was cut mid-write.
    let killed = base.join("resume");
    std::fs::create_dir_all(&killed).unwrap();
    for entry in std::fs::read_dir(&reference.dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, killed.join(path.file_name().unwrap())).unwrap();
    }
    for lost in ["manifest.json", "metrics.jsonl"] {
        std::fs::remove_file(killed.join(lost)).unwrap();
    }
    for never_ran in &RERUN[..3] {
        std::fs::remove_file(killed.join(format!("{never_ran}.json"))).unwrap();
    }
    let cut = killed.join(format!("{}.json", RERUN[3]));
    let bytes = std::fs::read(&cut).unwrap();
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
    let resumed = repro_all(&[t4], &["--quick", "--resume"], killed);
    check_cell(&reference, &resumed, Cell::Resumed);

    let _ = std::fs::remove_dir_all(&base);
}

/// The paper cell: one paper-scale run at 4 threads, held against
/// `baselines/paper` as the reference is held against `baselines/quick`.
#[test]
fn the_paper_scale_run_reproduces_baselines_paper() {
    let dir = std::env::temp_dir().join(format!("mlam_determinism_paper_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let paper = repro_all(&[("MLAM_THREADS", "4")], &["--json"], dir.clone());
    assert_eq!(paper.manifest().threads, 4);
    check_baseline(&paper, "paper", "paper");
    let _ = std::fs::remove_dir_all(&dir);
}

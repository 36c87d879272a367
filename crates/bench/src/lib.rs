//! Shared harness for the benchmark binaries: CLI parsing, the
//! telemetry [`Session`] that turns experiment runs into a
//! [`RunManifest`], the registry of the reproduction's experiments
//! ([`EXPERIMENTS`]) and [`run_all`], which runs it for `repro_all`
//! and the integration tests.
//!
//! Output contract (the observability promise): everything a binary
//! printed before telemetry existed still goes to stdout unchanged;
//! the session only *adds* files under `--json <dir>` and stderr lines
//! under `MLAM_LOG`.
//!
//! Fault tolerance: a batch run checkpoints every finished experiment
//! into its run directory ([`CheckpointStore`]), failed experiments
//! degrade to partial records (`degraded: true`) instead of sinking
//! the run, and `--resume <dir>` continues an interrupted run by
//! skipping every complete checkpoint. Each experiment is a pure
//! function of `(seed, quick, index)`, so a re-run one reproduces the
//! interrupted run's records; [`Session::run_batch`] lists what a
//! resumed directory shares with an uninterrupted one. See
//! `HARNESS.md` for the full story.

use mlam::experiments::ablations::{run_ablations, AblationParams};
use mlam::experiments::ac0::{run_ac0, Ac0Params};
use mlam::experiments::checkpoint::CheckpointState;
use mlam::experiments::corollary2::{run_corollary2, Corollary2Params};
use mlam::experiments::exact_vs_approx::{run_exact_vs_approx, ExactVsApproxParams};
use mlam::experiments::fault_sweep::{run_fault_sweep, FaultSweepParams};
use mlam::experiments::interpose::{run_interpose, InterposeParams};
use mlam::experiments::lockdown::{run_lockdown, LockdownParams};
use mlam::experiments::locking::{run_locking, LockingParams};
use mlam::experiments::rocknroll::{run_rocknroll, RocknRollParams};
use mlam::experiments::sequential::{run_sequential, SequentialParams};
use mlam::experiments::spectral::{run_spectral, SpectralParams};
use mlam::experiments::{
    run_table1, run_table2, run_table3, Table1Params, Table2Params, Table3Params,
};
use mlam::report::Table;
use mlam::telemetry::curves::{self, CurveRecorder, CurveSink, CURVES_FILE};
use mlam::telemetry::{self, ExperimentRecord, RunManifest};
use mlam_monitor::{LiveCurves, Monitor, MonitorHandle, Progress, ProgressReporter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use mlam::experiments::checkpoint::{CheckpointStore, ExperimentJson, TableJson};

/// The fixed root seed every reproduction binary uses.
pub const REPRO_SEED: u64 = 0xDA7E_2020;

/// Workspace crates whose (shared) version is recorded in the manifest:
/// every package under `crates/`.
const WORKSPACE_CRATES: &[&str] = &[
    "mlam",
    "mlam-bench",
    "mlam-boolean",
    "mlam-harness",
    "mlam-learn",
    "mlam-locking",
    "mlam-monitor",
    "mlam-netlist",
    "mlam-par",
    "mlam-puf",
    "mlam-sat",
    "mlam-telemetry",
    "mlam-trace",
];

/// Options shared by all benchmark binaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CliOptions {
    /// Use the reduced `quick()` parameter sets.
    pub quick: bool,
    /// Write `manifest.json`, `metrics.jsonl`, `events.jsonl` and one
    /// `<experiment>.json` per experiment into this directory.
    pub json_dir: Option<PathBuf>,
    /// Allow `--json` to overwrite a directory that already holds a
    /// completed run (a `manifest.json`).
    pub force: bool,
    /// Continue an interrupted run: write into this existing run
    /// directory, skipping every experiment whose checkpoint is
    /// complete and re-running corrupt, degraded or missing ones.
    pub resume: Option<PathBuf>,
    /// Serve live observability (`/metrics`, `/progress`, `/healthz`)
    /// on this address (e.g. `127.0.0.1:9100`) for the duration of the
    /// run. Monitoring never perturbs results: stdout and the `--json`
    /// files are byte-identical with it on or off (see
    /// `OBSERVABILITY.md`).
    pub monitor: Option<String>,
    /// Print progress/ETA lines to **stderr** as experiments complete.
    pub progress: bool,
    /// Run only these experiments (`--only <name>[,<name>…]`), in
    /// registry order; empty runs them all.
    pub only: Vec<String>,
}

/// The flags [`parse_cli`] accepts, printed when it rejects one.
pub const CLI_FLAGS: &str = "accepted flags: --quick, --json <dir>, --force, --resume <dir>, \
     --monitor <addr>, --progress, --only <name>[,<name>...]";

/// Parses `--quick`, `--json <dir>`, `--force`, `--resume <dir>`,
/// `--monitor <addr>`, `--progress` and `--only <name>[,<name>…]` from
/// a program's arguments; the first element, the program name, is
/// skipped. `--only` may name the experiments of [`EXPERIMENTS`].
///
/// Malformed input is an error, never a panic: an unknown argument, a
/// flag without its value, an unknown or empty `--only` name, or
/// `--resume` and `--json` naming different directories is printed to
/// stderr with the accepted flags ([`CLI_FLAGS`]) and the process
/// exits with status 2, so a typo such as `--quik` never runs the
/// paper-scale suite.
pub fn parse_cli<I: IntoIterator<Item = String>>(args: I) -> CliOptions {
    try_parse_cli(args).unwrap_or_else(|err| {
        eprintln!("{err}\n{CLI_FLAGS}");
        std::process::exit(2)
    })
}

/// [`parse_cli`] without the exit: malformed input is an `Err`
/// describing it.
pub fn try_parse_cli<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    let mut options = CliOptions::default();
    let known = || {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        format!("experiments: [{}]", names.join(", "))
    };
    let mut args = args.into_iter().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} requires {what}"));
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--json" => options.json_dir = Some(PathBuf::from(value("a directory argument")?)),
            "--force" => options.force = true,
            "--resume" => options.resume = Some(PathBuf::from(value("a directory argument")?)),
            "--monitor" => {
                options.monitor = Some(value("an address argument (e.g. 127.0.0.1:9100)")?);
            }
            "--progress" => options.progress = true,
            "--only" => {
                let list = value("a comma-separated list of experiments")
                    .map_err(|missing| format!("{missing}; {}", known()))?;
                for name in list.split(',') {
                    if !EXPERIMENTS.iter().any(|e| e.name == name) {
                        let problem = if name.is_empty() {
                            "empty experiment name".to_string()
                        } else {
                            format!("unknown experiment `{name}`")
                        };
                        return Err(format!("--only {list:?}: {problem}; {}", known()));
                    }
                    options.only.push(name.to_string());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let (Some(resume), Some(json)) = (&options.resume, &options.json_dir) {
        if resume != json {
            return Err(format!(
                "--resume {} and --json {} point at different directories; \
                 --resume already selects the output directory",
                resume.display(),
                json.display()
            ));
        }
    }
    Ok(options)
}

/// A reproduction run in progress: wraps every experiment driver call
/// with wall-clock timing and metric snapshots, accumulating a
/// [`RunManifest`].
pub struct Session {
    manifest: RunManifest,
    run_dir: Option<telemetry::RunDir>,
    store: Option<CheckpointStore>,
    resuming: bool,
    /// `--only`: the experiments [`Session::run_batch`] runs (all of
    /// them when empty).
    only: Vec<String>,
    started: Instant,
    // Observability (all None/off unless --monitor/--progress asked):
    // lives entirely outside the telemetry registry, so none of it can
    // change metrics.jsonl — see mlam-monitor's determinism firewall.
    progress: Option<Arc<Progress>>,
    monitor: Option<MonitorHandle>,
    reporter: Option<ProgressReporter>,
    // Learning-curve recording (on whenever a run directory or the
    // monitor is active, off via MLAM_CURVES=0): checkpoints fan out
    // to these sinks from the experiment's own thread, the recorder
    // becomes curves.jsonl at finish(). Like the monitor state, none
    // of this touches the telemetry registry.
    curve_sinks: Option<Arc<Vec<Arc<dyn CurveSink>>>>,
    curve_recorder: Option<Arc<CurveRecorder>>,
    /// Series recorded fresh this session (vs. restored on resume).
    curve_fresh: BTreeSet<String>,
}

impl Session {
    /// Starts a session for the named tool. When `--json` was given,
    /// claims the output directory as a [`telemetry::RunDir`] (created
    /// recursively; an existing `manifest.json` is refused without
    /// `--force`) and installs a [`telemetry::JsonlSink`] for span
    /// events at `events.jsonl`.
    ///
    /// With `--resume <dir>`, the existing run directory is reopened
    /// instead and [`Session::run_batch`] skips every experiment whose
    /// checkpoint is complete and valid for this `(seed, quick)`
    /// configuration. `events.jsonl` still starts empty: span ids,
    /// thread ids and timestamps restart in every process, so it holds
    /// the resumed process's spans only.
    /// `--resume` selects the output directory; [`parse_cli`] refuses a
    /// `--json` that names another one.
    ///
    /// # Errors
    ///
    /// Refuses, with a message naming the offending path or address, a
    /// `--json` directory that cannot be created or already holds a
    /// finished run (without `--force`), a `--resume` directory that
    /// does not exist, an `events.jsonl` that cannot be opened, and a
    /// `--monitor` address that cannot be bound. The binaries print the
    /// message with [`CLI_FLAGS`] and exit 2, as [`parse_cli`] does.
    pub fn start(tool: &str, options: &CliOptions) -> Result<Session, String> {
        // Wire telemetry's thread-local context (counter scopes, span
        // parents) into the parallel runtime before any fan-out runs.
        telemetry::install_parallel_propagation();
        let mut manifest = RunManifest::new(tool, REPRO_SEED, options.quick);
        manifest.threads = mlam_par::threads();
        let version = env!("CARGO_PKG_VERSION");
        for name in WORKSPACE_CRATES {
            manifest
                .crate_versions
                .push((name.to_string(), version.to_string()));
        }
        let resuming = options.resume.is_some();
        let output_dir = options.resume.as_ref().or(options.json_dir.as_ref());
        let run_dir = output_dir
            .map(|dir| {
                let run_dir = if resuming {
                    telemetry::RunDir::resume(dir)
                } else {
                    telemetry::RunDir::create(dir, options.force)
                }
                .map_err(|e| e.to_string())?;
                let events = run_dir.file("events.jsonl");
                let sink = telemetry::JsonlSink::create(&events)
                    .map_err(|e| format!("cannot open {}: {e}", events.display()))?;
                telemetry::add_sink(Box::new(sink));
                Ok::<_, String>(run_dir)
            })
            .transpose()?;
        let store = run_dir.as_ref().map(|dir| CheckpointStore::new(dir.path()));
        let progress =
            (options.monitor.is_some() || options.progress).then(|| Arc::new(Progress::new(0)));
        if matches!(std::env::var("MLAM_TRACK_ALLOC"), Ok(v) if !v.is_empty() && v != "0") {
            // Heap accounting is opt-in even under --monitor: the
            // per-allocation atomics cost ~1% of the quick suite, and
            // the overhead_pct < 2.0 bar in BENCH_6.json covers what
            // every monitored run pays by default. Without the env the
            // mem gauges on /metrics read zero. Gauges also need the
            // binary to install mlam_monitor::alloc::TrackingAlloc as
            // its global allocator (repro_all does).
            mlam_monitor::alloc::enable();
        }
        // Learning curves ride along whenever there is somewhere for
        // them to go: a run directory (curves.jsonl) or a monitor
        // (/curves). MLAM_CURVES=0 switches recording off for overhead
        // A/B measurements (`repro_ab '--quick MLAM_CURVES=0' '--quick'`).
        let curves_enabled = (run_dir.is_some() || options.monitor.is_some())
            && !matches!(std::env::var("MLAM_CURVES"), Ok(v) if v == "0");
        let curve_recorder =
            (curves_enabled && run_dir.is_some()).then(|| Arc::new(CurveRecorder::new()));
        let live_curves =
            (curves_enabled && options.monitor.is_some()).then(|| Arc::new(LiveCurves::new()));
        let curve_sinks = {
            let mut sinks: Vec<Arc<dyn CurveSink>> = Vec::new();
            if let Some(recorder) = &curve_recorder {
                sinks.push(Arc::clone(recorder) as Arc<dyn CurveSink>);
            }
            if let Some(live) = &live_curves {
                sinks.push(Arc::clone(live) as Arc<dyn CurveSink>);
            }
            (!sinks.is_empty()).then(|| Arc::new(sinks))
        };
        let monitor = options
            .monitor
            .as_ref()
            .map(|addr| {
                let mut config = Monitor::new(addr);
                if let Some(progress) = &progress {
                    config = config.progress(Arc::clone(progress));
                }
                if let Some(live) = &live_curves {
                    config = config.curves(Arc::clone(live));
                }
                let handle = config
                    .start()
                    .map_err(|e| format!("cannot start monitor on {addr}: {e}"))?;
                eprintln!(
                    "mlam: monitor listening on http://{}/metrics",
                    handle.addr()
                );
                Ok::<_, String>(handle)
            })
            .transpose()?;
        let reporter = options.progress.then(|| {
            let progress = progress.as_ref().expect("progress state exists");
            ProgressReporter::start(Arc::clone(progress), Duration::from_millis(500))
        });
        Ok(Session {
            manifest,
            run_dir,
            store,
            resuming,
            only: options.only.clone(),
            started: Instant::now(),
            progress,
            monitor,
            reporter,
            curve_sinks,
            curve_recorder,
            curve_fresh: BTreeSet::new(),
        })
    }

    /// The live progress state, when `--monitor` or `--progress` is
    /// active (testing and endpoint consumers; `None` otherwise).
    pub fn progress(&self) -> Option<&Arc<Progress>> {
        self.progress.as_ref()
    }

    /// Whether this session runs the reduced parameter sets.
    pub fn quick(&self) -> bool {
        self.manifest.quick
    }

    /// Runs a batch of experiments, fanned out across `MLAM_THREADS`
    /// workers (inline when `MLAM_THREADS=1`), then records, writes
    /// and prints every result **in batch order** — stdout, the
    /// manifest and the `--json` files are identical at any thread
    /// count. Under `--only`, the experiments it does not name are
    /// left out.
    ///
    /// Each experiment gets its own RNG seeded from
    /// `split_seed(session seed, index)`, `index` being its position in
    /// `experiments` whatever `--only` selects, and its own counter
    /// scope, so neither randomness nor attribution couples experiments
    /// to their schedule or to the selection. A panicking driver does
    /// not abort the batch: the
    /// experiment degrades to a partial record (`degraded: true`,
    /// wall-clock and counters up to the failure, no tables) in both
    /// the manifest and its checkpoint file, and the failure is
    /// returned so the caller can exit non-zero.
    ///
    /// When the session was started with `--resume`, experiments whose
    /// checkpoint is complete and matches this `(seed, quick)`
    /// configuration are **skipped**: their recorded counters and
    /// wall-clock are restored into the manifest (and the counters
    /// replayed into the global metric registry), a note goes to
    /// stderr, and their tables are *not* reprinted to stdout. Missing,
    /// corrupt (killed mid-write), stale (other seed/quick) and
    /// degraded checkpoints are re-run from their original
    /// `split_seed(seed, index)` stream.
    ///
    /// The resumed directory then matches an uninterrupted run in its
    /// manifest records (order and counters), every `<name>.json` but
    /// its `seconds`, `curves.jsonl`, and the nonzero `metrics.jsonl`
    /// counters outside `harness.checkpoint.*`. Its `metrics.jsonl`
    /// lacks the skipped experiments' histogram observations, because
    /// histograms are not checkpointed, and the zero-valued counters
    /// only they registered, because a checkpoint keeps nonzero
    /// counter deltas only.
    pub fn run_batch(&mut self, experiments: &[Experiment]) -> Vec<ExperimentFailure> {
        telemetry::install_parallel_propagation();
        let root = self.manifest.seed;
        let quick = self.quick();
        let selected: Vec<(usize, Experiment)> = experiments
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, e)| self.only.is_empty() || self.only.iter().any(|n| n == e.name))
            .collect();
        if let Some(progress) = &self.progress {
            progress.add_total(selected.len() as u64);
        }
        // Batch order must survive the skip/run split: each slot is
        // either a restored checkpoint or an index into the task list
        // handed to the pool, and results are drained back in order.
        enum Slot {
            Restored(ExperimentJson),
            Fresh,
        }
        let mut slots = Vec::new();
        let mut tasks: Vec<Box<dyn FnOnce() -> BatchOutcome + Send>> = Vec::new();
        for (index, experiment) in selected {
            let checkpoint = self
                .resuming
                .then_some(self.store.as_ref())
                .flatten()
                .map(|store| store.load(experiment.name));
            match checkpoint {
                Some(CheckpointState::Complete(record)) if record.resumable(root, quick) => {
                    eprintln!(
                        "mlam: resume: skipping {} (checkpoint complete)",
                        experiment.name
                    );
                    // A restored experiment is done work: count it
                    // immediately so /progress reflects the resume.
                    if let Some(progress) = &self.progress {
                        progress.complete_one();
                    }
                    slots.push(Slot::Restored(record));
                    continue;
                }
                Some(CheckpointState::Complete(record)) => {
                    telemetry::counter!("harness.checkpoint.stale", 1);
                    eprintln!(
                        "mlam: resume: re-running {} ({})",
                        experiment.name,
                        if record.degraded {
                            "checkpoint degraded".to_string()
                        } else {
                            format!(
                                "checkpoint from seed {:#x} quick={}, run wants seed {root:#x} quick={quick}",
                                record.seed, record.quick
                            )
                        }
                    );
                }
                Some(CheckpointState::Corrupt) => {
                    eprintln!(
                        "mlam: resume: re-running {} (checkpoint corrupt — killed mid-write?)",
                        experiment.name
                    );
                }
                Some(CheckpointState::Missing) | None => {}
            }
            slots.push(Slot::Fresh);
            if self.curve_sinks.is_some() {
                self.curve_fresh.insert(experiment.name.to_string());
            }
            // Workers carry their own store/progress handles so each
            // experiment checkpoints (and counts complete) the moment
            // it finishes, not when the whole batch drains: a mid-run
            // /progress scrape is always consistent with the
            // checkpoint files already on disk.
            let store = self.store.clone();
            let progress = self.progress.clone();
            let curve_sinks = self.curve_sinks.clone();
            tasks.push(Box::new(move || {
                run_experiment(experiment, root, quick, index, store, progress, curve_sinks)
            }) as Box<dyn FnOnce() -> BatchOutcome + Send>);
        }
        let mut fresh = mlam_par::par_run(tasks).into_iter();
        let mut failures = Vec::new();
        for slot in slots {
            match slot {
                Slot::Restored(record) => {
                    // Re-apply the restored counters to the global
                    // registry: the nonzero counters of final_metrics
                    // and metrics.jsonl then match a straight-through
                    // run's.
                    for (name, delta) in &record.counters {
                        telemetry::counter_handle(name).add(*delta);
                    }
                    self.manifest.experiments.push(ExperimentRecord {
                        name: record.name.clone(),
                        seconds: record.seconds,
                        counters: record.counters.clone(),
                        degraded: false,
                    });
                }
                Slot::Fresh => {
                    let outcome = fresh.next().expect("one outcome per fresh slot");
                    // The worker already streamed the checkpoint to
                    // disk; a failed save still fails the run, just
                    // surfaced here on the main thread.
                    if let Some(error) = outcome.checkpoint_error {
                        panic!("{error}");
                    }
                    let degraded = outcome.result.is_err();
                    self.manifest.experiments.push(ExperimentRecord {
                        name: outcome.name.to_string(),
                        seconds: outcome.seconds,
                        counters: outcome.counters.clone(),
                        degraded,
                    });
                    let tables = match outcome.result {
                        Ok(tables) => tables,
                        Err(message) => {
                            telemetry::counter!("harness.checkpoint.degraded", 1);
                            failures.push(ExperimentFailure {
                                name: outcome.name.to_string(),
                                message,
                            });
                            Vec::new()
                        }
                    };
                    for table in &tables {
                        println!("{table}");
                    }
                }
            }
        }
        failures
    }

    /// Finalizes the manifest (total wall-clock, final metrics) and,
    /// under `--json`, writes `manifest.json` and `metrics.jsonl`.
    /// Shuts the progress reporter (after its final line) and the
    /// monitor endpoint down. Returns the manifest for in-process
    /// inspection.
    pub fn finish(mut self) -> RunManifest {
        self.manifest.total_seconds = self.started.elapsed().as_secs_f64();
        self.manifest.final_metrics = telemetry::snapshot();
        if let Some(dir) = &self.run_dir {
            write_json(&dir.file("manifest.json"), &self.manifest);
            let path = dir.file("metrics.jsonl");
            let file = dir
                .create_file("metrics.jsonl")
                .unwrap_or_else(|e| panic!("{e}"));
            telemetry::write_metrics_jsonl(file, &self.manifest.final_metrics)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            if let Some(recorder) = &self.curve_recorder {
                // Resume merge, mirroring the checkpoint semantics:
                // series restored from complete checkpoints keep their
                // recorded curves, re-run series are replaced with this
                // session's points — the merged file matches what a
                // straight-through run would have written.
                let curves_path = dir.file(CURVES_FILE);
                let mut series = if self.resuming && curves_path.is_file() {
                    let mut loaded =
                        curves::read_curves_jsonl(&curves_path).unwrap_or_else(|e| panic!("{e}"));
                    loaded.retain(|name, _| !self.curve_fresh.contains(name));
                    loaded
                } else {
                    BTreeMap::new()
                };
                series.append(&mut recorder.series());
                let file = dir
                    .create_file(CURVES_FILE)
                    .unwrap_or_else(|e| panic!("{e}"));
                curves::write_curves_jsonl(file, &series)
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", curves_path.display()));
            }
        }
        if let Some(reporter) = self.reporter.take() {
            reporter.shutdown();
        }
        if let Some(monitor) = self.monitor.take() {
            monitor.shutdown();
        }
        self.manifest
    }
}

/// An experiment driver: takes `quick` (the reduced parameter set) and
/// the experiment's own RNG, returns the tables to print and serialize.
type Driver = fn(quick: bool, rng: &mut StdRng) -> Vec<Table>;

/// One experiment of the reproduction: a name plus its driver.
#[derive(Clone, Copy)]
pub struct Experiment {
    name: &'static str,
    run: Driver,
}

impl Experiment {
    /// Names a driver.
    pub const fn new(name: &'static str, run: Driver) -> Experiment {
        Experiment { name, run }
    }

    /// The manifest, `--only` and `<name>.json` name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A failed experiment of a batch: its name and the panic message.
#[derive(Clone, Debug)]
pub struct ExperimentFailure {
    pub name: String,
    pub message: String,
}

struct BatchOutcome {
    name: &'static str,
    seconds: f64,
    counters: BTreeMap<String, u64>,
    result: Result<Vec<Table>, String>,
    /// A failed streaming checkpoint save, surfaced on the main thread.
    checkpoint_error: Option<String>,
}

/// Executes one experiment on whichever worker the pool picked:
/// independent RNG from `(root, index)`, own counter scope, panics
/// contained.
///
/// The checkpoint is saved *here*, as soon as the driver returns —
/// streamed to disk while sibling experiments still run — so a resume
/// after a mid-batch kill skips everything that finished, and the
/// `/progress` endpoint agrees with the checkpoint directory at every
/// instant. The save (and its `harness.checkpoint.saved` increment)
/// happens after the counter scope is drained, exactly as when the
/// drain loop saved: attribution and `metrics.jsonl` are unchanged.
fn run_experiment(
    experiment: Experiment,
    root: u64,
    quick: bool,
    index: usize,
    store: Option<CheckpointStore>,
    progress: Option<Arc<Progress>>,
    curve_sinks: Option<Arc<Vec<Arc<dyn CurveSink>>>>,
) -> BatchOutcome {
    let name = experiment.name;
    let scope = telemetry::CounterScope::new();
    let started = Instant::now();
    let result = {
        let _guard = scope.enter();
        // The curve context lives on the worker thread running the
        // driver, exactly where the counter scope lives — checkpoints
        // read this experiment's own query totals and nothing else.
        let _curves = curve_sinks
            .as_ref()
            .map(|sinks| curves::enter_series(name, Arc::clone(sinks)));
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(mlam_par::split_seed(root, index as u64));
            (experiment.run)(quick, &mut rng)
        }))
    };
    let seconds = started.elapsed().as_secs_f64();
    let counters = scope.take();
    let result = result.map_err(|payload| panic_message(payload.as_ref()));
    let mut checkpoint_error = None;
    if let Some(store) = &store {
        let record = ExperimentJson {
            name: name.to_string(),
            seed: root,
            quick,
            seconds,
            degraded: result.is_err(),
            counters: counters.clone(),
            tables: result
                .as_deref()
                .map(|tables| tables.iter().map(TableJson::from_table).collect())
                .unwrap_or_default(),
        };
        if let Err(e) = store.save(&record) {
            checkpoint_error = Some(e.to_string());
        }
    }
    if let Some(progress) = &progress {
        progress.complete_one();
    }
    BatchOutcome {
        name,
        seconds,
        counters,
        result,
        checkpoint_error,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment driver panicked".to_string()
    }
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| panic!("cannot serialize {}: {e}", path.display()));
    std::fs::write(path, json + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// `$params::quick()` when `$quick`, else `$params::paper()`.
macro_rules! params {
    ($params:ty, $quick:expr) => {
        if $quick {
            <$params>::quick()
        } else {
            <$params>::paper()
        }
    };
}

/// The reproduction's experiments, in the order `repro_all` runs and
/// prints them: the paper's tables, the ablations, and last the fault
/// sweep of `HARNESS.md`. An experiment's index here is its
/// `split_seed` index, so `repro_all --only <name>` reproduces that
/// experiment of the full run bit for bit, and a new experiment goes
/// last to leave the others' seeds alone.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table1", |quick, rng| {
        let r = run_table1(&params!(Table1Params, quick), rng);
        vec![r.to_table(), r.empirical_table()]
    }),
    Experiment::new("table2", |quick, rng| {
        vec![run_table2(&params!(Table2Params, quick), rng).to_table()]
    }),
    Experiment::new("table3", |quick, rng| {
        vec![run_table3(&params!(Table3Params, quick), rng).to_table()]
    }),
    Experiment::new("corollary2", |quick, rng| {
        vec![run_corollary2(&params!(Corollary2Params, quick), rng).to_table()]
    }),
    Experiment::new("locking", |quick, rng| {
        vec![run_locking(&params!(LockingParams, quick), rng).to_table()]
    }),
    Experiment::new("sequential", |quick, rng| {
        vec![run_sequential(&params!(SequentialParams, quick), rng).to_table()]
    }),
    Experiment::new("exact_vs_approx", |quick, rng| {
        vec![run_exact_vs_approx(&params!(ExactVsApproxParams, quick), rng).to_table()]
    }),
    Experiment::new("ac0", |quick, rng| {
        vec![run_ac0(&params!(Ac0Params, quick), rng).to_table()]
    }),
    Experiment::new("spectral", |quick, rng| {
        vec![run_spectral(&params!(SpectralParams, quick), rng).to_table()]
    }),
    Experiment::new("interpose", |quick, rng| {
        vec![run_interpose(&params!(InterposeParams, quick), rng).to_table()]
    }),
    Experiment::new("rocknroll", |quick, rng| {
        vec![run_rocknroll(&params!(RocknRollParams, quick), rng).to_table()]
    }),
    Experiment::new("lockdown", |quick, rng| {
        vec![run_lockdown(&params!(LockdownParams, quick), rng).to_table()]
    }),
    Experiment::new("ablations", |quick, rng| {
        run_ablations(&params!(AblationParams, quick), rng).to_tables()
    }),
    Experiment::new("fault_sweep", |quick, rng| {
        vec![run_fault_sweep(&params!(FaultSweepParams, quick), rng).to_table()]
    }),
];

/// Runs the experiments of [`EXPERIMENTS`] (under `--only`, those it
/// names) — fanned out across `MLAM_THREADS` workers — printing each
/// table to stdout in registry order, while the session records timing,
/// counters and (under `--json`) structured results.
///
/// Every experiment seeds its own RNG from `split_seed(session seed,
/// registry index)`, so outputs are bit-identical at any thread count
/// and for any selection. Returns the experiments whose drivers
/// panicked (empty on a clean run); callers that exit should propagate
/// a non-zero status when the list is non-empty.
pub fn run_all(session: &mut Session) -> Vec<ExperimentFailure> {
    let _span = telemetry::span("bench.run_all")
        .attr("quick", session.quick())
        .attr("threads", mlam_par::threads());
    session.run_batch(EXPERIMENTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        try_parse_cli(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_parses_quick_and_json() {
        let opts = parse(&["bin", "--quick", "--json", "out/dir", "--force"]).unwrap();
        assert!(opts.quick);
        assert!(opts.force);
        assert_eq!(opts.json_dir.as_deref(), Some(Path::new("out/dir")));
        // The first argument is the program name, never a flag.
        let none = parse(&["--quick"]).unwrap();
        assert_eq!(none, CliOptions::default());
    }

    #[test]
    fn cli_rejects_unknown_flags() {
        for args in [
            &["bin", "--quik"][..],
            &["bin", "--quick", "extra"],
            &["bin", "-q"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(args[args.len() - 1]), "{err}");
        }
    }

    #[test]
    fn cli_checks_only_names_against_the_registry() {
        let opts = parse(&["bin", "--only", "locking,table3", "--only", "ac0"]).unwrap();
        assert_eq!(opts.only, ["locking", "table3", "ac0"]);
        for (args, problem) in [
            (&["bin", "--only"][..], "--only requires a"),
            (&["bin", "--only", ""], "empty experiment name"),
            (&["bin", "--only", "table3,"], "empty experiment name"),
            (&["bin", "--only", "tabel3"], "unknown experiment `tabel3`"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(problem), "{err}");
            // Every --only error lists what could have been selected.
            assert!(EXPERIMENTS.iter().all(|e| err.contains(e.name)), "{err}");
        }
    }

    #[test]
    fn cli_rejects_resume_and_json_naming_different_directories() {
        let err = parse(&["bin", "--resume", "a", "--json", "b"]).unwrap_err();
        assert!(err.contains("different directories"), "{err}");
        let same = parse(&["bin", "--resume", "a", "--json", "a"]).unwrap();
        assert_eq!(same.resume, same.json_dir);
    }

    #[test]
    fn session_refuses_to_clobber_a_finished_run() {
        let dir = std::env::temp_dir().join(format!("mlam_session_clobber_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), "{}\n").unwrap();
        let options = CliOptions {
            quick: true,
            json_dir: Some(dir.clone()),
            ..CliOptions::default()
        };
        let refused = Session::start("test-tool", &options);
        assert!(refused.is_err(), "Session::start must refuse to clobber");
        let forced = CliOptions {
            force: true,
            ..options
        };
        let session = Session::start("test-tool", &forced).unwrap();
        session.finish();
        assert!(dir.join("metrics.jsonl").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "value: \"--json requires a directory argument\"")]
    fn cli_rejects_dangling_json_flag() {
        parse(&["bin", "--json"]).unwrap();
    }

    #[test]
    fn cli_parses_resume() {
        let opts = parse(&["bin", "--resume", "out/run", "--quick"]).unwrap();
        assert_eq!(opts.resume.as_deref(), Some(Path::new("out/run")));
        assert!(opts.quick);
    }

    #[test]
    fn cli_parses_monitor_and_progress() {
        let opts = parse(&["bin", "--monitor", "127.0.0.1:9100", "--progress"]).unwrap();
        assert_eq!(opts.monitor.as_deref(), Some("127.0.0.1:9100"));
        assert!(opts.progress);
        let none = parse(&["bin"]).unwrap();
        assert_eq!(none.monitor, None);
        assert!(!none.progress);
    }

    #[test]
    #[should_panic(expected = "value: \"--monitor requires an address")]
    fn cli_rejects_dangling_monitor_flag() {
        parse(&["bin", "--monitor"]).unwrap();
    }

    #[test]
    fn monitored_batch_tracks_progress_and_serves_it() {
        let dir = std::env::temp_dir().join(format!("mlam_session_monitor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CliOptions {
            quick: true,
            json_dir: Some(dir.clone()),
            monitor: Some("127.0.0.1:0".to_string()),
            ..CliOptions::default()
        };
        let mut session = Session::start("test-monitor", &options).unwrap();
        let progress = Arc::clone(
            session
                .progress()
                .expect("--monitor implies progress state"),
        );
        assert_eq!(progress.completed(), 0);
        let failures = session.run_batch(&[
            Experiment::new("monitored_a", |_, _| vec![Table::new("A", &["v"])]),
            Experiment::new("monitored_b", |_, _| vec![Table::new("B", &["v"])]),
        ]);
        assert!(failures.is_empty());
        // Workers streamed completions and checkpoints: both are on
        // disk and counted before finish().
        assert_eq!(progress.completed(), 2);
        assert_eq!(progress.total(), 2);
        assert!(dir.join("monitored_a.json").is_file());
        assert!(dir.join("monitored_b.json").is_file());
        session.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "value: \"--resume requires a directory argument\"")]
    fn cli_rejects_dangling_resume_flag() {
        parse(&["bin", "--resume"]).unwrap();
    }

    #[test]
    fn resumed_batch_skips_complete_checkpoints_and_reruns_the_rest() {
        let dir = std::env::temp_dir().join(format!("mlam_session_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CliOptions {
            quick: true,
            json_dir: Some(dir.clone()),
            ..CliOptions::default()
        };

        let experiments = [
            Experiment::new("resume_a", |_, rng| {
                use rand::Rng;
                mlam::telemetry::counter!("bench.test.resume_a", 5);
                let roll: u64 = rng.gen();
                vec![Table::new(format!("A {roll}"), &["v"])]
            }),
            Experiment::new("resume_b", |_, rng| {
                use rand::Rng;
                mlam::telemetry::counter!("bench.test.resume_b", 7);
                let roll: u64 = rng.gen();
                vec![Table::new(format!("B {roll}"), &["v"])]
            }),
        ];

        let mut first = Session::start("test-resume", &options).unwrap();
        assert!(first.run_batch(&experiments).is_empty());
        let full = first.finish();

        // Simulate a kill after resume_a: resume_b's checkpoint and the
        // manifest are gone, resume_a's survives.
        std::fs::remove_file(dir.join("resume_b.json")).unwrap();
        std::fs::remove_file(dir.join("manifest.json")).unwrap();

        let resumed_options = CliOptions {
            quick: true,
            resume: Some(dir.clone()),
            ..CliOptions::default()
        };
        let mut second = Session::start("test-resume", &resumed_options).unwrap();
        assert!(second.run_batch(&experiments).is_empty());
        let resumed = second.finish();

        // Identical per-experiment records: restored for a, re-run
        // from the same split seed for b (seconds for a is restored
        // verbatim from the checkpoint).
        assert_eq!(resumed.experiments.len(), full.experiments.len());
        for (fresh, back) in full.experiments.iter().zip(&resumed.experiments) {
            assert_eq!(fresh.name, back.name);
            assert_eq!(fresh.counters, back.counters);
            assert!(!back.degraded);
        }
        // The re-run rewrote resume_b.json bit-identically.
        let full_b: ExperimentJson =
            serde_json::from_str(&std::fs::read_to_string(dir.join("resume_b.json")).unwrap())
                .unwrap();
        assert_eq!(full_b.name, "resume_b");
        assert_eq!(full_b.counters["bench.test.resume_b"], 7);
        assert!(dir.join("manifest.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_batch_experiments_degrade_to_partial_records() {
        let dir = std::env::temp_dir().join(format!("mlam_session_degrade_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CliOptions {
            quick: true,
            json_dir: Some(dir.clone()),
            ..CliOptions::default()
        };
        let mut session = Session::start("test-degrade", &options).unwrap();
        let failures = session.run_batch(&[
            Experiment::new("degrade_ok", |_, _| vec![]),
            Experiment::new("degrade_boom", |_, _| {
                mlam::telemetry::counter!("bench.test.degrade_partial", 2);
                panic!("injected failure")
            }),
        ]);
        let manifest = session.finish();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "degrade_boom");
        assert!(failures[0].message.contains("injected failure"));
        // The manifest keeps the partial record, marked degraded, with
        // the counters incremented before the panic.
        let boom = &manifest.experiments[1];
        assert!(boom.degraded);
        assert_eq!(boom.counters["bench.test.degrade_partial"], 2);
        assert!(!manifest.experiments[0].degraded);
        // The checkpoint mirrors it, and is not resumable.
        let record: ExperimentJson =
            serde_json::from_str(&std::fs::read_to_string(dir.join("degrade_boom.json")).unwrap())
                .unwrap();
        assert!(record.degraded);
        assert!(record.tables.is_empty());
        assert!(!record.resumable(manifest.seed, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_records_curves_into_curves_jsonl() {
        let dir = std::env::temp_dir().join(format!("mlam_session_curves_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CliOptions {
            quick: true,
            json_dir: Some(dir.clone()),
            ..CliOptions::default()
        };
        let mut session = Session::start("test-curves", &options).unwrap();
        let curve_x = Experiment::new("curve_x", |_, _| {
            telemetry::counter!("oracle.example_queries", 10);
            curves::checkpoint("demo", 1, 0.5, None);
            telemetry::counter!("oracle.example_queries", 22);
            curves::checkpoint("demo", 2, 0.75, None);
            Vec::new()
        });
        let failures = session.run_batch(&[curve_x]);
        assert!(failures.is_empty());
        session.finish();
        let series = curves::read_curves_jsonl(&dir.join(CURVES_FILE)).unwrap();
        let points = &series["curve_x"];
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].queries, 10);
        assert_eq!(points[1].queries, 32);
        assert_eq!(points[1].train_acc, 0.75);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_runs_merge_curves_for_skipped_experiments() {
        let dir =
            std::env::temp_dir().join(format!("mlam_session_curves_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CliOptions {
            quick: true,
            json_dir: Some(dir.clone()),
            ..CliOptions::default()
        };
        let experiments = [
            Experiment::new("curve_keep", |_, _| {
                telemetry::counter!("oracle.example_queries", 4);
                curves::checkpoint("demo", 1, 0.25, None);
                Vec::new()
            }),
            Experiment::new("curve_redo", |_, _| {
                telemetry::counter!("oracle.example_queries", 8);
                curves::checkpoint("demo", 1, 0.5, None);
                Vec::new()
            }),
        ];
        let mut first = Session::start("test-curves-resume", &options).unwrap();
        assert!(first.run_batch(&experiments).is_empty());
        first.finish();
        let full = std::fs::read(dir.join(CURVES_FILE)).unwrap();

        // Kill after curve_keep: curve_redo re-runs, curve_keep's curve
        // must survive from the previous curves.jsonl.
        std::fs::remove_file(dir.join("curve_redo.json")).unwrap();
        std::fs::remove_file(dir.join("manifest.json")).unwrap();
        let resumed_options = CliOptions {
            quick: true,
            resume: Some(dir.clone()),
            ..CliOptions::default()
        };
        let mut second = Session::start("test-curves-resume", &resumed_options).unwrap();
        assert!(second.run_batch(&experiments).is_empty());
        second.finish();
        let merged = std::fs::read(dir.join(CURVES_FILE)).unwrap();
        assert_eq!(merged, full, "resume must reproduce curves.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_records_experiments_without_json() {
        let mut session = Session::start("test-tool", &CliOptions::default()).unwrap();
        let failures = session.run_batch(&[Experiment::new("demo", |_, _| {
            mlam::telemetry::counter!("bench.test.session_counter", 3);
            Vec::new()
        })]);
        assert!(failures.is_empty());
        let manifest = session.finish();
        assert_eq!(manifest.tool, "test-tool");
        assert_eq!(manifest.experiments.len(), 1);
        let exp = &manifest.experiments[0];
        assert_eq!(exp.name, "demo");
        assert!(exp.seconds >= 0.0);
        assert_eq!(exp.counters["bench.test.session_counter"], 3);
        assert!(manifest.total_seconds >= exp.seconds);
        assert!(!manifest.crate_versions.is_empty());
    }

    #[test]
    fn workspace_crates_match_the_packages_under_crates() {
        let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let packages: BTreeSet<String> = std::fs::read_dir(&crates_dir)
            .expect("crates/ is readable")
            .filter_map(|entry| {
                let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
                std::fs::read_to_string(manifest).ok()
            })
            // `[package]` opens every manifest, so its name comes first.
            .map(|manifest| {
                let name = manifest.lines().find_map(|l| l.strip_prefix("name = "));
                name.expect("[package] has a name")
                    .trim_matches('"')
                    .to_string()
            })
            .collect();
        let listed: BTreeSet<String> = WORKSPACE_CRATES.iter().map(|c| c.to_string()).collect();
        assert_eq!(listed, packages);
    }
}

//! Shared harness for the benchmark binaries: CLI parsing, the
//! telemetry [`Session`] that turns experiment runs into a
//! [`RunManifest`], and [`run_all`] — the full reproduction sequence
//! used by `repro_all` and the integration tests.
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
//! skipping every complete checkpoint — bit-identical to the run the
//! kill interrupted, because each experiment is a pure function of
//! `(seed, quick, index)`. See `HARNESS.md` for the full story.

use mlam::experiments::checkpoint::CheckpointState;
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

/// Workspace crates whose (shared) version is recorded in the manifest.
const WORKSPACE_CRATES: &[&str] = &[
    "mlam",
    "mlam-bench",
    "mlam-boolean",
    "mlam-harness",
    "mlam-learn",
    "mlam-locking",
    "mlam-netlist",
    "mlam-par",
    "mlam-puf",
    "mlam-telemetry",
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
}

/// The flags [`parse_cli`] accepts, printed when it rejects one.
pub const CLI_FLAGS: &str =
    "accepted flags: --quick, --json <dir>, --force, --resume <dir>, --monitor <addr>, --progress";

/// Parses `--quick`, `--json <dir>`, `--force`, `--resume <dir>`,
/// `--monitor <addr>` and `--progress` from a program's arguments; the
/// first element, the program name, is skipped.
///
/// Any other argument is an error: it is printed to stderr with the
/// accepted flags ([`CLI_FLAGS`]) and the process exits with status 2,
/// so a typo such as `--quik` never runs the paper-scale suite.
///
/// # Panics
///
/// Panics if `--json`, `--resume` or `--monitor` is not followed by
/// its argument.
pub fn parse_cli<I: IntoIterator<Item = String>>(args: I) -> CliOptions {
    try_parse_cli(args).unwrap_or_else(|err| {
        eprintln!("{err}\n{CLI_FLAGS}");
        std::process::exit(2)
    })
}

/// [`parse_cli`] without the exit: an unknown argument is an `Err`
/// naming it.
///
/// # Panics
///
/// Panics if `--json`, `--resume` or `--monitor` is not followed by
/// its argument.
fn try_parse_cli<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    let mut options = CliOptions::default();
    let mut iter = args.into_iter().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--json" => {
                let dir = iter.next().expect("--json requires a directory argument");
                options.json_dir = Some(PathBuf::from(dir));
            }
            "--force" => options.force = true,
            "--resume" => {
                let dir = iter.next().expect("--resume requires a directory argument");
                options.resume = Some(PathBuf::from(dir));
            }
            "--monitor" => {
                let addr = iter
                    .next()
                    .expect("--monitor requires an address argument (e.g. 127.0.0.1:9100)");
                options.monitor = Some(addr);
            }
            "--progress" => options.progress = true,
            other => return Err(format!("unknown argument `{other}`")),
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
    /// instead (events append rather than truncate) and
    /// [`Session::run_batch`] skips every experiment whose checkpoint
    /// is complete and valid for this `(seed, quick)` configuration.
    ///
    /// # Panics
    ///
    /// Panics if the JSON output directory cannot be claimed (the
    /// message names the offending path), or if `--json` and
    /// `--resume` point at different directories.
    pub fn start(tool: &str, options: &CliOptions) -> Session {
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
        if let (Some(resume), Some(json)) = (&options.resume, &options.json_dir) {
            assert!(
                resume == json,
                "--resume {} and --json {} point at different directories; \
                 --resume already selects the output directory",
                resume.display(),
                json.display()
            );
        }
        let resuming = options.resume.is_some();
        let output_dir = options.resume.as_ref().or(options.json_dir.as_ref());
        let run_dir = output_dir.map(|dir| {
            let run_dir = if resuming {
                telemetry::RunDir::resume(dir)
            } else {
                telemetry::RunDir::create(dir, options.force)
            }
            .unwrap_or_else(|e| panic!("{e}"));
            let events = run_dir.file("events.jsonl");
            let sink = if resuming {
                telemetry::JsonlSink::append(&events)
            } else {
                telemetry::JsonlSink::create(&events)
            }
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", events.display()));
            telemetry::add_sink(Box::new(sink));
            run_dir
        });
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
            // its global allocator (repro_all and fault_sweep do).
            mlam_monitor::alloc::enable();
        }
        // Learning curves ride along whenever there is somewhere for
        // them to go: a run directory (curves.jsonl) or a monitor
        // (/curves). MLAM_CURVES=0 switches recording off for overhead
        // A/B measurements (curve_overhead bench).
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
        let monitor = options.monitor.as_ref().map(|addr| {
            let mut config = Monitor::new(addr);
            if let Some(progress) = &progress {
                config = config.progress(Arc::clone(progress));
            }
            if let Some(live) = &live_curves {
                config = config.curves(Arc::clone(live));
            }
            let handle = config
                .start()
                .unwrap_or_else(|e| panic!("cannot start monitor on {addr}: {e}"));
            eprintln!(
                "mlam: monitor listening on http://{}/metrics",
                handle.addr()
            );
            handle
        });
        let reporter = options.progress.then(|| {
            let progress = progress.as_ref().expect("progress state exists");
            ProgressReporter::start(Arc::clone(progress), Duration::from_millis(500))
        });
        Session {
            manifest,
            run_dir,
            store,
            resuming,
            started: Instant::now(),
            progress,
            monitor,
            reporter,
            curve_sinks,
            curve_recorder,
            curve_fresh: BTreeSet::new(),
        }
    }

    /// The live progress state, when `--monitor` or `--progress` is
    /// active (testing and endpoint consumers; `None` otherwise).
    pub fn progress(&self) -> Option<&Arc<Progress>> {
        self.progress.as_ref()
    }

    /// The address the monitor endpoint actually bound (resolves a
    /// `--monitor 127.0.0.1:0` ephemeral-port request), when active.
    pub fn monitor_addr(&self) -> Option<std::net::SocketAddr> {
        self.monitor.as_ref().map(|handle| handle.addr())
    }

    /// The root seed binaries should feed their RNG from.
    pub fn seed(&self) -> u64 {
        self.manifest.seed
    }

    /// Whether this session runs the reduced parameter sets.
    pub fn quick(&self) -> bool {
        self.manifest.quick
    }

    /// Runs one named experiment: times the driver, attributes counter
    /// increments to it, records an [`ExperimentRecord`], and (under
    /// `--json`) writes `<dir>/<name>.json` with the rendered tables.
    /// Returns the driver's result; never writes to stdout.
    pub fn run<T>(
        &mut self,
        name: &str,
        driver: impl FnOnce() -> T,
        render: impl FnOnce(&T) -> Vec<Table>,
    ) -> T {
        // Attribution through a scope (not a global snapshot diff) so
        // increments land on this experiment even when other work —
        // e.g. sibling experiments of a parallel batch — runs
        // concurrently, and nested parallel regions inherit the scope
        // via the mlam-par context hook.
        if let Some(progress) = &self.progress {
            progress.add_total(1);
        }
        if self.curve_sinks.is_some() {
            self.curve_fresh.insert(name.to_string());
        }
        let scope = telemetry::CounterScope::new();
        let started = Instant::now();
        let value = {
            let _guard = scope.enter();
            let _curves = self
                .curve_sinks
                .as_ref()
                .map(|sinks| curves::enter_series(name, Arc::clone(sinks)));
            driver()
        };
        let seconds = started.elapsed().as_secs_f64();
        let counters = scope.take();
        self.manifest.experiments.push(ExperimentRecord {
            name: name.to_string(),
            seconds,
            counters: counters.clone(),
            degraded: false,
        });
        if let Some(store) = &self.store {
            let record = ExperimentJson {
                name: name.to_string(),
                seed: self.manifest.seed,
                quick: self.manifest.quick,
                seconds,
                degraded: false,
                counters,
                tables: render(&value).iter().map(TableJson::from_table).collect(),
            };
            store.save(&record).unwrap_or_else(|e| panic!("{e}"));
        }
        if let Some(progress) = &self.progress {
            progress.complete_one();
        }
        value
    }

    /// Runs a batch of experiments, fanned out across `MLAM_THREADS`
    /// workers (inline when `MLAM_THREADS=1`), then records, writes
    /// and prints every result **in spec order** — stdout, the
    /// manifest and the `--json` files are identical at any thread
    /// count.
    ///
    /// Each experiment gets its own RNG seeded from
    /// `split_seed(session seed, index)` and its own counter scope, so
    /// neither randomness nor attribution couples experiments to their
    /// schedule. A panicking driver does not abort the batch: the
    /// experiment degrades to a partial record (`degraded: true`,
    /// wall-clock and counters up to the failure, no tables) in both
    /// the manifest and its checkpoint file, and the failure is
    /// returned so the caller can exit non-zero.
    ///
    /// When the session was started with `--resume`, experiments whose
    /// checkpoint is complete and matches this `(seed, quick)`
    /// configuration are **skipped**: their recorded counters and
    /// wall-clock are restored into the manifest (and replayed into
    /// the global metric registry, so `metrics.jsonl` matches a
    /// straight-through run), a note goes to stderr, and their tables
    /// are *not* reprinted to stdout. Missing, corrupt (killed
    /// mid-write), stale (other seed/quick) and degraded checkpoints
    /// are re-run from their original `split_seed(seed, index)`
    /// stream, which reproduces the interrupted run bit-for-bit.
    pub fn run_batch(&mut self, specs: Vec<ExperimentSpec>) -> Vec<ExperimentFailure> {
        telemetry::install_parallel_propagation();
        let root = self.seed();
        let quick = self.quick();
        if let Some(progress) = &self.progress {
            progress.add_total(specs.len() as u64);
        }
        // Spec order must survive the skip/run split: each slot is
        // either a restored checkpoint or an index into the task list
        // handed to the pool, and results are drained back in order.
        enum Slot {
            Restored(ExperimentJson),
            Fresh,
        }
        let mut slots = Vec::new();
        let mut tasks: Vec<Box<dyn FnOnce() -> BatchOutcome + Send>> = Vec::new();
        for (index, spec) in specs.into_iter().enumerate() {
            let checkpoint = self
                .resuming
                .then_some(self.store.as_ref())
                .flatten()
                .map(|store| store.load(spec.name()));
            match checkpoint {
                Some(CheckpointState::Complete(record)) if record.resumable(root, quick) => {
                    eprintln!(
                        "mlam: resume: skipping {} (checkpoint complete)",
                        spec.name()
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
                        spec.name(),
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
                        spec.name()
                    );
                }
                Some(CheckpointState::Missing) | None => {}
            }
            slots.push(Slot::Fresh);
            if self.curve_sinks.is_some() {
                self.curve_fresh.insert(spec.name().to_string());
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
                run_spec(spec, root, quick, index, store, progress, curve_sinks)
            }) as Box<dyn FnOnce() -> BatchOutcome + Send>);
        }
        let mut fresh = mlam_par::par_run(tasks).into_iter();
        let mut failures = Vec::new();
        for slot in slots {
            match slot {
                Slot::Restored(record) => {
                    // Re-apply the restored counters to the global
                    // registry: final_metrics and metrics.jsonl then
                    // match what a straight-through run would report.
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

/// A boxed experiment driver: takes the experiment's own
/// deterministically derived RNG, returns the tables to print and
/// serialize.
type DriverFn = Box<dyn FnOnce(&mut StdRng) -> Vec<Table> + Send>;

/// One experiment of a [`Session::run_batch`] fan-out: a name plus a
/// driver closure that receives the experiment's own deterministically
/// derived RNG and returns the tables to print and serialize.
pub struct ExperimentSpec {
    name: &'static str,
    run: DriverFn,
}

impl ExperimentSpec {
    /// Wraps a driver closure under the experiment's manifest name.
    pub fn new(
        name: &'static str,
        run: impl FnOnce(&mut StdRng) -> Vec<Table> + Send + 'static,
    ) -> ExperimentSpec {
        ExperimentSpec {
            name,
            run: Box::new(run),
        }
    }

    /// The manifest/JSON name of this experiment.
    pub fn name(&self) -> &str {
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

/// Executes one spec on whichever worker the pool picked: independent
/// RNG from `(root, index)`, own counter scope, panics contained.
///
/// The checkpoint is saved *here*, as soon as the driver returns —
/// streamed to disk while sibling experiments still run — so a resume
/// after a mid-batch kill skips everything that finished, and the
/// `/progress` endpoint agrees with the checkpoint directory at every
/// instant. The save (and its `harness.checkpoint.saved` increment)
/// happens after the counter scope is drained, exactly as when the
/// drain loop saved: attribution and `metrics.jsonl` are unchanged.
fn run_spec(
    spec: ExperimentSpec,
    root: u64,
    quick: bool,
    index: usize,
    store: Option<CheckpointStore>,
    progress: Option<Arc<Progress>>,
    curve_sinks: Option<Arc<Vec<Arc<dyn CurveSink>>>>,
) -> BatchOutcome {
    let name = spec.name;
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
        let run = spec.run;
        std::panic::catch_unwind(AssertUnwindSafe(move || {
            let mut rng = StdRng::seed_from_u64(mlam_par::split_seed(root, index as u64));
            run(&mut rng)
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

/// Runs every experiment — fanned out across `MLAM_THREADS` workers —
/// printing each table to stdout in the fixed order `repro_all` always
/// has, while the session records timing, counters and (under
/// `--json`) structured results.
///
/// Every experiment seeds its own RNG from `split_seed(session seed,
/// experiment index)`, so outputs are bit-identical at any thread
/// count. Returns the experiments whose drivers panicked (empty on a
/// clean run); callers that exit should propagate a non-zero status
/// when the list is non-empty.
pub fn run_all(session: &mut Session) -> Vec<ExperimentFailure> {
    use mlam::experiments::ablations::{run_ablations, AblationParams};
    use mlam::experiments::ac0::{run_ac0, Ac0Params};
    use mlam::experiments::corollary2::{run_corollary2, Corollary2Params};
    use mlam::experiments::exact_vs_approx::{run_exact_vs_approx, ExactVsApproxParams};
    use mlam::experiments::interpose::{run_interpose, InterposeParams};
    use mlam::experiments::lockdown::{run_lockdown, LockdownParams};
    use mlam::experiments::locking::{run_locking, LockingParams};
    use mlam::experiments::rocknroll::{run_rocknroll, RocknRollParams};
    use mlam::experiments::sequential::{run_sequential, SequentialParams};
    use mlam::experiments::spectral::{run_spectral, SpectralParams};
    use mlam::experiments::{
        run_table1, run_table2, run_table3, Table1Params, Table2Params, Table3Params,
    };

    let _span = telemetry::span("bench.run_all")
        .attr("quick", session.quick())
        .attr("threads", mlam_par::threads());
    let quick = session.quick();

    let t1 = if quick {
        Table1Params::quick()
    } else {
        Table1Params::paper()
    };
    let t2 = if quick {
        Table2Params::quick()
    } else {
        Table2Params::paper()
    };
    let t3 = if quick {
        Table3Params::quick()
    } else {
        Table3Params::paper()
    };
    let c2 = if quick {
        Corollary2Params::quick()
    } else {
        Corollary2Params::paper()
    };
    let lk = if quick {
        LockingParams::quick()
    } else {
        LockingParams::paper()
    };
    let sq = if quick {
        SequentialParams::quick()
    } else {
        SequentialParams::paper()
    };
    let ea = if quick {
        ExactVsApproxParams::quick()
    } else {
        ExactVsApproxParams::paper()
    };
    let a0 = if quick {
        Ac0Params::quick()
    } else {
        Ac0Params::paper()
    };
    let sp = if quick {
        SpectralParams::quick()
    } else {
        SpectralParams::paper()
    };
    let ip = if quick {
        InterposeParams::quick()
    } else {
        InterposeParams::paper()
    };
    let rr = if quick {
        RocknRollParams::quick()
    } else {
        RocknRollParams::paper()
    };
    let ld = if quick {
        LockdownParams::quick()
    } else {
        LockdownParams::paper()
    };
    let ab = if quick {
        AblationParams::quick()
    } else {
        AblationParams::paper()
    };

    let specs = vec![
        ExperimentSpec::new("table1", move |rng| {
            let r = run_table1(&t1, rng);
            vec![r.to_table(), r.empirical_table()]
        }),
        ExperimentSpec::new("table2", move |rng| vec![run_table2(&t2, rng).to_table()]),
        ExperimentSpec::new("table3", move |rng| vec![run_table3(&t3, rng).to_table()]),
        ExperimentSpec::new("corollary2", move |rng| {
            vec![run_corollary2(&c2, rng).to_table()]
        }),
        ExperimentSpec::new("locking", move |rng| vec![run_locking(&lk, rng).to_table()]),
        ExperimentSpec::new("sequential", move |rng| {
            vec![run_sequential(&sq, rng).to_table()]
        }),
        ExperimentSpec::new("exact_vs_approx", move |rng| {
            vec![run_exact_vs_approx(&ea, rng).to_table()]
        }),
        ExperimentSpec::new("ac0", move |rng| vec![run_ac0(&a0, rng).to_table()]),
        ExperimentSpec::new("spectral", move |rng| {
            vec![run_spectral(&sp, rng).to_table()]
        }),
        ExperimentSpec::new("interpose", move |rng| {
            vec![run_interpose(&ip, rng).to_table()]
        }),
        ExperimentSpec::new("rocknroll", move |rng| {
            vec![run_rocknroll(&rr, rng).to_table()]
        }),
        ExperimentSpec::new("lockdown", move |rng| {
            vec![run_lockdown(&ld, rng).to_table()]
        }),
        ExperimentSpec::new("ablations", move |rng| run_ablations(&ab, rng).to_tables()),
    ];
    session.run_batch(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parses_quick_and_json() {
        let opts = parse_cli(["bin", "--quick", "--json", "out/dir", "--force"].map(String::from));
        assert!(opts.quick);
        assert!(opts.force);
        assert_eq!(opts.json_dir.as_deref(), Some(Path::new("out/dir")));
        // The first argument is the program name, never a flag.
        let none = parse_cli(["--quick"].map(String::from));
        assert_eq!(none, CliOptions::default());
    }

    #[test]
    fn cli_rejects_unknown_flags() {
        for args in [
            &["bin", "--quik"][..],
            &["bin", "--quick", "extra"],
            &["bin", "-q"],
        ] {
            let err = try_parse_cli(args.iter().map(|a| a.to_string())).unwrap_err();
            assert!(err.contains(args[args.len() - 1]), "{err}");
        }
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
        let result = std::panic::catch_unwind(|| Session::start("test-tool", &options));
        assert!(result.is_err(), "Session::start must refuse to clobber");
        let forced = CliOptions {
            force: true,
            ..options
        };
        let session = Session::start("test-tool", &forced);
        session.finish();
        assert!(dir.join("metrics.jsonl").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "--json requires a directory")]
    fn cli_rejects_dangling_json_flag() {
        parse_cli(["bin", "--json"].map(String::from));
    }

    #[test]
    fn cli_parses_resume() {
        let opts = parse_cli(["bin", "--resume", "out/run", "--quick"].map(String::from));
        assert_eq!(opts.resume.as_deref(), Some(Path::new("out/run")));
        assert!(opts.quick);
    }

    #[test]
    fn cli_parses_monitor_and_progress() {
        let opts =
            parse_cli(["bin", "--monitor", "127.0.0.1:9100", "--progress"].map(String::from));
        assert_eq!(opts.monitor.as_deref(), Some("127.0.0.1:9100"));
        assert!(opts.progress);
        let none = parse_cli(["bin"].map(String::from));
        assert_eq!(none.monitor, None);
        assert!(!none.progress);
    }

    #[test]
    #[should_panic(expected = "--monitor requires an address")]
    fn cli_rejects_dangling_monitor_flag() {
        parse_cli(["bin", "--monitor"].map(String::from));
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
        let mut session = Session::start("test-monitor", &options);
        let progress = Arc::clone(
            session
                .progress()
                .expect("--monitor implies progress state"),
        );
        assert_eq!(progress.completed(), 0);
        let failures = session.run_batch(vec![
            ExperimentSpec::new("monitored_a", |_| vec![Table::new("A", &["v"])]),
            ExperimentSpec::new("monitored_b", |_| vec![Table::new("B", &["v"])]),
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
    #[should_panic(expected = "--resume requires a directory")]
    fn cli_rejects_dangling_resume_flag() {
        parse_cli(["bin", "--resume"].map(String::from));
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

        let specs = || {
            vec![
                ExperimentSpec::new("resume_a", |rng| {
                    use rand::Rng;
                    mlam::telemetry::counter!("bench.test.resume_a", 5);
                    let roll: u64 = rng.gen();
                    vec![Table::new(format!("A {roll}"), &["v"])]
                }),
                ExperimentSpec::new("resume_b", |rng| {
                    use rand::Rng;
                    mlam::telemetry::counter!("bench.test.resume_b", 7);
                    let roll: u64 = rng.gen();
                    vec![Table::new(format!("B {roll}"), &["v"])]
                }),
            ]
        };

        let mut first = Session::start("test-resume", &options);
        assert!(first.run_batch(specs()).is_empty());
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
        let mut second = Session::start("test-resume", &resumed_options);
        assert!(second.run_batch(specs()).is_empty());
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
        let mut session = Session::start("test-degrade", &options);
        let failures = session.run_batch(vec![
            ExperimentSpec::new("degrade_ok", |_| vec![]),
            ExperimentSpec::new("degrade_boom", |_| {
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
        let mut session = Session::start("test-curves", &options);
        let failures = session.run_batch(vec![ExperimentSpec::new("curve_x", |_| {
            telemetry::counter!("oracle.example_queries", 10);
            curves::checkpoint("demo", 1, 0.5, None);
            telemetry::counter!("oracle.example_queries", 22);
            curves::checkpoint("demo", 2, 0.75, None);
            Vec::new()
        })]);
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
        let specs = || {
            vec![
                ExperimentSpec::new("curve_keep", |_| {
                    telemetry::counter!("oracle.example_queries", 4);
                    curves::checkpoint("demo", 1, 0.25, None);
                    Vec::new()
                }),
                ExperimentSpec::new("curve_redo", |_| {
                    telemetry::counter!("oracle.example_queries", 8);
                    curves::checkpoint("demo", 1, 0.5, None);
                    Vec::new()
                }),
            ]
        };
        let mut first = Session::start("test-curves-resume", &options);
        assert!(first.run_batch(specs()).is_empty());
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
        let mut second = Session::start("test-curves-resume", &resumed_options);
        assert!(second.run_batch(specs()).is_empty());
        second.finish();
        let merged = std::fs::read(dir.join(CURVES_FILE)).unwrap();
        assert_eq!(merged, full, "resume must reproduce curves.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_records_experiments_without_json() {
        let mut session = Session::start("test-tool", &CliOptions::default());
        let value = session.run(
            "demo",
            || {
                mlam::telemetry::counter!("bench.test.session_counter", 3);
                41 + 1
            },
            |_| Vec::new(),
        );
        assert_eq!(value, 42);
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
}

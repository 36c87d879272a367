//! Runs every experiment and prints all tables — the one-shot
//! reproduction entry point referenced by EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p mlam-bench --bin repro_all
//! [--quick] [--json <dir>] [--force] [--resume <dir>]
//! [--monitor <addr>] [--progress] [--only <name>[,<name>...]]`
//!
//! `--only table3,locking` runs just those experiments of the registry
//! `mlam_bench::EXPERIMENTS`, in registry order; each prints and
//! records exactly what it does in the full run. An unknown name exits
//! 2 and lists the registry's names.
//!
//! Experiments are fanned out across `MLAM_THREADS` worker threads
//! (default: available parallelism; `1` runs inline). Results are
//! bit-identical at any thread count: each experiment derives its own
//! RNG from the fixed root seed and its registry index, and tables are
//! printed in the fixed experiment order.
//!
//! With `--json <dir>`, also writes `manifest.json`, `metrics.jsonl`,
//! `events.jsonl` and one `<experiment>.json` per experiment; stdout
//! is unchanged. The directory is created recursively; a directory
//! that already holds a `manifest.json` is refused unless `--force`
//! is given.
//!
//! Malformed arguments exit with status 2 before anything runs (see
//! `mlam_bench::parse_cli`), and so does a run `Session::start`
//! refuses: an output directory it cannot claim or a `--monitor`
//! address it cannot bind. Exits 1 when any experiment driver
//! fails. The remaining experiments still run; the failed ones are
//! recorded as partial results marked `degraded: true` in the manifest
//! and their checkpoint file.
//!
//! With `--resume <dir>`, continues an interrupted `--json <dir>` run:
//! experiments with complete checkpoints for the same seed and
//! `--quick` flag are skipped (their tables are not reprinted; a note
//! goes to stderr), everything else — missing, corrupt, or degraded —
//! re-runs from its original per-experiment seed, so the final run
//! directory has the records and curves of an uninterrupted run
//! (`Session::run_batch` lists exactly what matches). See HARNESS.md.
//!
//! With `--monitor <addr>` (e.g. `127.0.0.1:9100`), serves live
//! observability for the duration of the run: `/metrics` (Prometheus
//! text exposition), `/progress` (JSON completed/total + ETA) and
//! `/healthz`. `--progress` prints progress/ETA lines to stderr as
//! experiments finish. Neither perturbs results: stdout and every
//! deterministic output (counters, tables, manifests — everything but
//! wall-clock timing fields) are byte-identical with monitoring on or
//! off. See OBSERVABILITY.md.

use mlam_bench::{parse_cli, run_all, Session, CLI_FLAGS};

// Heap gauges on /metrics need the tracking allocator installed at
// link time; accounting stays off (one relaxed load per allocation)
// unless MLAM_TRACK_ALLOC=1 opts in.
#[global_allocator]
static ALLOC: mlam_monitor::alloc::TrackingAlloc = mlam_monitor::alloc::TrackingAlloc;

fn main() {
    let options = parse_cli(std::env::args());
    let mut session = Session::start("repro_all", &options).unwrap_or_else(|err| {
        eprintln!("{err}\n{CLI_FLAGS}");
        std::process::exit(2)
    });
    let failures = run_all(&mut session);
    session.finish();
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("experiment {} failed: {}", failure.name, failure.message);
        }
        std::process::exit(1);
    }
}

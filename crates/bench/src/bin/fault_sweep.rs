//! Fault-rate sweep: accuracy-vs-fault-rate and query-overhead curves
//! of the perceptron attack under an unreliable oracle (see
//! HARNESS.md; `BENCH_5.json` records the paper-scale sweep).
//!
//! Usage: `cargo run --release -p mlam-bench --bin fault_sweep
//! [--quick] [--json <dir>] [--monitor <addr>] [--progress]`
//!
//! `--monitor <addr>` serves `/metrics`, `/progress` and `/healthz`
//! while the sweep runs — the live `oracle.query.*` counters show the
//! raw-read budget being spent in real time; `--progress` prints
//! completion lines to stderr. Both leave stdout and every
//! deterministic `--json` output byte-identical (see
//! OBSERVABILITY.md).
//!
//! Runs one experiment, `fault_sweep`, attacking a 64-stage Arbiter
//! PUF at each fault rate under both example access (flips silently
//! mislabel the training set) and majority-voted membership access
//! (raw-read overhead buys label quality back). The sweep's table goes
//! to stdout; under `--json <dir>` its rows are also written to
//! `<dir>/fault_sweep.json`.
//!
//! Every `oracle.fault.*` decision is a pure function of the fault
//! seed and the challenge bits, so the sweep's counters and curves are
//! bit-identical across runs and thread counts — CI's fault-smoke leg
//! diffs a fresh run against `baselines/fault_quick/` with
//! `mlam-trace compare --ignore-counter harness.retry.`.

use mlam::experiments::fault_sweep::{run_fault_sweep, FaultSweepParams};
use mlam_bench::{parse_cli, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

// Same opt-in heap accounting as repro_all (see OBSERVABILITY.md).
#[global_allocator]
static ALLOC: mlam_monitor::alloc::TrackingAlloc = mlam_monitor::alloc::TrackingAlloc;

fn main() {
    let options = parse_cli(std::env::args(), &[]);
    let params = if options.quick {
        FaultSweepParams::quick()
    } else {
        FaultSweepParams::paper()
    };
    let mut session = Session::start("fault_sweep", &options);
    let mut rng = StdRng::seed_from_u64(session.seed());

    let result = session.run(
        "fault_sweep",
        || run_fault_sweep(&params, &mut rng),
        |r| vec![r.to_table()],
    );
    println!("{}", result.to_table());

    session.finish();
}

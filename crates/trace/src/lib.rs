//! Post-hoc analysis of `mlam-telemetry` runs — the consumer side of
//! the observability pipeline.
//!
//! A reproduction run (`repro_all --quick --json <dir>`) leaves behind
//! a run directory with `events.jsonl` (span start/end events carrying
//! span ids and parent ids), `metrics.jsonl` (counters and log₂
//! histograms) and `manifest.json` (per-experiment wall-clock and
//! counter deltas). This crate, and the `mlam-trace` binary built on
//! it, turn those streams into:
//!
//! - [`chrome`] — Chrome Trace Format (`trace.json`) loadable in
//!   Perfetto / `chrome://tracing`;
//! - [`profile`] — an inclusive/self-time span tree with call counts
//!   and p50/p95 latencies, sorted by self time;
//! - [`bench_history`] — the one `BENCH_<n>.json` schema (rows of
//!   `{workload, seed, metrics}`) and an index-ordered listing of every
//!   checked-in file;
//! - [`curves`] — learning-curve (`curves.jsonl`) summaries and CSV
//!   export for accuracy-vs-queries plots.
//!
//! Nothing here judges a run against another. Same-seed runs must agree
//! exactly, and `crates/bench/tests/determinism.rs` holds them to it
//! against `baselines/quick`; `repro_ab` times two builds.

#![warn(missing_docs)]

pub mod bench_history;
pub mod chrome;
pub mod curves;
pub mod profile;
pub mod run;

pub use run::RunData;

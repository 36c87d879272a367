//! Live observability for mlam runs.
//!
//! Everything the workspace records is post-hoc: counters and spans
//! land in `metrics.jsonl`/`events.jsonl` when a run finishes and
//! `mlam-trace` analyzes them offline. This crate makes the same
//! telemetry observable *while the run executes*, by reading at request
//! time the state the run already keeps:
//!
//! - [`http`] — a zero-dependency HTTP server (std `TcpListener`, the
//!   same no-deps discipline as the rest of the workspace) on the
//!   crate's one thread, exposing `/metrics` in Prometheus text
//!   exposition format (a registry snapshot taken for each scrape, plus
//!   the process's resident memory as the OS reports it), `/progress`
//!   as JSON, `/curves` as the `curves.jsonl` lines recorded so far,
//!   and `/healthz`.
//! - [`progress`] — experiments completed/total, throughput and ETA,
//!   fed by the bench session as checkpoints land; under `--progress`
//!   each completion also prints one stderr line.
//! - [`spans`] — an event sink tracking in-flight spans so `/metrics`
//!   can show what the run is doing *right now*.
//!
//! # The determinism firewall
//!
//! The workspace's core contract is that same-seed runs are
//! bit-identical — `metrics.jsonl` included — and CI's determinism test
//! fails on any difference. Monitoring must therefore never write into
//! the telemetry registry: the only state this crate keeps (scrape
//! counts, progress, in-flight spans) lives in plain atomics and
//! mutexes it owns and is exposed *only* through the HTTP endpoint and
//! the `--progress` lines. A run with `--monitor` enabled produces
//! byte-identical stdout and bit-identical `metrics.jsonl` versus a
//! run without it. See `OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod http;
pub mod progress;
pub mod prometheus;
pub mod spans;

pub use http::{Monitor, MonitorHandle};
pub use progress::{Progress, ProgressSnapshot};
pub use spans::LiveSpanTracker;

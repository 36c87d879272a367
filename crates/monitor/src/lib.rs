//! Live observability for long-running mlam workloads.
//!
//! Everything the workspace records today is post-hoc: counters and
//! spans land in `metrics.jsonl`/`events.jsonl` when a run finishes
//! and `mlam-trace` analyzes them offline. This crate makes the same
//! telemetry observable *while the run executes*:
//!
//! - [`sampler`] — a background thread that takes periodic
//!   [`mlam_telemetry::MetricsSnapshot`]s and computes per-counter
//!   rates. The hot path is untouched: sampling only *reads* the
//!   already-lock-free atomics, on its own thread.
//! - [`http`] — a zero-dependency HTTP server (std `TcpListener`, the
//!   same no-deps discipline as the rest of the workspace) exposing
//!   `/metrics` in Prometheus text exposition format, `/progress` as
//!   JSON, and `/healthz`.
//! - [`progress`] — experiments completed/total, throughput and ETA,
//!   fed by the bench session as checkpoints land, plus the stderr
//!   reporter behind `--progress`.
//! - [`alloc`] — an opt-in tracking global allocator feeding
//!   current/peak heap gauges.
//! - [`spans`] — an event sink tracking in-flight spans so `/metrics`
//!   can show what the run is doing *right now*.
//! - [`curves`] — a live mirror of learning-curve checkpoints
//!   (accuracy vs. exact queries) behind the `/curves` JSON endpoint,
//!   fed by the same [`mlam_telemetry::CurveSink`] fan-out that writes
//!   `curves.jsonl`.
//!
//! # The determinism firewall
//!
//! The workspace's core contract is that same-seed runs are
//! bit-identical — `metrics.jsonl` included — and CI's determinism test
//! fails on any difference. Monitoring must therefore never write into
//! the telemetry registry: every monitor-internal statistic (scrape
//! counts, sampler ticks, progress, allocator bytes, in-flight spans)
//! lives in plain atomics owned by this crate and is exposed *only*
//! through the HTTP endpoint. A run with `--monitor` enabled produces
//! byte-identical stdout and bit-identical `metrics.jsonl` versus a
//! run without it. See `OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod curves;
pub mod http;
pub mod progress;
pub mod prometheus;
pub mod sampler;
pub mod spans;

pub use curves::{LiveCurves, LiveCurvesSnapshot};
pub use http::{Monitor, MonitorHandle};
pub use progress::{Progress, ProgressReporter, ProgressSnapshot};
pub use sampler::{Sampler, SamplerState};
pub use spans::LiveSpanTracker;

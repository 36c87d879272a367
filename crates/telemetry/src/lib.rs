//! Telemetry for the mlam attack pipeline: RAII spans, global metrics,
//! and JSONL run manifests.
//!
//! Everything here is strictly additive observability: output goes to
//! **stderr** (gated by the `MLAM_LOG` environment variable) or to
//! files explicitly requested by the caller (`--json` in the bench
//! binaries). With `MLAM_LOG` unset and no JSONL sink installed, the
//! pipeline's stdout is byte-identical to a build without telemetry.
//!
//! The three layers:
//!
//! - [`mod@span`] — scoped wall-clock timing. `span::span("name")` returns
//!   a guard; dropping it records the elapsed time, feeds the
//!   per-span-name duration histogram, and emits start/end events to
//!   the installed sinks. Every event carries a process-unique span id
//!   and the parent span's id, so `mlam-trace` can rebuild the span
//!   tree (and export Chrome Trace Format) from `events.jsonl` alone.
//! - [`metrics`] — process-global named [`Counter`]s (atomic) and
//!   log₂-bucketed [`Histogram`]s, snapshotted as plain maps so callers
//!   can diff before/after an experiment.
//! - [`manifest`] — the serde-serializable [`RunManifest`] written by
//!   `repro_all --json`, recording seed, parameters, crate versions,
//!   and per-experiment wall-clock plus counter deltas.
//!
//! Layered on top, [`curves`] records deterministic accuracy-vs-queries
//! learning curves (`curves.jsonl`): training loops call
//! [`curves::checkpoint`] — free when no recording context is
//! installed — and the query budget is read exactly from the active
//! [`CounterScope`].

#![warn(missing_docs)]

pub mod curves;
pub mod manifest;
pub mod metrics;
pub mod propagate;
pub mod recorder;
pub mod rundir;
pub mod span;

pub use curves::{CurvePoint, CurveRecorder, CURVES_FILE};
pub use manifest::{ExperimentRecord, RunManifest};
pub use metrics::{
    counter_handle, histogram_handle, scope_counter_totals, snapshot, write_metrics_jsonl, Counter,
    CounterScope, CounterScopeGuard, Histogram, HistogramSnapshot, MetricLine, MetricsSnapshot,
};
pub use propagate::install_parallel_propagation;
pub use recorder::{add_sink, stderr_level, Event, EventKind, JsonlSink, Level, Sink};
pub use rundir::RunDir;
pub use span::{current_context, enter_context, span, Span, SpanContext, SpanContextGuard};

/// Looks up (and caches, via a hidden `static`) the named counter, then
/// adds `delta` to it. With one argument, returns the cached
/// [`Counter`] handle instead.
///
/// The name must be a literal so the cache is sound; use
/// [`counter_handle`] for dynamically built names.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __MLAM_COUNTER: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        __MLAM_COUNTER.get_or_init(|| $crate::metrics::counter_handle($name))
    }};
    ($name:literal, $delta:expr) => {
        $crate::counter!($name).add($delta as u64)
    };
}

/// Looks up (and caches) the named histogram; with a second argument,
/// records one observation into it.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static __MLAM_HISTOGRAM: ::std::sync::OnceLock<$crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        __MLAM_HISTOGRAM.get_or_init(|| $crate::metrics::histogram_handle($name))
    }};
    ($name:literal, $value:expr) => {
        $crate::histogram!($name).observe($value as u64)
    };
}
